"""Stage-sequence notation for the U-shaped high-resolution backbone family.

A network layout is written as a chain of stage sizes separated by
resolution moves, for example ``1v1v2v2v2^1^1^1^1``:

* each number is one stage, and its value is the stage's hr-module count,
* ``v`` moves to the next lower resolution, ``^`` to the next higher one,
* a trailing ``=`` marks a final stage that keeps two branches.

The unicode arrows ``↘`` and ``↗`` are accepted as aliases for ``v`` and
``^``.  :func:`format_structure` always emits the ASCII form, and
``parse(format(seq))`` is the identity.

The implied resolution index starts at 0, moves +1 on every ``v`` and -1 on
every ``^``, and must stay inside ``[0, 4]``: the family has at most five
resolution streams (1/4 down to 1/64 of the input).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

MAX_MODULE_COUNT = 99  # sanity bound against pathological inputs
MAX_RESOLUTION_LEVEL = 4  # five streams: levels 0..4

_DOWN_CHARS = {"v", "↘"}  # ↘
_UP_CHARS = {"^", "↗"}  # ↗


class StructureError(ValueError):
    """A stage-sequence string could not be parsed.

    ``position`` is the 0-based index of the offending character in the
    original input, or ``None`` when no single position applies.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EmptyInput(StructureError):
    pass


class UnexpectedCharacter(StructureError):
    pass


class ZeroModuleCount(StructureError):
    pass


class ModuleCountTooLarge(StructureError):
    pass


class ResolutionUnderflow(StructureError):
    pass


class ResolutionOverflow(StructureError):
    pass


class DanglingDirection(StructureError):
    pass


class Direction(Enum):
    DOWN = "v"
    UP = "^"

    @property
    def step(self) -> int:
        return 1 if self is Direction.DOWN else -1


@dataclass(frozen=True)
class StageSequence:
    """Parsed form of a structure encoding.

    ``stages[i]`` is the hr-module count of stage ``i+1``；``transitions[i]``
    is the resolution move between stages ``i+1`` and ``i+2``.
    """

    stages: tuple[int, ...]
    transitions: tuple[Direction, ...]
    terminal_two_branch: bool = False

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a stage sequence needs at least one stage")
        for count in self.stages:
            if count < 1:
                raise ValueError("module counts must be >= 1")
            if count > MAX_MODULE_COUNT:
                raise ValueError(f"module counts are capped at {MAX_MODULE_COUNT}")
        if len(self.transitions) != len(self.stages) - 1:
            raise ValueError("need exactly one transition between consecutive stages")
        if self.terminal_two_branch and len(self.stages) < 2:
            raise ValueError("a two-branch terminal needs at least two stages")
        walk = 0
        for d in self.transitions:
            walk += d.step
            if walk < 0 or walk > MAX_RESOLUTION_LEVEL:
                raise ValueError("resolution walk leaves the valid range [0, 4]")

    @property
    def resolution_walk(self) -> tuple[int, ...]:
        """Implied resolution index at every stage (starts at 0)."""
        walk = [0]
        for d in self.transitions:
            walk.append(walk[-1] + d.step)
        return tuple(walk)


def parse_structure(code: str) -> StageSequence:
    """Parse a structure encoding into a validated :class:`StageSequence`.

    Grammar: ``seq := count (dir count)* '='?`` with ``count`` a decimal
    integer in ``1..99`` and ``dir`` one of ``v ^ ↘ ↗``.  Raises a
    :class:`StructureError` subclass with the offending position on any
    malformed input; never raises anything else, regardless of the bytes
    thrown at it.
    """
    if not isinstance(code, str):
        raise UnexpectedCharacter("input is not text", 0)
    if not code:
        raise EmptyInput("empty structure encoding")

    stages: list[int] = []
    transitions: list[Direction] = []
    terminal = False
    walk = 0
    i = 0
    n = len(code)

    def read_count() -> int:
        nonlocal i
        start = i
        if i >= n:
            raise DanglingDirection("trailing direction with no stage after it", i - 1)
        ch = code[i]
        if ch == "0":
            raise ZeroModuleCount("stages need at least one hr-module", i)
        if not ch.isdigit() or not ch.isascii():
            raise UnexpectedCharacter(f"expected a stage size, found {ch!r}", i)
        while i < n and code[i].isascii() and code[i].isdigit():
            i += 1
        value = int(code[start:i])
        if value > MAX_MODULE_COUNT:
            raise ModuleCountTooLarge(
                f"module count {value} exceeds the cap of {MAX_MODULE_COUNT}", start
            )
        return value

    stages.append(read_count())
    while i < n:
        ch = code[i]
        if ch == "=":
            if i != n - 1:
                raise UnexpectedCharacter("'=' is only valid as the final character", i + 1)
            if len(stages) < 2:
                raise UnexpectedCharacter("'=' needs at least two stages before it", i)
            terminal = True
            i += 1
            break
        if ch in _DOWN_CHARS:
            direction = Direction.DOWN
        elif ch in _UP_CHARS:
            direction = Direction.UP
        else:
            raise UnexpectedCharacter(f"expected 'v', '^' or '=', found {ch!r}", i)
        walk += direction.step
        if walk > MAX_RESOLUTION_LEVEL:
            raise ResolutionOverflow(
                f"more than {MAX_RESOLUTION_LEVEL} downsampling steps from the 1/4 stream", i
            )
        if walk < 0:
            raise ResolutionUnderflow("cannot upsample above the 1/4 stream", i)
        transitions.append(direction)
        i += 1
        stages.append(read_count())

    return StageSequence(
        stages=tuple(stages),
        transitions=tuple(transitions),
        terminal_two_branch=terminal,
    )


def format_structure(seq: StageSequence) -> str:
    """Render a sequence in canonical ASCII form.

    The result parses back to a sequence that compares equal to ``seq``.
    """
    parts = [str(seq.stages[0])]
    for direction, count in zip(seq.transitions, seq.stages[1:]):
        parts.append(direction.value)
        parts.append(str(count))
    if seq.terminal_two_branch:
        parts.append("=")
    return "".join(parts)
