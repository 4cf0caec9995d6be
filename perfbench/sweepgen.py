"""Seeded request generator for the ``sweep`` and ``sweep-auto`` workloads.

Every request is one ``uhrkit`` cost query as an argv list.  Where the
values come from:

* A structure query varies one of the U-HRNet presets the package ships
  (``SHIPPED``, copied from ``presets.REGISTRY``).  It keeps the preset's
  stage count, final-stage kind, width, blocks per branch and fusion, and
  draws a new resolution walk and new module counts between 1 and the
  preset's largest count.  The presets are taken in turn from a
  seed-drawn start.
* Preset, compare and export queries go through ``REFERENCE_PRESETS``
  (``presets.REFERENCE_GFLOPS``) in turn, each from a seed-drawn start.
* An explicit convention is drawn from ``CONVENTIONS``, the 128 field
  combinations ``analysis.calibrate_convention`` searches.  A preset query
  uses the calibrated convention, so its total can be checked against the
  published figure.  The ``auto`` stream is the same with every
  convention replaced by ``auto``.

The share of each kind (``CYCLE``: four structure queries, then one
preset, one compare and one export) is a choice, not taken from recorded
usage: design-space exploration is mostly structure queries.

Generated encodings are buildable by construction under the rules of
``graph.stage_level_sets``:

* the resolution walk starts at 0 and stays in [0, 4];
* every stage after the first holds two branches, so it never sits at
  level 0, except a one-branch final stage;
* a one-branch final stage follows an upward move (``^``); otherwise the
  encoding ends in ``=`` and keeps two branches.
"""

from __future__ import annotations

import itertools
import random
import re
from collections.abc import Iterator

MAX_LEVEL = 4

CYCLE = ("structure",) * 4 + ("preset", "compare", "export")

# name -> (encoding, width, blocks per branch, fusion)
SHIPPED = {
    "uhrnet-w48": ("1v1v5v2v2^1^1^1^1", 48, 4, "b"),
    "uhrnet-w18-small": ("1v1v2v2v2^1^1^1^1", 18, 2, "b"),
    "uhrnet-w18-small-va": ("1v1v3v2=", 18, 2, "b"),
    "uhrnet-w18-small-vb": ("1v1v3v5=", 18, 2, "b"),
    "uhrnet-w18-small-vc": ("1v1v3v7=", 18, 2, "b"),
    "uhrnet-w18-small-vd": ("1v1v2v5^1=", 18, 2, "b"),
    "uhrnet-w18-small-ve": ("1v1v2v5^1^1^1", 18, 2, "b"),
    "uhrnet-w18-small-vf": ("1v1v4v1v1^1^1^1^1", 18, 2, "b"),
    "uhrnet-w18-small-vg": ("1v1v2v1v1^1^2^2^1", 18, 2, "b"),
    "uhrnet-w18-small-vh": ("1v1v2v2v2^1^1^1^1", 18, 2, "a"),
}

REFERENCE_PRESETS = (
    "hrnetv2-w18-small-v1",
    "hrnetv2-w18-small-v2",
    "hrnetv2-w48",
    *SHIPPED,
)

CONVENTIONS = tuple(
    f"mac={mac},bn={bn},relu={relu},up={up},head={head},cls={cls},unit={unit}"
    for mac, bn, relu, up, head, cls, unit in itertools.product(
        (1, 2), ("off", "on"), ("off", "on"), ("off", "on"), ("on", "off"), (19, 0), ("gi", "g")
    )
)
# The convention `auto` calibrates to (README, "The counting convention").
CALIBRATED = CONVENTIONS[0]


def structure(rng: random.Random, stages: int, max_modules: int, two_branch_end: bool) -> str:
    """One buildable encoding of ``stages >= 3`` stages."""
    walk = 0
    parts = [str(rng.randint(1, max_modules))]
    for i in range(1, stages):
        if i == stages - 1 and not two_branch_end:
            moves = ["^"]  # walk >= 1 here, so the final level is >= 0
        else:
            # two-branch stages live in [1, 4]
            moves = [m for m, d in (("v", 1), ("^", -1)) if 1 <= walk + d <= MAX_LEVEL]
        move = rng.choice(moves)
        walk += 1 if move == "v" else -1
        parts.append(move + str(rng.randint(1, max_modules)))
    return "".join(parts) + ("=" if two_branch_end else "")


def _variant(rng: random.Random, preset: str) -> list[str]:
    code, width, blocks, fusion = SHIPPED[preset]
    counts = [int(c) for c in re.findall(r"\d+", code)]
    code = structure(rng, len(counts), max(counts), code.endswith("="))
    return ["--structure", code, "--width", str(width), "--blocks", str(blocks), "--fusion", fusion]


def requests(seed: int, mode: str = "explicit") -> Iterator[dict]:
    """Endless request stream; ``kind`` and ``argv`` per request.  ``mode``
    is ``explicit`` or ``auto``.  Export requests leave ``--out`` for the
    caller to append."""
    if mode not in ("explicit", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    pools = {"structure": tuple(SHIPPED), "preset": REFERENCE_PRESETS}
    pools["compare"] = pools["export"] = REFERENCE_PRESETS
    start = {kind: rng.randrange(len(pool)) for kind, pool in pools.items()}
    seen = dict.fromkeys(pools, 0)

    def convention(fixed: str | None = None) -> list[str]:
        drawn = fixed or rng.choice(CONVENTIONS)  # in both modes, so they differ only here
        return ["--convention", "auto" if mode == "auto" else drawn]

    for i in itertools.count():
        kind = CYCLE[i % len(CYCLE)]
        pool = pools[kind]
        name = pool[(start[kind] + seen[kind]) % len(pool)]
        seen[kind] += 1
        if kind == "structure":
            argv = ["summarize", *_variant(rng, name), *convention()]
        elif kind == "preset":
            argv = ["summarize", "--preset", name, *convention(CALIBRATED)]
        elif kind == "compare":
            other = rng.choice([p for p in pool if p != name])
            argv = ["compare", "--a", name, "--b", other, *convention()]
        else:
            argv = ["export", "--preset", name]
        yield {"kind": kind, "argv": argv + ["--json"]}
