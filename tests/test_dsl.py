import pytest
from hypothesis import given, strategies as st

from uhrkit import dsl
from uhrkit.dsl import (
    DanglingDirection,
    Direction,
    EmptyInput,
    ModuleCountTooLarge,
    ResolutionOverflow,
    ResolutionUnderflow,
    StageSequence,
    StructureError,
    UnexpectedCharacter,
    ZeroModuleCount,
    format_structure,
    parse_structure,
)

D, U = Direction.DOWN, Direction.UP

TABLE_ENCODINGS = [
    "1v1v3v2=",  # va
    "1v1v3v5=",  # vb
    "1v1v3v7=",  # vc
    "1v1v2v5^1=",  # vd
    "1v1v2v5^1^1^1",  # ve
    "1v1v4v1v1^1^1^1^1",  # vf
    "1v1v2v1v1^1^2^2^1",  # vg
    "1v1v2v2v2^1^1^1^1",  # vh
    "1v1v2v2v2^1^1^1^1",  # the small layout itself
]


def test_parse_nine_stage_layout():
    seq = parse_structure("1v1v2v2v2^1^1^1^1")
    assert seq.stages == (1, 1, 2, 2, 2, 1, 1, 1, 1)
    assert seq.transitions == (D, D, D, D, U, U, U, U)
    assert not seq.terminal_two_branch


def test_parse_two_branch_terminal():
    seq = parse_structure("1v1v3v2=")
    assert seq.stages == (1, 1, 3, 2)
    assert seq.transitions == (D, D, D)
    assert seq.terminal_two_branch


def test_parse_minimal():
    seq = parse_structure("1")
    assert seq.stages == (1,)
    assert seq.transitions == ()
    assert not seq.terminal_two_branch


def test_parse_accepts_unicode_arrows():
    glyphs = "1↘1↘2↘2↘2↗1↗1↗1↗1"
    assert parse_structure(glyphs) == parse_structure("1v1v2v2v2^1^1^1^1")


def test_resolution_overflow():
    with pytest.raises(ResolutionOverflow):
        parse_structure("1v1v1v1v1v1")


def test_resolution_underflow_position():
    with pytest.raises(ResolutionUnderflow) as e:
        parse_structure("2^1")
    assert e.value.position == 1


@pytest.mark.parametrize(
    "code,err,pos",
    [
        ("", EmptyInput, None),
        ("1v^", UnexpectedCharacter, 2),
        ("x", UnexpectedCharacter, 0),
        ("0v1", ZeroModuleCount, 0),
        ("1v0", ZeroModuleCount, 2),
        ("1v", DanglingDirection, 1),
        ("100", ModuleCountTooLarge, 0),
        ("1=", UnexpectedCharacter, 1),
        ("1v1=2", UnexpectedCharacter, 4),
        ("1v1 ", UnexpectedCharacter, 3),
    ],
)
def test_parse_errors(code, err, pos):
    with pytest.raises(err) as e:
        parse_structure(code)
    if pos is not None:
        assert e.value.position == pos


def test_format_examples():
    seq = StageSequence((1, 1, 2, 5, 1), (D, D, D, U), terminal_two_branch=True)
    assert format_structure(seq) == "1v1v2v5^1="
    assert format_structure(StageSequence((1,), ())) == "1"


def test_table_encodings_round_trip():
    for code in TABLE_ENCODINGS:
        seq = parse_structure(code)
        assert format_structure(seq) == code
        assert parse_structure(format_structure(seq)) == seq


def test_ascii_and_arrow_spellings_parse_equal():
    assert parse_structure("1v2") == parse_structure("1↘2")


def test_resolution_walk():
    seq = parse_structure("1v1v2v2v2^1^1^1^1")
    assert seq.resolution_walk == (0, 1, 2, 3, 4, 3, 2, 1, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(stages=(), transitions=()),
        dict(stages=(0,), transitions=()),
        dict(stages=(1, 1), transitions=()),
        dict(stages=(1,), transitions=(), terminal_two_branch=True),
        dict(stages=(1, 1), transitions=(U,)),
        dict(stages=(120,), transitions=()),
    ],
)
def test_invalid_construction_rejected(kwargs):
    with pytest.raises(ValueError):
        StageSequence(**kwargs)


@st.composite
def valid_sequences(draw):
    stages = [draw(st.integers(1, 99))]
    transitions = []
    walk = 0
    for _ in range(draw(st.integers(0, 10))):
        moves = [d for d in (D, U) if 0 <= walk + d.step <= 4]
        d = draw(st.sampled_from(moves))
        walk += d.step
        transitions.append(d)
        stages.append(draw(st.integers(1, 99)))
    terminal = len(stages) >= 2 and draw(st.booleans())
    return StageSequence(tuple(stages), tuple(transitions), terminal)


@given(valid_sequences())
def test_round_trip_property(seq):
    assert parse_structure(format_structure(seq)) == seq


@given(st.text(max_size=64))
def test_fuzz_never_crashes(text):
    try:
        seq = parse_structure(text)
    except StructureError:
        return
    assert isinstance(seq, StageSequence)


@given(st.binary(max_size=256))
def test_fuzz_bytes_decoded(blob):
    try:
        parse_structure(blob.decode("latin-1"))
    except StructureError:
        pass
