"""Self-test of the sweep request generator.

    python3 -m pytest perfbench/tests -q

from the root of a source checkout.
"""

import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import sweepgen  # noqa: E402
from uhrkit import cli, dsl, graph, presets  # noqa: E402

N = 400
MODES = ("explicit", "auto")


def _take(seed, n=N, mode="explicit"):
    return list(itertools.islice(sweepgen.requests(seed, mode), n))


@pytest.mark.parametrize("mode", MODES)
def test_same_seed_same_requests(mode):
    assert _take(7, mode=mode) == _take(7, mode=mode)
    assert _take(7, mode=mode) != _take(8, mode=mode)


def test_mix_is_fixed_by_the_cycle():
    kinds = [r["kind"] for r in _take(3, 10 * len(sweepgen.CYCLE))]
    assert kinds == list(sweepgen.CYCLE) * 10


def test_sources_match_the_package():
    for name, (code, width, blocks, fusion) in sweepgen.SHIPPED.items():
        p = presets.get(name)
        assert (p.structure, p.width, p.blocks, p.fusion_kind) == (code, width, blocks, "Fusion" + fusion.upper())
    assert set(sweepgen.REFERENCE_PRESETS) == set(presets.REFERENCE_GFLOPS)
    parsed = {cli._parse_convention(c) for c in sweepgen.CONVENTIONS}
    assert len(parsed) == len(sweepgen.CONVENTIONS) == 128
    assert cli._parse_convention(sweepgen.CALIBRATED) == cli._calibrated_convention()[0]


def test_modes_differ_only_in_the_convention():
    def auto(req):
        argv = list(req["argv"])
        if "--convention" in argv:
            argv[argv.index("--convention") + 1] = "auto"
        return {"kind": req["kind"], "argv": argv}

    assert [auto(r) for r in _take(4)] == _take(4, mode="auto")


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_every_structure_obeys_the_rules_and_builds(seed):
    for req in _take(seed):
        argv = req["argv"]
        if req["kind"] != "structure":
            continue
        code = argv[argv.index("--structure") + 1]
        seq = dsl.parse_structure(code)
        assert dsl.format_structure(seq) == code
        walk = seq.resolution_walk
        assert all(0 <= w <= sweepgen.MAX_LEVEL for w in walk)
        two_branch = range(1, len(walk)) if seq.terminal_two_branch else range(1, len(walk) - 1)
        assert all(walk[i] >= 1 for i in two_branch)
        if not seq.terminal_two_branch:
            assert seq.transitions[-1] is dsl.Direction.UP
        blocks = int(argv[argv.index("--blocks") + 1])
        cfg = graph.NetworkConfig(
            base_width=int(argv[argv.index("--width") + 1]),
            blocks_per_branch=blocks,
            small_variant=blocks == 2,
            fusion_kind="FusionA" if argv[argv.index("--fusion") + 1] == "a" else "FusionB",
        )
        graph.infer_shapes(graph.build_uhrnet(seq, cfg), presets.COST_INPUT_SHAPE)


@pytest.mark.parametrize("mode", MODES)
def test_every_request_parses(mode):
    parser = cli._build_parser()
    for req in _take(5, mode=mode):
        argv = req["argv"] + (["--out", "graph.json"] if req["kind"] == "export" else [])
        parser.parse_args(argv)


def test_explicit_requests_run(tmp_path, capsys):
    # one cycle end to end; auto calibration is covered by the benchmark's
    # own warm-up
    for req in _take(9, len(sweepgen.CYCLE)):
        argv = list(req["argv"])
        if req["kind"] == "export":
            argv += ["--out", str(tmp_path / "graph.json")]
        assert cli.main(argv) == 0
    capsys.readouterr()
