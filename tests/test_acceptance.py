"""Acceptance suite: one test per exit criterion, printed as PASS/FAIL lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the line-by-line
report; each criterion is also a separate test so ``pytest -v`` gives the
same verdicts through test outcomes.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from uhrkit import analysis, ops, presets, runtime
from uhrkit.cli import main
from uhrkit.dsl import StructureError, format_structure, parse_structure
from uhrkit.graph import infer_shapes
from uhrkit.ops import Tensor

from conftest import shaped_preset


def report(ok: bool, label: str, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_gflops_reproduction(convention, calibration):
    anchor = presets.REFERENCE_GFLOPS["hrnetv2-w18-small-v2"]
    got = analysis.count_flops(shaped_preset("hrnetv2-w18-small-v2"), convention).gflops
    report(
        abs(got - anchor) / anchor < 0.01,
        "calibration anchor hrnetv2-w18-small-v2 within 1%",
        f"{got:.2f} vs {anchor}",
    )

    timings = []
    for name, target in presets.REFERENCE_GFLOPS.items():
        t0 = time.monotonic()
        graph = infer_shapes(presets.build(name), presets.COST_INPUT_SHAPE)
        got = analysis.count_flops(graph, convention).gflops
        timings.append(time.monotonic() - t0)
        report(
            abs(got - target) / target < 0.03,
            f"{name} GFLOPs within 3%",
            f"{got:.2f} vs {target}",
        )
    report(max(timings) < 1.0, "cost analysis under 1 s per model", f"worst {max(timings):.2f}s")


def test_criterion_structural_invariants():
    five_stream = {
        "uhrnet-w18-small",
        "uhrnet-w18-small-vf",
        "uhrnet-w18-small-vg",
        "uhrnet-w18-small-vh",
        "uhrnet-w48",
    }
    for name, preset in presets.REGISTRY.items():
        g = infer_shapes(presets.build(name), (1, 3, 256, 512))
        meta = g.meta

        if preset.family == "uhrnet":
            levels = meta["stage_levels"]
            ok = all(len(set(a) & set(b)) == 1 for a, b in zip(levels, levels[1:]))
            report(ok, f"{name}: consecutive stages share exactly one stream")

        if name in five_stream:
            wiring = sorted(
                (f["target_stage"], f["source_stage"], f["level"]) for f in meta["fusions"]
            )
            kind = "FusionA" if name.endswith("vh") else "FusionB"
            ok = wiring == [(6, 4, 2), (7, 3, 1), (8, 2, 0)] and all(
                f["kind"] == kind for f in meta["fusions"]
            )
            report(ok, f"{name}: exactly three junctions wired 8<-2, 7<-3, 6<-4", kind)

        expected_head = (
            round(preset.width * 15.5) if name in five_stream else preset.width * 15
        )
        got_head = meta["head"]["in_channels"]
        report(
            got_head == expected_head and g.output_node().out_shape[1] == got_head,
            f"{name}: head channels",
            f"{got_head} = {'15.5' if name in five_stream else '15'}C",
        )

        n, _, h, w = (1, 3, 256, 512)
        report(
            g.output_node().out_shape[2:] == (h // 4, w // 4),
            f"{name}: output resolution is input/4",
        )


def test_criterion_cost_reallocation(convention):
    small = analysis.count_flops(shaped_preset("uhrnet-w18-small"), convention)
    base = analysis.count_flops(shaped_preset("hrnetv2-w18-small-v2"), convention)
    a, b = small.flops_fraction_at_levels(2), base.flops_fraction_at_levels(2)
    report(
        a > b,
        "FLOPs fraction at 1/16-and-below strictly higher than the baseline",
        f"{a:.1%} vs {b:.1%}",
    )


def test_criterion_gradient_verification():
    graph = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = runtime.init_weights(graph, 7)
    x = runtime.verification_input(presets.MICRO_INPUT_SHAPE, 7)
    t0 = time.monotonic()
    rep = runtime.gradcheck(graph, store, x, eps=1e-4, tolerance=1e-5, sample_count=20, seed=7)
    elapsed = time.monotonic() - t0
    report(
        rep.fully_sampled,
        "micro gradcheck sampled >= 20 coordinates per parameter tensor",
        f"{rep.total_sampled} sampled over {len(rep.params)} tensors",
    )
    report(
        rep.passed and rep.max_rel_err < 1e-5,
        "micro gradcheck max relative error < 1e-5 (64-bit, eps 1e-4)",
        f"max {rep.max_rel_err:.2e} over {rep.total_checked} kink-free coordinates "
        f"({rep.total_skipped} intervals straddled a ReLU kink and were excluded)",
    )
    report(elapsed < 60, "micro gradcheck under 60 s", f"{elapsed:.1f}s")
    # the per-tensor counts and the unchecked list are pinned; max_rel_err
    # is rounding noise that moves with the BLAS kernel, so it is not
    golden = json.loads((Path(__file__).parent / "golden" / "gradcheck_micro_seed7.json").read_text())
    counts = {
        p.name: {"sampled": p.sampled, "checked": p.checked, "skipped_kinks": p.skipped_kinks, "nonfinite": p.nonfinite}
        for p in rep.params
    }
    moved = [name for name in counts.keys() | golden["params"].keys() if counts.get(name) != golden["params"].get(name)]
    report(
        list(counts) == list(golden["params"]) and not moved and rep.unchecked == golden["unchecked"],
        "micro gradcheck counts match the golden",
        f"{len(moved)} tensors differ" + (f", e.g. {sorted(moved)[0]}" if moved else ""),
    )


def test_criterion_conv_matches_naive_oracle():
    # verification runs in the engine's 64-bit mode, where any disagreement
    # beyond reordering noise (~1e-13) would mean a real indexing bug
    from test_ops import naive_conv2d

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        x = rng.normal(size=(n, cin, h, w))
        kern = rng.normal(size=(cout, cin, k, k))
        diff = np.max(np.abs(ops.conv2d_fwd(x, kern, stride) - naive_conv2d(x, kern, stride)))
        worst = max(worst, float(diff))
    report(worst < 1e-6, "conv2d matches the quadruple-loop oracle on 100 instances", f"max abs diff {worst:.2e}")


def test_criterion_determinism(tmp_path):
    x = runtime.verification_input((1, 3, 256, 256), 1)
    xfile = tmp_path / "input.hrtf"
    ops.write_tensor(xfile, x)
    outputs = []
    for run in range(2):
        weights = tmp_path / f"w{run}.hrws"
        outfile = tmp_path / f"y{run}.hrtf"
        assert main(["init", "--preset", "uhrnet-w18-small", "--seed", "42", "--out", str(weights)]) == 0
        assert (
            main(
                [
                    "forward", "--preset", "uhrnet-w18-small", "--weights", str(weights),
                    "--input-file", str(xfile), "--out-file", str(outfile),
                ]
            )
            == 0
        )
        outputs.append(outfile.read_bytes())
    report(
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        "init + forward twice with one seed produce byte-identical output files",
        f"{len(outputs[0])} bytes",
    )


def test_criterion_parser():
    table_rows = [
        "1v1v3v2=", "1v1v3v5=", "1v1v3v7=", "1v1v2v5^1=", "1v1v2v5^1^1^1",
        "1v1v4v1v1^1^1^1^1", "1v1v2v1v1^1^2^2^1", "1v1v2v2v2^1^1^1^1",
        "1v1v2v2v2^1^1^1^1",
    ]
    ok = True
    for code in table_rows:
        seq = parse_structure(code)
        ok = ok and format_structure(seq) == code and parse_structure(format_structure(seq)) == seq
    report(ok, "all nine published structure encodings parse and round-trip")

    rng = random.Random(0xF00D)
    alphabet = "0123456789v^=x !↘↗\xff\n"
    crashes = 0
    for trial in range(10_000):
        length = rng.randint(0, 1024) if trial % 50 == 0 else rng.randint(0, 40)
        s = "".join(rng.choice(alphabet) for _ in range(length))
        try:
            parse_structure(s)
        except StructureError:
            pass
        except Exception:
            crashes += 1
    report(crashes == 0, "parser fuzz over 10k random strings (up to 1 KiB) raises only typed errors")


def test_not_reproducible_note():
    print(
        "SKIP: task-level quality metrics (segmentation/depth scores) require full "
        "training runs and are out of scope; the structural, cost, and gradient "
        "suites above stand in for them."
    )
