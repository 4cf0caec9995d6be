"""Command-line interface.

Exit codes are stable across subcommands: 0 success, 2 usage or parse
errors, 3 shape errors, 4 I/O and file-format errors, 5 verification
failure.  Every subcommand accepts ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import analysis, dsl, ops, presets, runtime
from .graph import (
    GraphTooLarge,
    IndivisibleInput,
    InvalidSequence,
    NetworkConfig,
    UnknownPreset,
    WidthOverflow,
    build_uhrnet,
    export_graph,
    infer_shapes,
    stage_level_sets,
)
from .ops import ChecksumMismatch, FormatError, OddChannelCount, ShapeMismatch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SHAPE = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _parse_shape(text: str) -> tuple[int, int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 4 or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise argparse.ArgumentTypeError(f"expected a shape like 1x3x1024x2048, got {text!r}")
    return tuple(int(p) for p in parts)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdigit() or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"expected a seed in [0, 2**64), got {text!r}")
    return int(text)


def _parse_convention(text: str) -> analysis.CostConvention | None:
    """``auto`` or a comma list like ``mac=1,bn=off,relu=off,up=off,head=on,cls=19,unit=gi``.

    ``mac`` is 1 or 2, ``cls`` a class count >= 0 and ``unit`` one of
    ``gi``/``2^30`` or ``g``/``10^9``: the values calibration searches."""
    if text == "auto":
        return None
    kw = {}
    flags = {"on": True, "off": False}
    fields = {"bn": "include_bn", "relu": "include_relu", "up": "include_upsample", "head": "include_head"}
    for item in text.split(","):
        key, _, val = item.partition("=")
        key, val = key.strip(), val.strip().lower()
        try:
            if key == "mac":
                kw["mac_factor"] = {"1": 1, "2": 2}[val]
            elif key in fields:
                kw[fields[key]] = flags[val]
            elif key == "cls":
                if not val.isdigit():
                    raise ValueError(val)
                kw["classifier_classes"] = int(val)
            elif key == "unit":
                kw["unit_divisor"] = {"gi": 2**30, "2^30": 2**30, "g": 10**9, "10^9": 10**9}[val]
            else:
                raise argparse.ArgumentTypeError(f"unknown convention field {key!r}")
        except (KeyError, ValueError):
            raise argparse.ArgumentTypeError(f"convention field {key!r} does not take {val!r}") from None
    return analysis.CostConvention(**kw)


@functools.cache
def _calibrated_convention() -> tuple[analysis.CostConvention, analysis.CalibrationResult]:
    """The convention calibrated on the embedded baselines.  It depends only
    on embedded constants, so it is computed once per process."""
    baselines = []
    for name, target in presets.BASELINE_GFLOPS.items():
        g = infer_shapes(presets.build(name), presets.COST_INPUT_SHAPE)
        baselines.append((g, target))
    result = analysis.calibrate_convention(baselines)
    return result.convention, result


def _graph_from_args(args) -> object:
    if getattr(args, "preset", None):
        return presets.build(args.preset)
    seq = dsl.parse_structure(args.structure)
    cfg = NetworkConfig(
        base_width=args.width,
        blocks_per_branch=args.blocks,
        fusion_kind="FusionA" if args.fusion == "a" else "FusionB",
    )
    return build_uhrnet(seq, cfg, label=args.structure)


def cmd_parse(args) -> int:
    seq = dsl.parse_structure(args.code)
    canonical = dsl.format_structure(seq)
    try:
        levels = [list(s) for s in stage_level_sets(seq)]
    except InvalidSequence as exc:
        levels = None
        note = str(exc)
    else:
        note = None
    if args.json:
        doc = {
            "canonical": canonical,
            "stages": list(seq.stages),
            "transitions": [d.value for d in seq.transitions],
            "terminal_two_branch": seq.terminal_two_branch,
            "resolution_walk": list(seq.resolution_walk),
            "stage_levels": levels,
            "buildable": levels is not None,
            "note": note,
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
        return EXIT_OK
    print(f"canonical: {canonical}")
    print(f"{'stage':>6} {'modules':>8} {'move':>5}  resolutions")
    for i, count in enumerate(seq.stages):
        move = seq.transitions[i - 1].value if i else ""
        res = (
            " ".join(f"1/{4 * 2**l}" for l in levels[i])
            if levels
            else f"walk {seq.resolution_walk[i]}"
        )
        branch = " (two-branch final)" if seq.terminal_two_branch and i == len(seq.stages) - 1 else ""
        print(f"{i + 1:>6} {count:>8} {move:>5}  {res}{branch}")
    if note:
        print(f"note: not buildable as given: {note}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    graph = _graph_from_args(args)
    shaped = infer_shapes(graph, args.input)
    conv = args.convention
    calibration = None
    if conv is None:
        conv, calibration = _calibrated_convention()
    report = analysis.count_flops(shaped, conv)
    if args.json:
        doc = report.to_json_dict()
        if calibration is not None:
            doc["calibration"] = {
                "residuals": {k: round(v, 5) for k, v in calibration.residuals.items()},
                "within_tolerance": calibration.within_tolerance,
            }
        print(json.dumps(doc, indent=1, sort_keys=True))
        return EXIT_OK
    if calibration is not None:
        res = ", ".join(f"{k}: {100 * v:+.2f}%" for k, v in calibration.residuals.items())
        print(f"calibrated convention ({res})")
        if not calibration.within_tolerance:
            print("warning: no convention reproduced the baselines within 5%")
    print(report.to_text())
    return EXIT_OK


def cmd_compare(args) -> int:
    conv = args.convention
    if conv is None:
        conv, _ = _calibrated_convention()
    rep = {}
    for side in ("a", "b"):
        graph = presets.build(getattr(args, side))
        rep[side] = analysis.count_flops(infer_shapes(graph, args.input), conv)
    diff = analysis.compare(rep["a"], rep["b"])
    if args.json:
        print(json.dumps(diff.to_json_dict(), indent=1, sort_keys=True))
    else:
        print(f"{args.a}  vs  {args.b}   (input {'x'.join(map(str, args.input))})")
        print(diff.to_text())
    return EXIT_OK


def cmd_init(args) -> int:
    graph = presets.build(args.preset)
    store = runtime.init_weights(graph, args.seed)
    runtime.save_weights(store, args.out)
    n_params = sum(a.size for a in store.arrays.values())
    if args.json:
        print(
            json.dumps(
                {"preset": args.preset, "seed": args.seed, "entries": len(store.arrays), "values": n_params, "path": args.out}
            )
        )
    else:
        print(f"wrote {len(store.arrays)} tensors ({n_params:,} values) to {args.out}")
    return EXIT_OK


def cmd_forward(args) -> int:
    graph = presets.build(args.preset)
    if args.weights:
        store = runtime.load_weights(args.weights)
    else:
        store = runtime.init_weights(graph, args.seed)
    x = ops.read_tensor(args.input_file).data
    graph = infer_shapes(graph, tuple(x.shape))
    blas, threads, lanes = runtime._forward_lanes(runtime._conv_macs(graph))
    lanes = max(1, lanes)  # the calling thread alone when none open
    arena = runtime._Exec(graph, store, x.dtype).arena * x.shape[0] * x.itemsize  # run_forward's plan
    start = time.perf_counter()
    out, _ = runtime.run_forward(graph, store, x)
    elapsed = time.perf_counter() - start
    ops.write_tensor(args.out_file, out)
    finite = bool(np.isfinite(out).all())
    if not finite:
        sys.stderr.write("warning: the output holds NaN or infinite values\n")
    if args.json:
        doc = {
            "out_shape": list(out.shape),
            "path": args.out_file,
            "dtype": str(out.dtype),
            "elapsed_s": round(elapsed, 3),
            "finite": finite,
            "blas_limiter": blas.name,
            "blas_core": blas.core,
            "blas_threads": threads,
            "lanes": lanes,
            "arena_bytes": arena,
        }
        print(json.dumps(doc))
    else:
        shape = "x".join(map(str, out.shape))
        print(
            f"forward ok: output {shape} {out.dtype} in {elapsed:.2f}s on {lanes} lane{'s' * (lanes > 1)} "
            f"(BLAS limiter {blas.name}, threads {threads or 'unknown'}), arena {arena / 2**20:.1f} MiB -> {args.out_file}"
        )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.micro:
        graph = presets.build_micro()
        shape = presets.MICRO_INPUT_SHAPE
    else:
        graph = presets.build(args.preset)
        shape = (1, 3, 64, 64)
    graph = infer_shapes(graph, shape)
    store = runtime.init_weights(graph, args.seed)
    x = runtime.verification_input(shape, args.seed)
    report = runtime.gradcheck(
        graph, store, x, eps=args.eps, tolerance=args.tol, sample_count=args.samples, seed=args.seed
    )
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1, sort_keys=True))
    else:
        print(report.to_text())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_export(args) -> int:
    graph = presets.build(args.preset)
    shaped = infer_shapes(graph, args.input)
    text = export_graph(shaped)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    if args.json:
        print(json.dumps({"preset": args.preset, "nodes": len(shaped.nodes), "path": args.out}))
    else:
        print(f"exported {len(shaped.nodes)} nodes to {args.out}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser holds no per-call state, so one serves the whole process."""
    p = argparse.ArgumentParser(prog="uhrkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a structure encoding and print its stage table")
    sp.add_argument("code")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("summarize", help="analytic FLOPs/params for a preset or structure")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=presets.names())
    g.add_argument("--structure")
    sp.add_argument("--width", type=_positive_int, default=18, help="base width C for --structure")
    sp.add_argument("--blocks", type=_positive_int, default=2, help="blocks per branch for --structure")
    sp.add_argument("--fusion", choices=("a", "b"), default="b")
    sp.add_argument("--input", type=_parse_shape, default=presets.COST_INPUT_SHAPE)
    sp.add_argument("--convention", type=_parse_convention, default=None, help="'auto' (default) or field list")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_summarize)

    sp = sub.add_parser("compare", help="per-role cost deltas between two presets")
    sp.add_argument("--a", required=True, choices=presets.names())
    sp.add_argument("--b", required=True, choices=presets.names())
    sp.add_argument("--input", type=_parse_shape, default=presets.COST_INPUT_SHAPE)
    sp.add_argument("--convention", type=_parse_convention, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("init", help="write deterministic initial weights")
    sp.add_argument("--preset", required=True, choices=presets.names())
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_init)

    sp = sub.add_parser("forward", help="run a forward pass over a tensor file")
    sp.add_argument("--preset", required=True, choices=presets.names())
    sp.add_argument("--seed", type=_seed, default=0, help="weight seed when --weights is not given")
    sp.add_argument("--weights", help="weight file; defaults to seeded initialization")
    sp.add_argument("--input-file", required=True)
    sp.add_argument("--out-file", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_forward)

    sp = sub.add_parser("gradcheck", help="verify analytic gradients against central differences")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--micro", action="store_true", help="standard micro configuration (C=4, 64x64)")
    g.add_argument("--preset", choices=presets.names())
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--eps", type=float, default=1e-4)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("export", help="write the shaped layer graph as JSON")
    sp.add_argument("--preset", required=True, choices=presets.names())
    sp.add_argument("--input", type=_parse_shape, default=presets.COST_INPUT_SHAPE)
    sp.add_argument("--out", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except dsl.StructureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.position is not None and hasattr(args, "code"):
            sys.stderr.write(f"  {args.code}\n  {' ' * exc.position}^\n")
        return EXIT_USAGE
    except (UnknownPreset, InvalidSequence, WidthOverflow, GraphTooLarge, runtime.InvalidCheckSettings) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except runtime.WeightShapeMismatch as exc:
        sys.stderr.write(f"error: the weight file does not fit the graph: {exc}\n")
        return EXIT_IO
    except (IndivisibleInput, ShapeMismatch, OddChannelCount) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SHAPE
    except (FormatError, ChecksumMismatch, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except runtime.WeightMissing as exc:
        sys.stderr.write(f"error: the weight file has no tensor {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
