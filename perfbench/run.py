"""uhrkit benchmark: one command, seeded closed-loop workloads.

    python3 perfbench/run.py --workload fwd-1024 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics with no
tracing.  ``--trace 1`` runs set-up traced, the same loop untraced, then
the first half of its requests (in whole rounds) again traced, and
reports the per-layer metrics with the tracing overhead (those requests
traced minus untraced).  Per-layer metrics come from the traced requests,
except those of the set-up layers (``layers.SETUP_LAYERS``), which come
from the traced set-up.
Human-readable lines (environment block, every metric with its unit) come
first; the last line is one JSON object with the metrics that
BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import machine
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _load_program():
    if not (SRC / "uhrkit" / "__init__.py").is_file():
        sys.exit(f"error: no uhrkit sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import uhrkit
    import uhrkit.cli
    import uhrkit.presets

    if Path(uhrkit.__file__).resolve().parent != SRC / "uhrkit":
        sys.exit(f"error: imported uhrkit from {uhrkit.__file__}, not from {SRC}")
    return uhrkit


def closed_loop(wl, seconds: float, count: int | None = None, speed: list | None = None) -> list:
    """Requests 0, 1, ... back to back until ``seconds`` have passed, at
    least ``wl.min_requests`` were made and the last round is whole, or
    exactly ``count`` requests.  With ``speed``, the host's reference time
    (``wl.reference_time``) is appended to it before each request and once
    after the last."""
    outcomes = []
    start = time.perf_counter()
    i = 0
    while True:
        if speed is not None:
            speed.append(wl.reference_time())
        t = time.perf_counter()
        try:
            out = wl.request(i)
        except Exception:  # a failed request is counted, the loop goes on
            out = workloads.Outcome(time.perf_counter() - t, False, 0.0, traceback.format_exc(limit=3))
        if not out.ok:
            print(f"# request {i} failed: {out.note}", file=sys.stderr)
        outcomes.append(out)
        i += 1
        if count is None:
            done = time.perf_counter() - start >= seconds and len(outcomes) >= wl.min_requests
            if done and len(outcomes) % wl.round == 0:
                break
        elif len(outcomes) == count:
            break
    if speed is not None:
        speed.append(wl.reference_time())
    return outcomes


def setup(wl) -> tuple[float, list[float]]:
    """Median of repeated prepares plus one warm-up."""
    prep = []
    for _ in range(wl.setup_repeats):
        t = time.perf_counter()
        wl.prepare()
        prep.append(time.perf_counter() - t)
    t = time.perf_counter()
    wl.warm_up()
    warm = time.perf_counter() - t
    return statistics.median(prep) + warm, prep + [warm]


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten requests beyond it, if above 50."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None


def end_to_end(wl, outcomes, speed: list[float], setup_s: float, peak_mb: float) -> dict[str, float]:
    lat = [o.seconds for o in outcomes]
    busy = sum(o.seconds for o in outcomes if o.ok)
    name, _unit, div = wl.work_metric
    # each request against the reference times just before and after it
    rel = [t / ((before + after) / 2) for t, before, after in zip(lat, speed, speed[1:])]
    m = {
        "setup_s": setup_s,
        "latency_p50_ref": wl.p50(rel),
        "latency_p50_s": wl.p50(lat),
        "reference_s": statistics.median(speed),
        "peak_rss_mb": peak_mb,
        "failed_frac": sum(not o.ok for o in outcomes) / len(outcomes),
        "requests": float(len(outcomes)),
        name: sum(o.work for o in outcomes if o.ok) / busy / div if busy else 0.0,
    }
    t = tail(lat)
    if t:
        m["latency_tail_pct"], m["latency_tail_s"] = t
    return m


UNITS = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_p50_s": "s",
    "reference_s": "s",
    "latency_tail_s": "s",
    "latency_tail_pct": "%",
    "peak_rss_mb": "MiB",
    "failed_frac": "fraction",
    "requests": "count",
}


def main(argv=None) -> int:
    uhrkit = _load_program()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    # the runtime's default worker rule: gradcheck(workers=None)
    env = machine.environment(gradcheck_workers=min(2, os.cpu_count() or 1))
    print("# env " + json.dumps(env, sort_keys=True))

    out_dir = ROOT / ".perfbench"
    tmp = out_dir / f"run-{os.getpid()}"
    spool = tmp / "spool"
    spool.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](uhrkit, args.seed, tmp)
        tr = Tracer(spool)
        tr.context = wl.context
        layers.install_annotators(tr, uhrkit)
        if args.trace:
            tr.install(uhrkit)
        try:
            setup_s, setup_samples = setup(wl)
        finally:
            tr.uninstall()
            tr.collect_spool()
        setup_spans, tr.spans = tr.spans, []
        speed: list[float] = []
        outcomes = closed_loop(wl, args.seconds, speed=speed)
        traced = []
        if args.trace:
            # the first half of the same requests again, in whole rounds, traced
            rounds = -(-len(outcomes) // (2 * wl.round))
            tr.install(uhrkit)
            try:
                traced = closed_loop(wl, args.seconds, rounds * wl.round)
            finally:
                tr.uninstall()
                tr.collect_spool()
        peak = machine.peak_rss_mb()
        problem = wl.final_check()
        if problem:
            print(f"# final check failed: {problem}", file=sys.stderr)
        elif wl.check_detail:
            print(f"# final check: {wl.check_detail}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    e2e = end_to_end(wl, outcomes, speed, setup_s, peak)
    units = dict(UNITS, **{wl.work_metric[0]: wl.work_metric[1]})
    print(f"# workload {wl.name} seed {args.seed}: closed loop, 1 client, {len(outcomes)} untraced requests")
    print(f"# set-up samples (prepare x{wl.setup_repeats}, warm-up) " + " ".join(f"{s:.4f}" for s in setup_samples))
    for name, value in e2e.items():
        print(f"{name:<28}{value:>16.6g} {units[name]}")
    metrics = e2e
    if args.trace:
        metrics = layers.per_layer(tr.spans, setup_spans)
        base = sum(o.seconds for o in outcomes[: len(traced)])
        more = sum(o.seconds for o in traced) - base
        metrics["trace.overhead_s"] = more / len(traced)
        metrics["trace.overhead_frac"] = more / base
        if hasattr(wl, "claim"):
            metrics.update(wl.claim([s for s in tr.spans if s[1] == "ops.conv2d_fwd"]))
        trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        tr.spans[:0] = setup_spans
        tr.write(trace_path, {"workload": wl.name, "seed": args.seed, "env": env, "metrics": metrics})
        print(f"# trace: {len(tr.spans)} spans ({len(setup_spans)} in set-up) -> {trace_path.relative_to(ROOT)}")
        print("# spans from forked gradcheck workers are spooled to files and merged")
        unit_of = {m["name"]: m["unit"] for m in listed}
        if wl.name == "gradcheck-micro":
            unit_of.update(layers.GRADCHECK)
        for name, unit in unit_of.items():
            print(f"{name:<44}{metrics.get(name, 0.0):>16.6g} {unit}")

    failed = sum(not o.ok for o in outcomes + traced)
    result = {
        "correct": failed == 0 and problem is None,
        "attempted": len(outcomes + traced),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
