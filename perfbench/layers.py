"""Per-layer numbers from the traced run.

Counts are recorded where the work happens, as span attributes: MACs and
computed bytes per conv call (from the array sizes), file bytes per weight
or tensor file, values per weight initialization, nodes per graph build,
checked and sampled coordinates per gradient check, and the BLAS thread
count seen inside each gradcheck worker.
"""

from __future__ import annotations

import os

import machine
import tracer as tracing

KERNEL_CLASSES = ("k3s1", "k3s2", "k1")
# Layers only the gradcheck-micro workload reaches.  BENCHMARK.json leaves
# them out because that workload is not part of it; hand runs print them.
GRADCHECK = {
    "runtime.gradcheck.self_s": "s",
    "runtime.gradcheck.checked_per_sampled": "fraction",
    "runtime.gradcheck.workers": "count",
    "runtime.blas_threads": "count",
    "ops.conv_windows.s": "s",
    "ops.conv2d_vjp.s": "s",
    "ops.batchnorm_vjp.s": "s",
    "ops.relu_vjp.s": "s",
    "ops.bilinear_up2_vjp.s": "s",
    "ops.channel_pool2_vjp.s": "s",
    "runtime.run_backward.self_s": "s",
}
LEVELS = tuple(range(-1, 5))  # -1: the stem's 1/2 map; 0..4: 1/4 .. 1/64
# Layers whose work is set-up: their metrics come from the traced set-up,
# summed over its prepares; every other metric comes from the traced
# requests alone, so cold warm-up passes do not skew the kernel numbers.
SETUP_LAYERS = (
    "runtime.init_weights.",
    "runtime.save_weights.",
    "runtime.load_weights.",
    "ops.write_tensor.",
    "ops.read_tensor.",
)


def install_annotators(tr: tracing.Tracer, uhrkit) -> None:
    resolution_level = uhrkit.graph.resolution_level

    def conv(args, kwargs, y, ctx):
        x, w = args[0], args[1]
        stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
        cout, cin, k, _ = w.shape
        return {
            "kc": f"k{k}" if k == 1 and stride == 1 else f"k{k}s{stride}",
            "lv": resolution_level(y.shape[2], ctx["input_h"]),
            "macs": y.shape[0] * cout * y.shape[2] * y.shape[3] * cin * k * k,
            "bytes": x.nbytes + w.nbytes + y.nbytes,
            "preset": ctx.get("preset"),
        }

    def file_bytes(pos):
        return lambda args, kwargs, result, ctx: {"bytes": os.path.getsize(args[pos])}

    tr.annotators.update(
        {
            "ops.conv2d_fwd": conv,
            "ops.conv_windows": lambda a, k, r, c: {"blas_threads": machine.blas_threads()},
            "runtime.save_weights": file_bytes(1),
            "runtime.load_weights": file_bytes(0),
            "ops.write_tensor": file_bytes(0),
            "ops.read_tensor": file_bytes(0),
            "runtime.init_weights": lambda a, k, r, c: {"values": sum(v.size for v in r.arrays.values())},
            "graph.build_uhrnet": lambda a, k, r, c: {"nodes": len(r.nodes)},
            "graph.build_hrnetv2": lambda a, k, r, c: {"nodes": len(r.nodes)},
            "runtime.gradcheck": lambda a, k, r, c: {"checked": r.total_checked, "sampled": r.total_sampled},
        }
    )


def _attr_sum(spans, name, key) -> float:
    return float(sum(s[6][key] for s in spans if s[1] == name and s[6]))


def per_layer(spans: list[tuple], setup_spans: list[tuple]) -> dict[str, float]:
    """Every per-layer number the traced run yields, from the request spans
    and, for ``SETUP_LAYERS``, the set-up spans.  A layer the workload never
    reaches reads 0."""
    m = _summary(spans)
    m.update((k, v) for k, v in _summary(setup_spans).items() if k.startswith(SETUP_LAYERS))
    m["trace.spans"] = float(len(spans) + len(setup_spans))
    return m


def _summary(spans: list[tuple]) -> dict[str, float]:
    summ = tracing.summarize(spans)
    m: dict[str, float] = {}
    for name, st in summ.items():
        m[f"{name}.s"] = st["s"]
        m[f"{name}.self_s"] = st["self_s"]
        m[f"{name}.calls"] = float(st["calls"])

    groups: dict[str, list[float]] = {}  # prefix -> [s, calls, macs, bytes]
    for _sid, name, start, end, _parent, _pid, a in spans:
        if name != "ops.conv2d_fwd" or not a:  # no attrs when the call raised
            continue
        for key in ("", f".{a['kc']}", f".L{a['lv']}"):
            acc = groups.setdefault("ops.conv2d_fwd" + key, [0.0, 0, 0, 0])
            acc[0] += end - start
            acc[1] += 1
            acc[2] += a["macs"]
            acc[3] += a["bytes"]
    keys = [""] + [f".{k}" for k in KERNEL_CLASSES] + [f".L{lv}" for lv in LEVELS]
    for key in keys:
        s, calls, macs, nbytes = groups.get("ops.conv2d_fwd" + key, [0.0, 0, 0, 0])
        m[f"ops.conv2d_fwd{key}.s"] = s
        m[f"ops.conv2d_fwd{key}.calls"] = float(calls)
        m[f"ops.conv2d_fwd{key}.gmac_per_s"] = macs / s / 1e9 if s else 0.0
        if not key:
            m["ops.conv2d_fwd.bytes_computed"] = float(nbytes)

    for name in ("runtime.save_weights", "runtime.load_weights", "ops.write_tensor", "ops.read_tensor"):
        m[f"{name}.bytes"] = _attr_sum(spans, name, "bytes")
    init_s = m.get("runtime.init_weights.s", 0.0)
    values = _attr_sum(spans, "runtime.init_weights", "values")
    m["runtime.init_weights.values_per_s"] = values / init_s if init_s else 0.0
    m["graph.nodes_built"] = _attr_sum(spans, "graph.build_uhrnet", "nodes") + _attr_sum(
        spans, "graph.build_hrnetv2", "nodes"
    )

    checks = m.get("runtime.gradcheck.calls", 0.0)
    sampled = _attr_sum(spans, "runtime.gradcheck", "sampled")
    m["runtime.gradcheck.checked_per_sampled"] = (
        _attr_sum(spans, "runtime.gradcheck", "checked") / sampled if sampled else 0.0
    )
    # pool.map hands every worker one task; without a pool the check runs
    # in-process with one worker
    tasks = m.get(f"runtime.{tracing.WORKER_ENTRY}.calls", 0.0)
    m["runtime.gradcheck.workers"] = (tasks / checks or 1.0) if checks else 0.0
    inside = [s[6]["blas_threads"] for s in spans if s[1] == "ops.conv_windows" and s[6]]
    m["runtime.blas_threads"] = float(max(inside) if inside else machine.blas_threads())
    return m
