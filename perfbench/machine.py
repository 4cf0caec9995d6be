"""The environment block printed with every result, and the host's speed.

The environment block records what the numbers depend on: cores, numpy and
OpenBLAS, the BLAS thread count, whether ``threadpoolctl`` imports (without
it the gradient checker's BLAS thread limit silently does nothing), the
gradcheck worker count and the load average when the run started.

``reference_s`` and ``reference_numpy_s`` time a fixed piece of work that no
program code takes part in, pure Python like a cost query's or numpy like a
forward pass's.  On a shared host the speed a process gets drifts with its
neighbours' load: the same query took 69 ms or 106 ms within a minute, and
a pure-Python loop drifted by about the same factor at the same moments.
Timed between the requests, the reference tracks that drift, and a
request's time divided by the reference's largely does not.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import random
import resource
import time
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """Thread-count getter of the OpenBLAS bundled in numpy's wheel, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        fn = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn
    return None


def blas_threads() -> int:
    """Threads numpy's OpenBLAS would use now in this process; 0 if unknown."""
    get = _openblas()
    return get() if get is not None else 0


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(gradcheck_workers: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads": blas_threads(),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "gradcheck_workers": gradcheck_workers,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (forked gradcheck workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class _Node:
    __slots__ = ("c", "h", "w", "k", "role")

    def __init__(self, c: int, h: int, w: int, k: int, role: int):
        self.c, self.h, self.w, self.k, self.role = c, h, w, k, role


@functools.cache
def _nodes() -> tuple[list[_Node], dict[int, int]]:
    rng = random.Random(0)
    nodes = [
        _Node(rng.choice((18, 36, 72, 144)), 256 >> rng.randrange(5), 512 >> rng.randrange(5), rng.choice((1, 3)), rng.randrange(4))
        for _ in range(8000)
    ]
    rng.shuffle(nodes)  # scattered in memory, as a graph's nodes are
    return nodes, dict.fromkeys(range(1024), 0)


def reference_s() -> float:
    """Seconds the host takes now for a fixed piece of pure-Python work
    like a cost query's, 1 to 2 ms: a pass over 8000 node-like objects
    multiplying their fields, then int-to-str conversions and dict reads and
    writes.  It creates no object the cyclic garbage collector tracks, so
    its time does not depend on what the requests before it left alive."""
    nodes, table = _nodes()
    total = 0
    start = time.perf_counter()
    for node in nodes:
        if node.role != 3:
            total += node.c * node.h * node.w * node.k * node.k
    for i in range(1500):
        k = i & 1023
        table[k] = len(str(i + total)) + table[(k * 7) & 1023]
        total = (total + table[k]) & 0xFFFF
    return time.perf_counter() - start


@functools.cache
def _arrays():
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((1024, 576), dtype=np.float32),
        rng.standard_normal((576, 4096), dtype=np.float32),
        rng.standard_normal(8_000_000, dtype=np.float32),
    )


def reference_numpy_s() -> float:
    """Seconds the host takes now for fixed numpy work shaped like a conv
    layer at the cost input: one float32 GEMM (1024x576 by 576x4096, as a
    3x3 conv of 64 channels over 4096 pixels) and a scale-shift-relu over a
    32 MB map, ~55 ms."""
    a, b, x = _arrays()
    start = time.perf_counter()
    a @ b
    np.maximum(x * 0.5 + 1.0, 0.0)
    return time.perf_counter() - start
