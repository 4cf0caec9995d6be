"""Deterministic weights, graph execution, persistence, and gradient checks.

Weight initialization draws from a counter-based 64-bit xorshift-multiply
generator (splitmix-style), so a ``(graph, seed)`` pair maps to bit-identical
parameters on every platform — no global RNG state is involved.  Weight
files store each parameter with the tensor entry codec of :mod:`uhrkit.ops`.

One executor, :meth:`_Exec.walk`, runs both the forward pass and the
gradient checker's replay: it walks a shaped
:class:`~uhrkit.graph.LayerGraph` in topological order over plain numpy
arrays.  Each node's arithmetic is one call of a :mod:`uhrkit.ops`
primitive; the walk only picks the buffer each result goes into.  The
reverse sweep, :func:`run_backward`, is the only reverse-mode engine and
mirrors the walk with the matching VJPs, over the executor's parameters.

Gradient verification compares the reverse-mode gradients against central
differences ``(f(t+eps) - f(t-eps)) / (2 eps)`` of the scalar verification
loss (the mean of the output map), in float64.  Three details make this
fast and sound:

* only the nodes downstream of the perturbed parameter are re-executed,
  against cached baseline activations, and all sampled coordinates of one
  parameter ride along the batch axis of a single replay (every primitive
  is independent per batch element);
* loss differences are taken by subtracting the perturbed outputs
  elementwise before reducing, which sidesteps the cancellation that a
  difference of two separately rounded means would suffer;
* the network is piecewise linear in each parameter (a weight appears at
  most once on any path), so a coordinate whose ±eps interval straddles a
  ReLU kink measures the average slope of two linear pieces instead of the
  derivative.  Each replay therefore bounds the kink-induced loss error —
  every unit whose sign differs from the baseline contributes at most its
  overshoot ``|z|`` times the baseline loss sensitivity at that unit — and
  a coordinate is skipped and resampled when the bound could corrupt the
  comparison at the tested tolerance.  Away from kinks the central
  difference is exact up to rounding.  Sampled, compared, and skipped
  counts are reported per parameter.

Parameters are checked in forked workers, two on a host with two or more
cores, each with BLAS limited to one thread so the workers do not
oversubscribe the cores; on one core the same worker runs in the calling
process.  The limit goes through ``threadpoolctl`` when it imports, else
straight to the OpenBLAS bundled in numpy's wheel; with neither, the check
warns and runs on one worker.  The report records the workers, the limiter
and the BLAS thread count it ran with.  One handle, :func:`_blas`, built on
first use and never at import, carries that choice for the checker and the
forward alike.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import struct
import threading
import time
import warnings
import zlib
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .graph import LayerGraph, Node, infer_shapes
from .ops import ChecksumMismatch, FormatError, ShapeMismatch, Tensor

WEIGHTS_MAGIC = b"HRWS"
WEIGHTS_VERSION = 1
_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15


class WeightMissing(KeyError):
    pass


class WeightShapeMismatch(ShapeMismatch):
    """A stored weight's shape differs from the one its node expects."""


class NonFiniteGradient(ArithmeticError):
    pass


class InvalidCheckSettings(ValueError):
    pass


# ---------------------------------------------------------------------------
# seeded initialization


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _fnv1a64(name: str) -> int:
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _normals(seed: int, name: str, count: int) -> np.ndarray:
    """Standard normals from counter-mode uniforms via Box-Muller."""
    base = _U64((seed ^ _fnv1a64(name)) & 0xFFFFFFFFFFFFFFFF)
    pairs = (count + 1) // 2
    with np.errstate(over="ignore"):
        ctr = base + _U64(_GOLDEN) * np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    z = _mix64(ctr)
    u = ((z >> _U64(11)).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
    u1, u2 = u[:pairs], u[pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return out[:count]


@dataclass
class WeightStore:
    """Ordered map from parameter names to arrays, plus its provenance.

    Iteration order follows the graph's topological order: the conv weight
    of node *n* is ``n.w``; a batchnorm contributes ``n.gamma``, ``n.beta``,
    ``n.mean`` and ``n.var``.
    """

    seed: int
    arrays: "OrderedDict[str, np.ndarray]"

    def astype(self, dtype) -> "WeightStore":
        return WeightStore(
            self.seed,
            OrderedDict((k, v.astype(dtype, copy=False)) for k, v in self.arrays.items()),
        )

    def allclose(self, other: "WeightStore") -> bool:
        return (
            self.seed == other.seed
            and list(self.arrays) == list(other.arrays)
            and all(np.array_equal(self.arrays[k], other.arrays[k]) for k in self.arrays)
        )


def param_entries(graph: LayerGraph) -> list[tuple[str, str, str, tuple[int, ...]]]:
    """(name, node_id, kind, shape) for every parameter, in graph order."""
    out = []
    for node in graph.nodes:
        if node.kind == "conv":
            a = node.attrs
            out.append((f"{node.id}.w", node.id, "conv.w", (a["out_ch"], a["in_ch"], a["k"], a["k"])))
        elif node.kind == "bn":
            c = node.attrs["ch"]
            for p in ("gamma", "beta", "mean", "var"):
                out.append((f"{node.id}.{p}", node.id, f"bn.{p}", (c,)))
    return out


def init_weights(graph: LayerGraph, seed: int = 0) -> WeightStore:
    """He-style fan-out-scaled normal conv weights; identity batchnorms.

    Conv std is ``sqrt(2 / (k*k*out_ch))``; batchnorm starts as the identity
    transform (gamma 1, beta 0, running mean 0, running var 1).
    """
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, _node_id, kind, shape in param_entries(graph):
        if kind == "conv.w":
            out_ch, _in_ch, k, _ = shape
            std = np.sqrt(2.0 / (k * k * out_ch))
            count = int(np.prod(shape))
            arrays[name] = (_normals(seed, name, count) * std).astype(np.float32).reshape(shape)
        elif kind in ("bn.gamma", "bn.var"):
            arrays[name] = np.ones(shape, dtype=np.float32)
        else:
            arrays[name] = np.zeros(shape, dtype=np.float32)
    return WeightStore(seed=seed, arrays=arrays)


# ---------------------------------------------------------------------------
# weight persistence: magic "HRWS", u32 version, u64 seed, u32 entry count,
# entries {u16 name_len, name, tensor entry (see ops)}, trailing u32 CRC32
# over the entries region


def save_weights(store: WeightStore, path) -> None:
    if not 0 <= store.seed < 2**64:
        raise ValueError(f"seed {store.seed} does not fit the header's u64")
    body = bytearray()
    for name, arr in store.arrays.items():
        nb = name.encode("utf-8")
        head, payload = ops._encode_entry(arr)
        body += struct.pack("<H", len(nb)) + nb + head
        body += payload.data
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<IQI", WEIGHTS_VERSION, store.seed, len(store.arrays)))
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def load_weights(path) -> WeightStore:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 20:
        raise FormatError("file too short for a weight-store header", len(raw))
    if raw[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}", 0)
    version, seed, count = struct.unpack_from("<IQI", raw, 4)
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    stop = len(raw) - 4
    (crc_stored,) = struct.unpack_from("<I", raw, stop)
    if zlib.crc32(memoryview(raw)[20:stop]) != crc_stored:
        raise ChecksumMismatch("weight payload does not match its checksum")
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    off = 20
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", raw, off)
            name = raw[off + 2 : off + 2 + name_len].decode("utf-8")
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"truncated or corrupt entry name: {exc}", off) from exc
        arrays[name], off = ops._decode_entry(raw, off + 2 + name_len, stop)
    if off != stop:
        raise FormatError("trailing bytes after the last entry", off)
    return WeightStore(seed=seed, arrays=arrays)


# ---------------------------------------------------------------------------
# execution


class _Exec:
    """Per-run caches: dtype-cast parameters, and the walk's plan of fused
    conv+BN pairs and of producers that write straight into their concat's
    output."""

    def __init__(self, graph: LayerGraph, store: WeightStore, dtype):
        self.graph = graph
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {}
        for name, _nid, _kind, shape in param_entries(graph):
            if name not in store.arrays:
                raise WeightMissing(name)
            arr = store.arrays[name]
            if arr.shape != shape:
                raise WeightShapeMismatch(f"weight {name} has shape {arr.shape}, node expects {shape}")
            self.params[name] = arr.astype(self.dtype, copy=False)
        # conv -> its batchnorm when that is the conv's sole consumer; the
        # walk fuses the pair to halve elementwise traffic
        consumers: dict[str, list[Node]] = {}
        for node in graph.nodes:
            for src in node.inputs:
                consumers.setdefault(src, []).append(node)
        self.conv_bn: dict[str, Node] = {}
        # upsample/chpool -> (its concat, channel offset) when that concat is
        # the sole consumer; the walk writes such a producer into its slice
        # of the concat's output instead of copying it there afterwards
        self.placed: dict[str, tuple[Node, int]] = {}
        for node in graph.nodes:
            cons = consumers.get(node.id, [])
            if node.kind == "conv" and len(cons) == 1 and cons[0].kind == "bn":
                self.conv_bn[node.id] = cons[0]
            elif node.kind == "concat" and node.out_shape is not None:
                off = 0
                for src in node.inputs:
                    prod = graph.node(src)
                    if prod.kind in ("upsample", "chpool") and len(consumers[src]) == 1:
                        self.placed[src] = (node, off)
                    off += prod.out_shape[1]

    def bn_params(self, nid: str) -> list[np.ndarray]:
        """Batchnorm ``nid``'s gamma, beta, mean and var, in the order
        :func:`~uhrkit.ops.batchnorm_fwd` takes them."""
        return [self.params[f"{nid}.{p}"] for p in ("gamma", "beta", "mean", "var")]

    def walk(
        self,
        nodes: list[Node],
        acts: dict[str, np.ndarray],
        keep: bool = False,
        base: dict[str, np.ndarray] | None = None,
        kink_ctx: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Execute ``nodes`` in order: the one executor behind both the
        forward pass and the gradient checker's replay.

        ``acts`` starts with the walk's own buffer (the graph input, or the
        perturbed owner lanes) and collects node outputs.  An input missing
        from it is read from the read-only ``base`` activations, broadcast
        along the batch axis.  Unless ``keep`` is set, a conv whose sole
        consumer is a batchnorm runs fused with it, an elementwise node
        overwrites an input buffer it is the last consumer of, and buffers
        are dropped after their last consumer; with ``keep`` every output
        stays in ``acts`` for the reverse sweep.  The graph input and output
        are never overwritten or dropped.

        Also unless ``keep`` is set, an upsample or channel pool whose sole
        consumer is a concat writes its output straight into its channel
        slice of the concat's output (allocated when the first such
        producer runs), and the concat copies in only its other inputs,
        whether they come from ``acts`` or from ``base``.

        Returns the graph output together with a per-lane bound on the loss
        error a finite difference suffers from ReLU state flips: for every
        unit whose sign differs from the baseline in ``kink_ctx``, the
        deviation of ``relu`` from its baseline linearization is at most
        ``|z|``, weighted by the baseline sensitivity of the loss to that
        unit.  Without ``kink_ctx`` the bound is zero.
        """
        fixed = (self.graph.input_id, self.graph.output_id)
        b = next(iter(acts.values())).shape[0]
        remaining: dict[str, int] = {}
        for node in nodes:
            for src in node.inputs:
                remaining[src] = remaining.get(src, 0) + 1

        def fetch(src: str) -> np.ndarray:
            a = acts.get(src)
            if a is None:
                a = base[src]
                if a.shape[0] != b:
                    a = np.broadcast_to(a, (b,) + a.shape[1:])
            return a

        kink_err = np.zeros(b)
        fused: set[str] = set()
        # concat id -> its output, allocated by the first placed producer
        slots: dict[str, np.ndarray] = {}

        def slot(node: Node, like: np.ndarray) -> np.ndarray | None:
            """The producer's slice of its concat's output, or None when it
            is not placed."""
            plan = None if keep else self.placed.get(node.id)
            if plan is None:
                return None
            cat, off = plan
            if cat.id not in slots:
                slots[cat.id] = np.empty((b, *cat.out_shape[1:]), dtype=like.dtype)
            return slots[cat.id][:, off : off + node.out_shape[1]]

        for node in nodes:
            if node.id in fused:
                continue
            ins = [fetch(src) for src in node.inputs]
            src0 = node.inputs[0]
            own0 = not keep and src0 in acts and remaining[src0] == 1 and src0 not in fixed
            reuse = ins[0] if own0 else None  # a buffer an elementwise node may overwrite
            store_as = node.id
            kind = node.kind
            if kind == "conv":
                a = node.attrs
                y = ops.conv2d_fwd(ins[0], self.params[f"{node.id}.w"], a["stride"], a["pad"])
                bn = None if keep else self.conv_bn.get(node.id)
                if bn is not None:
                    y = ops.batchnorm_fwd(y, *self.bn_params(bn.id), out=y)
                    fused.add(bn.id)
                    store_as = bn.id
            elif kind == "bn":
                y = ops.batchnorm_fwd(ins[0], *self.bn_params(node.id), out=reuse)
            elif kind == "relu":
                ctx = kink_ctx.get(node.id) if kink_ctx else None
                if ctx is not None:
                    base_mask, sens = ctx
                    flipped = (ins[0] > 0) != base_mask
                    if flipped.any():
                        kink_err += np.abs(ins[0] * sens * flipped).sum(axis=(1, 2, 3))
                y = ops.relu_fwd(ins[0], out=reuse)
            elif kind == "upsample":
                y = ops.bilinear_up2_fwd(ins[0], out=slot(node, ins[0]))
            elif kind == "chpool":
                y = ops.channel_pool2_fwd(ins[0], node.attrs.get("mode", "avg"), out=slot(node, ins[0]))
            elif kind == "concat":
                y = ops.concat_fwd(ins, out=slots.pop(node.id, None))
            elif kind == "add":
                y = ops.add_fwd(ins[0], ins[1], out=reuse)
            else:
                raise ValueError(f"cannot execute node kind {kind!r}")
            if node.out_shape is not None and y.shape != (b, *node.out_shape[1:]):
                raise ShapeMismatch(f"node {node.id!r} produced {y.shape}, expected {node.out_shape}")
            if not keep:
                for src in node.inputs:
                    if src in acts and src not in fixed:
                        remaining[src] -= 1
                        if remaining[src] == 0:
                            del acts[src]
            acts[store_as] = y
        out = acts.get(self.graph.output_id)
        if out is None:  # the walk does not reach the output; it is constant
            out = base[self.graph.output_id]
            out = np.broadcast_to(out, (b,) + out.shape[1:])
        return out, kink_err


def run_forward(
    graph: LayerGraph,
    store: WeightStore,
    x: np.ndarray,
    keep_activations: bool = False,
) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """Execute the graph in topological order; ``x`` is never modified.
    An unshaped graph is shaped from ``x`` first, so the input and every
    node's output are always checked.

    With ``keep_activations`` every node's output is retained (needed for
    the reverse sweep); otherwise buffers are reused and freed as soon as
    their last consumer has run.

    A forward whose convolutions reach ``LANE_MACS`` multiply-accumulates
    runs on one lane per BLAS thread (see :mod:`uhrkit.ops`), with BLAS held
    at one thread meanwhile; the lanes' threads end with the call.  The BLAS
    thread count is process-wide, so forwards called from several threads
    run one at a time, and BLAS work that other threads do meanwhile runs
    single-threaded.  Smaller forwards, and hosts with more BLAS threads
    than ``ops.GEMM_PARTS`` or no way to set them, run on the calling thread
    at BLAS's own thread count.
    """
    if not graph.shaped:
        graph = infer_shapes(graph, tuple(x.shape))
    want = graph.nodes[0].out_shape
    if tuple(x.shape) != want:
        raise ShapeMismatch(f"input shape {x.shape} does not match the graph's {want}")
    acts = {graph.input_id: x}
    ex = _Exec(graph, store, x.dtype)
    with _ONE_FORWARD:
        blas, _, lanes = _forward_lanes(graph)
        with blas.hold() if lanes else contextlib.nullcontext(), ops._open_lanes(lanes):
            out, _ = ex.walk(graph.nodes[1:], acts, keep=keep_activations)
    return out, (acts if keep_activations else None)


_ONE_FORWARD = threading.Lock()  # a forward may set the process-wide BLAS thread count

# A forward opens lanes only when its graph's convolutions reach this many
# multiply-accumulates: below it, two lanes ran slower than BLAS's own
# threads (see ``_forward_lanes``).
LANE_MACS = 8 * 2**30


def _forward_lanes(graph: LayerGraph) -> tuple[_Blas, int, int]:
    """How the forward of the shaped ``graph`` uses the cores: the BLAS
    handle, the BLAS threads in use now (0 if unreadable) and the lanes it
    opens.  That is one lane per BLAS thread when the convolutions reach
    ``LANE_MACS`` multiply-accumulates and BLAS runs on 1 to
    ``ops.GEMM_PARTS`` threads (the only counts measured), else 0."""
    blas = _blas()
    n = blas.threads()
    return blas, n, (n if 1 <= n <= ops.GEMM_PARTS and _conv_macs(graph) >= LANE_MACS else 0)


def _conv_macs(graph: LayerGraph) -> int:
    """Multiply-accumulates of the shaped ``graph``'s convolutions."""
    return sum(math.prod(n.out_shape) * n.attrs["in_ch"] * n.attrs["k"] ** 2 for n in graph.nodes if n.kind == "conv")


@dataclass(frozen=True)
class _Blas:
    """How this process sets BLAS threads: the limiter's ``name``
    (``threadpoolctl``, ``openblas`` or ``none``), a reader of the threads
    in use now (0 if unreadable), and ``limit(n)``, a context that holds
    BLAS at ``n`` threads and restores the previous count on exit."""

    name: str
    threads: Callable[[], int]
    limit: Callable[[int], contextlib.AbstractContextManager]

    @contextlib.contextmanager
    def hold(self):
        """BLAS at one thread inside; yields the count read there.  Forked
        gradcheck workers would otherwise oversubscribe the cores, and
        holding both of the checker's paths keeps their results
        bit-identical; a forward's lanes each run one GEMM thread."""
        with self.limit(1):
            yield self.threads()


@functools.cache
def _blas() -> _Blas:
    """The process's BLAS handle, built on first use: ``threadpoolctl`` when
    it imports, else the OpenBLAS bundled in numpy's wheel, set through
    ctypes, else none.  Loading the library numpy already loaded by its
    path hands back that same copy, so the count set is numpy's."""
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        pass
    else:
        return _Blas(
            "threadpoolctl",
            lambda: max((m["num_threads"] for m in threadpool_info() if m["user_api"] == "blas"), default=0),
            lambda n: threadpool_limits(limits=n),
        )
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        # numpy >= 2 wheels ship scipy-openblas, older ones openblas, both
        # built with 64-bit integers (the 64_ suffix)
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            put = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return _Blas("openblas", get, functools.partial(_openblas_limit, get, put))
    return _Blas("none", lambda: 0, lambda n: contextlib.nullcontext())


@contextlib.contextmanager
def _openblas_limit(get, put, n: int):
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)


def run_backward(
    graph: LayerGraph,
    store: WeightStore,
    acts: dict[str, np.ndarray],
    out_grad: np.ndarray,
    collect: set[str] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, np.ndarray]]:
    """Reverse sweep over the whole graph.

    Returns per-parameter gradients (keyed like the weight store), the
    gradient w.r.t. the graph input, and the output gradients of the nodes
    named in ``collect`` (the gradient checker uses these as sensitivities).
    """
    ex = _Exec(graph, store, out_grad.dtype)
    grads: dict[str, np.ndarray] = {graph.output_id: out_grad}
    pgrads: dict[str, np.ndarray] = {}
    collected: dict[str, np.ndarray] = {}

    def send(nid: str, g: np.ndarray) -> None:
        if nid in grads:
            grads[nid] = grads[nid] + g
        else:
            grads[nid] = g

    for node in reversed(graph.nodes):
        g = grads.pop(node.id, None)
        if g is None or node.kind == "input":
            continue
        if collect and node.id in collect:
            collected[node.id] = g
        ins = [acts[i] for i in node.inputs]
        # each parameter gradient is stored as a sum from zero, which turns
        # a -0.0 into +0.0
        if node.kind == "conv":
            a = node.attrs
            dx, dw = ops.conv2d_vjp(ins[0], ex.params[f"{node.id}.w"], a["stride"], a["pad"], g)
            send(node.inputs[0], dx)
            pgrads[f"{node.id}.w"] = 0 + dw
        elif node.kind == "bn":
            dx, *dps = ops.batchnorm_vjp(ins[0], *ex.bn_params(node.id), ops.BN_EPS, g)
            send(node.inputs[0], dx)
            for suffix, d in zip(("gamma", "beta", "mean", "var"), dps):
                pgrads[f"{node.id}.{suffix}"] = 0 + d
        elif node.kind == "relu":
            send(node.inputs[0], ops.relu_vjp(ins[0], g))
        elif node.kind == "upsample":
            send(node.inputs[0], ops.bilinear_up2_vjp(ins[0], g))
        elif node.kind == "chpool":
            send(node.inputs[0], ops.channel_pool2_vjp(ins[0], g, node.attrs.get("mode", "avg")))
        elif node.kind == "concat":
            for src, dg_ in zip(node.inputs, ops.concat_vjp(ins, g)):
                send(src, dg_)
        elif node.kind == "add":
            send(node.inputs[0], g)
            send(node.inputs[1], g)
    input_grad = grads.get(graph.input_id)
    if input_grad is None:
        input_grad = np.zeros_like(acts[graph.input_id])
    return pgrads, input_grad, collected


# ---------------------------------------------------------------------------
# gradient verification


WORST_SHOWN = 10  # parameters the text report lists as the worst


@dataclass(frozen=True)
class ParamCheck:
    name: str
    size: int
    sampled: int
    checked: int
    skipped_kinks: int
    max_rel_err: float  # over the finite comparisons
    nonfinite: int  # comparisons whose difference or error was not finite


@dataclass(frozen=True)
class GradCheckReport:
    eps: float
    tolerance: float
    dtype: str
    sample_count: int
    seed: int
    params: tuple[ParamCheck, ...]
    elapsed_seconds: float
    workers: int
    blas_limiter: str  # "threadpoolctl", "openblas" or "none"
    blas_threads: int  # read inside the limited region; 0 if unreadable

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    @property
    def total_nonfinite(self) -> int:
        return sum(p.nonfinite for p in self.params)

    @property
    def passed(self) -> bool:
        return all(p.nonfinite == 0 and p.max_rel_err < self.tolerance for p in self.params)

    @property
    def total_sampled(self) -> int:
        return sum(p.sampled for p in self.params)

    @property
    def total_checked(self) -> int:
        return sum(p.checked for p in self.params)

    @property
    def total_skipped(self) -> int:
        return sum(p.skipped_kinks for p in self.params)

    @property
    def unchecked(self) -> list[str]:
        """Non-empty tensors that compared no coordinate: every interval
        drawn for them straddled a ReLU kink.  They still count as passed."""
        return [p.name for p in self.params if p.size and not p.checked]

    @property
    def fully_sampled(self) -> bool:
        """Every parameter had at least min(sample_count, size) coordinates
        examined.  This holds for every report by construction: the check
        stops sampling a tensor only after examining that many.  It stays
        because ``gradcheck --json`` readers check it."""
        return all(p.sampled >= min(self.sample_count, p.size) for p in self.params)

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "tolerance": self.tolerance,
            "dtype": self.dtype,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "passed": self.passed,
            "max_rel_err": self.max_rel_err,
            "sampled": self.total_sampled,
            "checked": self.total_checked,
            "skipped_kinks": self.total_skipped,
            "nonfinite": self.total_nonfinite,
            "fully_sampled": self.fully_sampled,
            "unchecked": self.unchecked,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "workers": self.workers,
            "blas_limiter": self.blas_limiter,
            "blas_threads": self.blas_threads,
            "params": [
                {
                    "name": p.name,
                    "sampled": p.sampled,
                    "checked": p.checked,
                    "skipped_kinks": p.skipped_kinks,
                    "max_rel_err": p.max_rel_err,
                    "nonfinite": p.nonfinite,
                }
                for p in self.params
            ],
        }

    def to_text(self) -> str:
        worst = sorted(self.params, key=lambda p: (-p.nonfinite, -p.max_rel_err))[:WORST_SHOWN]
        lines = [
            f"gradcheck: {self.total_sampled} coordinates sampled over {len(self.params)} "
            f"parameter tensors, {self.total_checked} compared "
            f"({self.total_skipped} intervals straddled a ReLU kink), eps={self.eps:g}, "
            f"{self.dtype}, {self.elapsed_seconds:.1f}s",
            f"workers {self.workers}, BLAS limiter {self.blas_limiter}, "
            f"BLAS threads {self.blas_threads or 'unknown'}",
        ]
        if self.total_nonfinite:
            lines.append(f"{self.total_nonfinite} comparisons were not finite")
        if self.unchecked:
            lines.append(
                f"{len(self.unchecked)} tensors compared no coordinate: " + ", ".join(self.unchecked)
            )
        lines += [
            f"max relative error {self.max_rel_err:.3e} vs tolerance {self.tolerance:g} -> "
            + ("PASS" if self.passed else "FAIL"),
            "worst parameters:",
        ]
        for p in worst:
            extra = f"  ({p.nonfinite} not finite)" if p.nonfinite else ""
            lines.append(f"  {p.max_rel_err:.3e}  {p.name}{extra}")
        return "\n".join(lines)


def _descendants(graph: LayerGraph, owner: str) -> list[Node]:
    reach = {owner}
    nodes = []
    for node in graph.nodes:
        if node.id == owner:
            continue
        if any(i in reach for i in node.inputs):
            reach.add(node.id)
            nodes.append(node)
    return nodes


def _stacked_patch(
    kind: str,
    node: Node,
    coords: np.ndarray,
    eps: float,
    base_out: np.ndarray,
    x_in: np.ndarray,
    params: dict[str, np.ndarray],
    win: np.ndarray | None,
) -> np.ndarray:
    """Owner-node outputs under ±eps single-coordinate nudges, stacked as a
    batch ``[+eps lanes..., -eps lanes...]``.

    The owner is affine in each of its parameters (batchnorm variance is
    recomputed outright), so no re-convolution is needed: a conv weight
    coordinate contributes ``eps`` times one input-window column to one
    output channel.
    """
    k = len(coords)
    lanes = np.repeat(base_out, 2 * k, axis=0)
    if kind == "conv.w":
        for i, idx in enumerate(coords):
            o, ci, ki, kj = np.unravel_index(int(idx), params[f"{node.id}.w"].shape)
            col = win[0, ci, :, :, ki, kj]
            lanes[i, o] += eps * col
            lanes[k + i, o] -= eps * col
        return lanes
    g = params[f"{node.id}.gamma"]
    beta = params[f"{node.id}.beta"]
    m = params[f"{node.id}.mean"]
    v = params[f"{node.id}.var"]
    for i, idx in enumerate(coords):
        c = int(idx)
        if kind == "bn.var":  # exact recompute of the nudged channel
            lanes[i, c] = g[c] * (x_in[0, c] - m[c]) / np.sqrt(v[c] + eps + ops.BN_EPS) + beta[c]
            lanes[k + i, c] = g[c] * (x_in[0, c] - m[c]) / np.sqrt(v[c] - eps + ops.BN_EPS) + beta[c]
            continue
        # the channel's signed slope in the parameter; negating is exact,
        # so both lanes move by the same magnitude
        if kind == "bn.gamma":
            slope = (x_in[0, c] - m[c]) / np.sqrt(v[c] + ops.BN_EPS)
        elif kind == "bn.beta":
            slope = 1.0
        else:  # bn.mean
            slope = -g[c] / np.sqrt(v[c] + ops.BN_EPS)
        lanes[i, c] += eps * slope
        lanes[k + i, c] -= eps * slope
    return lanes


class _GradCheck:
    """One gradient check: its float64 baseline, built once, and
    :meth:`check`, which checks one parameter tensor against it.  Forked
    workers inherit the object without serialization."""

    def __init__(self, graph, store, x, eps, tolerance, sample_count, seed):
        arr = (x.data if isinstance(x, Tensor) else np.asarray(x)).astype(np.float64)
        if not graph.shaped:
            graph = infer_shapes(graph, tuple(arr.shape))
        store64 = store.astype(np.float64)
        self.graph, self.eps, self.tolerance = graph, eps, tolerance
        self.sample_count, self.seed = sample_count, seed
        self.entries = param_entries(graph)
        self.ex = _Exec(graph, store64, np.float64)
        out, self.acts = run_forward(graph, store64, arr, keep_activations=True)
        out_grad = np.full(out.shape, 1.0 / out.size, dtype=np.float64)
        relu_ids = {n.id for n in graph.nodes if n.kind == "relu"}
        self.pgrads, _, relu_grads = run_backward(graph, store64, self.acts, out_grad, collect=relu_ids)
        for name, g in self.pgrads.items():
            if not np.isfinite(g).all():
                raise NonFiniteGradient(f"analytic gradient of {name} is not finite")
        # Baseline ReLU states and sensitivities let the replay bound the loss
        # error a finite difference suffers when an interval straddles a kink;
        # coordinates whose bound could eat into the pass threshold are skipped.
        self.kink_ctx = {
            nid: (self.acts[graph.node(nid).inputs[0]] > 0, np.abs(g)) for nid, g in relu_grads.items()
        }
        self.descendants: dict[str, list[Node]] = {}

    def check(self, entry: tuple[str, str, str, tuple[int, ...]]) -> ParamCheck:
        name, node_id, kind, shape = entry
        acts, eps = self.acts, self.eps
        node = self.graph.node(node_id)
        size = int(np.prod(shape))
        analytic = np.asarray(self.pgrads.get(name, np.zeros(shape))).reshape(-1)
        rng = np.random.default_rng((self.seed ^ _fnv1a64(name)) & 0xFFFFFFFFFFFFFFFF)
        order = rng.permutation(size)
        want = min(self.sample_count, size)
        sub = self.descendants.get(node_id)
        if sub is None:
            sub = self.descendants[node_id] = _descendants(self.graph, node_id)
        base_out = acts[node_id]
        x_in = acts[node.inputs[0]]
        win = None
        if kind == "conv.w":
            a = node.attrs
            win = ops.conv_windows(x_in, a["k"], a["stride"], a["pad"])
        gap_budget = 0.5 * self.tolerance
        checked = skipped = nonfinite = 0
        pos = 0
        max_rel = 0.0
        # sample at least `want` coordinates; hunt past that for kink-free
        # intervals only up to twice the request, then report what held
        budget = min(2 * want, size)
        while checked < want and pos < budget:
            chunk = order[pos : pos + min(budget - pos, want - checked + 4, 24)]
            pos += len(chunk)
            if kind == "bn.var":  # keep var + eps positive on the minus side
                ok = self.ex.params[f"{node_id}.var"][chunk] - eps + ops.BN_EPS > 0
                skipped += int((~ok).sum())
                chunk = chunk[ok]
                if len(chunk) == 0:
                    continue
            k = len(chunk)
            lanes = _stacked_patch(kind, node, chunk, eps, base_out, x_in, self.ex.params, win)
            out_lanes, kink_err = self.ex.walk(sub, {node_id: lanes}, base=acts, kink_ctx=self.kink_ctx)
            # subtract before reducing: the elementwise deltas are tiny and
            # nearly equal in exponent, so these means are almost exact
            fd = (out_lanes[:k] - out_lanes[k:]).mean(axis=(1, 2, 3)) / (2 * eps)
            # sensitivities already carry the 1/size of the mean loss
            bound = (kink_err[:k] + kink_err[k:]) / (2 * eps)
            for i, idx in enumerate(chunk):
                if checked >= want:
                    break
                a_val = float(analytic[idx])
                fd_val = float(fd[i])
                denom = max(abs(a_val), abs(fd_val), 1e-8)
                rel = abs(a_val - fd_val) / denom
                # max() would drop a NaN, so a non-finite comparison is counted
                # as a failure of its own, never as a kink skip
                if not (math.isfinite(fd_val) and math.isfinite(rel)):
                    nonfinite += 1
                elif bound[i] > gap_budget * denom:
                    skipped += 1
                    continue
                else:
                    max_rel = max(max_rel, rel)
                checked += 1
        return ParamCheck(
            name=name,
            size=size,
            # every coordinate examined was compared or skipped; the look-ahead
            # left over in the last chunk is not counted
            sampled=checked + skipped,
            checked=checked,
            skipped_kinks=skipped,
            max_rel_err=max_rel,
            nonfinite=nonfinite,
        )


_CHECK: list[_GradCheck] = []  # the check in progress, set around the dispatch
_ONE_CHECK = threading.Lock()  # _CHECK holds one check, so checks run one at a time


def _gc_worker(args: tuple[int, int]) -> tuple[int, list[ParamCheck]]:
    """Check every ``stride``-th parameter tensor from ``worker`` on, with
    BLAS held at one thread; returns the thread count read there and the
    results.  The one-worker check runs it in the calling process."""
    worker, stride = args
    (check,) = _CHECK
    with _blas().hold() as threads:
        return threads, [check.check(e) for e in check.entries[worker::stride]]


def gradcheck(
    graph: LayerGraph,
    store: WeightStore,
    x: Tensor | np.ndarray,
    eps: float = 1e-4,
    tolerance: float = 1e-5,
    sample_count: int = 20,
    seed: int = 0,
) -> GradCheckReport:
    """Verify reverse-mode gradients of every parameter tensor.

    For each parameter, at least ``sample_count`` coordinates are drawn by
    seeded sampling (all of them for smaller tensors) and compared against
    central differences of the mean-of-output loss; the relative error
    denominator is ``max(|analytic|, |numeric|, 1e-8)``.  Coordinates whose
    ±eps interval provably straddles a ReLU kink large enough to disturb
    the comparison are reported as skipped, and up to ``2 * sample_count``
    draws are spent looking for clean replacements.  A comparison whose
    finite difference or relative error is not finite fails its tensor.
    The check runs on ``min(2, os.cpu_count())`` forked workers when BLAS
    can be limited to one thread per worker, else on one, with a
    ``RuntimeWarning``; results do not depend on the worker count.

    Raises :class:`InvalidCheckSettings` unless ``eps`` is positive and
    finite, ``tolerance`` non-negative and finite, and ``sample_count`` at
    least 1.  An infinite tolerance would pass any error and skip no kink.
    """
    if not 0 < eps < math.inf:
        raise InvalidCheckSettings(f"eps must be positive and finite, got {eps!r}")
    if not 0 <= tolerance < math.inf:
        raise InvalidCheckSettings(f"tolerance must be non-negative and finite, got {tolerance!r}")
    if sample_count < 1:
        raise InvalidCheckSettings(f"sample count must be at least 1, got {sample_count!r}")
    start = time.monotonic()
    check = _GradCheck(graph, store, x, eps, tolerance, sample_count, seed)
    blas = _blas()
    if blas.name == "none":
        warnings.warn(
            "gradcheck: no BLAS thread limiter (threadpoolctl does not import and numpy "
            "bundles no OpenBLAS), so BLAS keeps its own thread count; checking with 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
    workers = min(2, os.cpu_count() or 1) if blas.name != "none" and hasattr(os, "fork") else 1
    tasks = [(w, workers) for w in range(workers)]
    with _ONE_CHECK:
        _CHECK[:] = [check]
        try:
            if workers == 1:
                parts = [_gc_worker(tasks[0])]
            else:
                import multiprocessing as mp

                with mp.get_context("fork").Pool(workers) as pool:
                    parts = pool.map(_gc_worker, tasks)
        finally:
            _CHECK.clear()
    by_name = {p.name: p for _, part in parts for p in part}
    return GradCheckReport(
        eps=eps,
        tolerance=tolerance,
        dtype="float64",
        sample_count=sample_count,
        seed=seed,
        params=tuple(by_name[name] for name, _, _, _ in check.entries),
        elapsed_seconds=time.monotonic() - start,
        workers=workers,
        blas_limiter=blas.name,
        blas_threads=max(t for t, _ in parts),
    )


def verification_input(shape: tuple[int, int, int, int], seed: int = 0) -> Tensor:
    """Deterministic standard-normal input for verification runs."""
    count = int(np.prod(shape))
    return Tensor(_normals(seed, "verification-input", count).astype(np.float32).reshape(shape))
