"""Dense NCHW tensor primitives with reverse-mode derivatives.

Everything runs on plain numpy arrays, float32 by default with float64
available for verification work.  Each primitive comes as a forward
function plus an explicit VJP, the plain adjoint of the forward (the
upsampling's multiplies by its interpolation matrices).  The graph
executor, the reverse sweep and the gradient checker's nudges in
:mod:`uhrkit.runtime` call these pairs, so there is exactly one
implementation of every primitive and of its derivative.

The module also holds the one binary codec for a tensor entry,
``{u8 dtype, u8 rank, u64 dims[rank], little-endian payload}``, used by
tensor files here and by weight files in :mod:`uhrkit.runtime`.

Convolutions with a kernel larger than 1x1, or a stride, work through the
output one band of rows at a time, whatever the map size.  ``BAND_BYTES``
(16 MiB) sets a band's rows from one temporary: the shift-GEMM product
over the band and its halo rows, or on the strided path the larger of
the im2col columns and ``stride`` staged input rows per output row.  The
other band temporaries are not budgeted: the shift-GEMM accumulator (about
``1/k**2`` of the product), each lane's staged input rows, which outgrow
the product where input channels exceed ``k*k`` times the output
channels (26 MiB a lane for 256 -> 18 channels at 256x512), and the
strided path's staged rows past ``stride`` per output row (``k - stride``
a band, one for a 3x3 kernel at stride 2).  Full-map
temporaries reached 305 MB at the 1x3x1024x2048 cost input, and
allocating and faulting in those pages cost about a quarter of a forward
pass's wall time.  Every output element is still the same
dot product over input channels, with the kernel offsets added in the
same order, but the band split is part of the output's bytes: OpenBLAS
rounds a GEMM's last columns by the GEMM's width, so a batched GEMM of
another shape may differ in the last bit.  Narrow maps show it in
float32 too: a strided band one column wide is a matrix-vector product,
and at stride 2 maps 2-24 columns wide gave other float32 bytes from
one-row bands than from one band.  The reference presets keep their
bytes only because their narrow maps fit one band.  Each band's input
rows, with the kernel's halo, are staged zero-padded into one band-sized
buffer whose zero border is written once per call: no padded copy of the
whole input exists.  The strided path stages every band, with ``pad=0``
as well, so its im2col always reads one staged band.

Every forward primitive takes an ``out=`` array, and a forward passes one
for every node: an elementwise primitive overwrites its first input once
no other read of it is left (so a batchnorm that alone reads a conv's
output normalizes it in place), and every other output goes into its slot
of the forward's arena (see :func:`~uhrkit.runtime.run_forward`).  A
call's temporaries (``_temp``: the convolution's band buffers, the
upsampling's blocks) are carved from the bytes the executor lends it
(``_lend``), the stretch of the arena that no live output holds during
that node, and allocated only where nothing is lent or they do not fit.
This module owns the arithmetic of every primitive; the executor only
chooses where results and temporaries go.  The upsampling gathers with
``np.take`` and works in place, through blocks of channels whose
temporaries stay cache-sized (``UP2_BLOCK_BYTES``, 2 MiB of output per
block): no full-map upsample temporary exists either.

Lanes.  :func:`~uhrkit.runtime.run_forward` decides whether a forward
opens lanes (see ``uhrkit.runtime.LANE_MACS``).  When it does, it holds
BLAS at one thread and opens one lane per BLAS thread it found, at most
``GEMM_PARTS``: the calling thread plus a thread pool, reached here
through one context variable and joined when the walk ends.  Smaller
forwards, direct calls and the gradient checker's replay have no lanes
and run on the calling thread at BLAS's own thread count: on a 2-vCPU VM
two lanes made 1x3x256x512 about 20% slower than OpenBLAS's two threads.
The forward primitives split their work across the lanes only where the
split keeps every output byte for any lane count:

* batchnorm, ReLU and add by channels, the upsampling by its channel
  blocks: each element's arithmetic does not depend on the split;
* a convolution's GEMM, once the convolution reaches ``SPLIT_MACS``
  whatever its kernel and stride, is cut into ``GEMM_PARTS`` parts inside
  a forward's lanes however many there are.  A 1x1 stride-1 GEMM, and
  each band's GEMM on the strided path, are cut into column parts at
  multiples of ``GEMM_COLUMN_TILE`` (``_cols``), and stay whole where
  there are fewer tiles than parts: a lane multiplies the whole weight
  matrix by its own columns, so it packs only those, where an
  output-channel part packs every column.  The strided path gathers each
  band's columns by input channels first.  A stride-1 kernel larger than
  1x1 is cut into output-channel parts: a lane takes a part and works
  through every band, staging the band into its own buffer and running
  its channels' GEMM, offset sums and copy-out.  The cut depends on the
  shape alone, never on the lane count, because it is not byte-neutral
  in general: with OpenBLAS's SkylakeX kernels a GEMM cut by rows gave
  other float64 bytes where its width is not a multiple of 8, columns cut
  off the 16-column tile gave other bytes, and small pieces take other
  kernels altogether.  The reference presets' outputs (float32 and
  float64 at 1x3x256x512, float32 at 1x3x1024x2048) match the uncut GEMMs
  byte for byte.  An uncut GEMM is one part on the calling thread,
  product buffer and all.

So a forward that opens lanes gives the bytes of one at one BLAS thread,
whatever the lane count; one that opens none rounds as BLAS does at its
thread count (the reference presets at 1x3x256x512 give other bytes at
two BLAS threads than at one).  Inside the lanes, work below the cutoffs
runs on the calling thread alone, since waking a lane costs about 0.1 ms
inside a pass; the cutoffs come from whole passes, split against whole,
and one serves every kernel.  Lanes allocate nothing: the calling
thread takes the shared product, accumulator and columns and each lane's
staging and upsample buffers (``_temp``, ``_per_lane``) and hands out views.
A lane calls only numpy and this module's private helpers, never a
public function.

Conventions:

* convolution is cross-correlation (no kernel flip), padding ``k // 2``,
  summation over the flattened ``(in_ch, kh, kw)`` axis in row-major order;
* bilinear upsampling is corner-aligned with a fixed factor of 2 (chain
  nodes for larger factors); a single-pixel axis upsamples to a constant;
* the derivative of ``relu`` at exactly 0 is defined as 0;
* channel pooling averages pairs of adjacent channels (kernel 2, stride 2);
* batch normalization is inference-only: running statistics are
  parameters, and the epsilon is always ``BN_EPS``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import struct
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np


class ShapeMismatch(ValueError):
    pass


class OddChannelCount(ValueError):
    pass


class FormatError(ValueError):
    """A serialized tensor/weight file is malformed.  ``offset`` is the byte
    position where decoding failed."""

    def __init__(self, message: str, offset: int = 0):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class ChecksumMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# convolution

# Byte budget that sets the rows of a conv band: the shift-GEMM product over
# the band and its halo, or the strided path's im2col columns or staged
# input rows (``stride`` per output row), whichever is larger.  The staging
# of the shift path, and the accumulator, come on top (module docstring).
BAND_BYTES = 16 * 2**20

# Inside a forward's lanes, work below these sizes runs on the calling
# thread alone: a convolution of fewer multiply-accumulates, whatever its
# kernel and stride, an elementwise pass with a smaller output.
SPLIT_MACS = 16 * 2**20
SPLIT_BYTES = 4 * 2**20

# Parts of split work (see ``_split``), whatever the lane count; also the
# most lanes a forward opens.
GEMM_PARTS = 2

# A GEMM cut by columns (``_cols``) is cut at multiples of this many
# columns: OpenBLAS's SkylakeX sgemm and dgemm kernels unroll the
# contiguous axis of a numpy product by 16, so every output element keeps
# the micro-kernel tile it has in the uncut GEMM.
GEMM_COLUMN_TILE = 16

# The forward's lanes, set by ``_open_lanes``: a pool for every lane but the
# calling thread, and the lane count; 0 outside a forward.
_LANES: ContextVar[tuple] = ContextVar("uhrkit_lanes", default=(None, 0))


@contextlib.contextmanager
def _open_lanes(n: int):
    """``n`` lanes for the primitives called inside: the calling thread and
    a pool of ``n - 1`` threads, joined before the block is left; none for
    ``n == 0``, as outside a forward."""
    pool = None
    if n > 1:
        # imported here: it costs 0.6 MiB of resident memory, which processes
        # that never open two lanes (cost queries) need not pay
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(n - 1, thread_name_prefix="uhrkit-lane")
        # start the pool's thread now, before the walk allocates: started
        # at its first job, mid-walk, it raised fwd-1024's peak RSS from
        # 570 to 602 MiB, most likely because its start-up allocations
        # pinned the top of the heap and glibc could not trim below them
        pool.submit(int).result()
    token = _LANES.set((pool, n))
    try:
        yield
    finally:
        _LANES.reset(token)
        if pool is not None:
            pool.shutdown()


def _split(work: int, cutoff: int) -> tuple[int, int]:
    """``(parts, lanes)`` for ``work`` units: from ``cutoff`` up, inside a
    forward's lanes however many there are, the work is cut into
    ``GEMM_PARTS`` parts, dealt to the lanes.  Below the cutoff and
    elsewhere (direct calls, the gradient checker's replay) it stays whole
    on the calling thread."""
    lanes = _LANES.get()[1]
    if work < cutoff or lanes == 0:
        return 1, 1
    return GEMM_PARTS, min(lanes, GEMM_PARTS)


def _deal(jobs: list, lanes: int) -> None:
    """Every job (a callable without arguments) in ``jobs``, dealt
    round-robin to ``lanes`` lanes, at most one per job; the first lane is
    the calling thread.  Returns when every job is done."""
    lanes = min(lanes, len(jobs))
    if lanes <= 1:
        for job in jobs:
            job()
        return
    pool = _LANES.get()[0]
    futures = [pool.submit(_deal, jobs[i::lanes], 1) for i in range(1, lanes)]
    try:
        _deal(jobs[::lanes], 1)
    finally:
        for f in futures:
            f.exception()  # waits, also when the calling thread's share raised
    for f in futures:
        f.result()


def _spans(total: int, parts: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges cutting ``range(total)`` into ``parts`` near-equal
    pieces, none empty."""
    parts = max(1, min(parts, total))
    return [(total * i // parts, total * (i + 1) // parts) for i in range(parts)]


def _band_rows(row_bytes: int, halo: int, rows: int) -> int:
    """Output rows per band: as many as keep ``(band + halo) * row_bytes``
    within ``BAND_BYTES``, at least one and at most ``rows``."""
    return max(1, min(rows, BAND_BYTES // max(row_bytes, 1) - halo))


def _im2col(xp: np.ndarray, k: int, stride: int, wo: int, rows: int, buf: np.ndarray) -> np.ndarray:
    """Columns for the first ``rows`` output rows of a conv over the padded
    input ``xp``, shaped (N, C*k*k, rows*wo), entries ordered (c, ki, kj),
    written into ``buf`` (N, C*k*k, at least rows*wo): each kernel offset's
    strided patch is copied straight into its slot, which is far cheaper
    than a transposed fancy-index gather.
    """
    n, c = xp.shape[:2]
    cols = buf[:, :, : rows * wo].reshape(n, c, k * k, rows, wo)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki * k + kj] = xp[:, :, ki : ki + stride * rows : stride, kj : kj + stride * wo : stride]
    return cols.reshape(n, c * k * k, rows * wo)


# The bytes a primitive's temporaries are carved from, lent by the executor
# for one call (``_lend``), and how many of them are taken; None elsewhere.
_WORK: ContextVar[list | None] = ContextVar("uhrkit_work", default=None)


@contextlib.contextmanager
def _lend(work: np.ndarray):
    """The uint8 array ``work`` as the temporaries of the primitive called
    inside: ``_temp`` carves them from it, from its first 64-byte boundary,
    while it lasts."""
    token = _WORK.set([work[-work.ctypes.data % 64 :], 0])
    try:
        yield
    finally:
        _WORK.reset(token)


def _temp(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised temporary, carved at a 64-byte step from the lent
    bytes when it fits in what is left of them, else allocated."""
    lent = _WORK.get()
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if lent is not None:
        work, used = lent
        start = -(-used // 64) * 64
        if start + nbytes <= len(work):
            lent[1] = start + nbytes
            return work[start : start + nbytes].view(dtype).reshape(shape)
    return np.empty(shape, dtype=dtype)


def _per_lane(lanes: int, shape: tuple[int, ...], dtype) -> list[np.ndarray]:
    """One uninitialised ``shape`` buffer per lane, taken here by the
    calling thread (``_temp``)."""
    return [_temp(shape, dtype) for _ in range(lanes)]


def _band_buffers(x: np.ndarray, rows: int, pad: int, lanes: int) -> list[np.ndarray]:
    """A buffer per lane for ``rows`` padded input rows of ``x``; the border
    columns are zero, the rows are filled by ``_stage``."""
    n, c, _, w = x.shape
    bufs = _per_lane(lanes, (n, c, rows, w + 2 * pad), x.dtype)
    for buf in bufs:
        buf[..., :pad] = 0
        buf[..., pad + w :] = 0
    return bufs


def _stage(x: np.ndarray, buf: np.ndarray, top: int, pad: int) -> np.ndarray:
    """``buf`` filled with rows ``top:top + len`` of ``x`` zero-padded by
    ``pad``: the rows inside ``x`` are copied, the rows above or below it
    zeroed.  The border columns stay as ``_band_buffers`` left them."""
    h, w = x.shape[2], x.shape[3]
    lo = min(max(0, pad - top), buf.shape[2])
    hi = max(lo, min(buf.shape[2], pad - top + h))
    buf[:, :, :lo] = 0
    buf[:, :, hi:] = 0
    buf[:, :, lo:hi, pad : pad + w] = x[:, :, top + lo - pad : top + hi - pad]
    return buf


def _shift_bands(x, wm, xb, prod, acc, y, bands, pad, k) -> None:
    """A stride-1 ``k``x``k`` convolution into ``y``, band by band, for the
    output channels whose weight rows ``wm`` holds in (offset, channel)
    order: each band's padded input rows staged into ``xb``, the GEMM into
    ``prod``, the offset sums in ``acc``, then the copy-out."""
    n, c, _, wd = x.shape
    cj, wp, wo = acc.shape[1], wd + 2 * pad, y.shape[3]
    for r0, rows in bands:
        hb = rows + k - 1
        band = _stage(x, xb[:, :, :hb], r0, pad)
        t = np.matmul(wm, band.reshape(n, c, hb * wp), out=prod[:, :, : hb * wp])
        t = t.reshape(n, k * k, cj, hb * wp)
        # the last row needs only its wo valid columns, which keeps the
        # largest shift inside the product
        m = (rows - 1) * wp + wo
        a = acc[:, :, :m]
        np.add(t[:, 0, :, :m], 0, out=a)  # 0 + t, as from a zeroed sum: -0.0 becomes +0.0
        for i in range(1, k * k):
            shift = (i // k) * wp + i % k
            a += t[:, i, :, shift : shift + m]
        y[:, :, r0 : r0 + rows] = acc[:, :, : rows * wp].reshape(n, cj, rows, wp)[..., :wo]


def _conv_shift_gemm(x: np.ndarray, w: np.ndarray, pad: int, y: np.ndarray, parts: int, lanes: int) -> np.ndarray:
    """Stride-1 convolution into ``y`` without an im2col buffer: per band
    of output rows, one GEMM of all kernel offsets against the band's
    padded input rows (plus the kernel's halo), then the shifted output
    windows are accumulated offset by offset.

    The band's input rows are staged, zero-padded, into one band-sized
    buffer.  The accumulator keeps the padded width ``wp``, so output
    ``(r, j)`` sits at flat position ``r * wp + j`` and offset ``(ki, kj)``
    reads the product at ``+ ki * wp + kj``: every offset is one contiguous
    flat shift, not a strided 2-D window, and the accumulator is a
    ``1/k**2`` share of the product.  The ``wo`` valid columns of each row
    are copied out per band.

    The GEMM is cut into ``parts`` output-channel parts, dealt to
    ``lanes`` lanes (see ``_split``).  A lane works through every band on
    its own: it stages the band into its own buffer and writes only its
    part's slices of the one product buffer, the accumulator and the
    output.  An uncut GEMM is the one-part case, on the calling thread.
    """
    n, c, _, wd = x.shape
    cout, _, k, _ = w.shape
    ho, wp = y.shape[2], wd + 2 * pad
    w3 = w.reshape(cout, c, k * k).transpose(2, 0, 1)  # (offset, out channel, in channel)
    step = _band_rows(n * k * k * cout * wp * x.itemsize, k - 1, ho)
    bands = [(r0, min(step, ho - r0)) for r0 in range(0, ho, step)]
    acc = _temp((n, cout, step * wp), x.dtype)
    xbs = _band_buffers(x, step + k - 1, pad, lanes)
    prod = _temp((n, k * k * cout, (step + k - 1) * wp), x.dtype)
    jobs = [
        functools.partial(_shift_bands, x, np.ascontiguousarray(w3[:, c0:c1]).reshape(-1, c), xbs[i % lanes],
                          prod[:, k * k * c0 : k * k * c1], acc[:, c0:c1], y[:, c0:c1], bands, pad, k)
        for i, (c0, c1) in enumerate(_spans(cout, parts))
    ]  # fmt: skip
    _deal(jobs, lanes)
    return y


def _cols(total: int, parts: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges cutting ``total`` GEMM columns into ``parts``
    near-equal pieces at multiples of ``GEMM_COLUMN_TILE``, the last piece
    taking the remainder; one uncut range when there are fewer whole tiles
    than parts."""
    tiles = total // GEMM_COLUMN_TILE
    if tiles < parts:
        return [(0, total)]
    cuts = [GEMM_COLUMN_TILE * lo for lo, _ in _spans(tiles, parts)] + [total]
    return list(zip(cuts, cuts[1:]))


def _gemm(wm: np.ndarray, cols: np.ndarray, out: np.ndarray, parts: int, lanes: int) -> None:
    """``out = wm @ cols``, its columns cut into ``parts`` (``_cols``) dealt
    to ``lanes`` lanes: each lane reads the whole weight matrix and packs
    only its own columns."""
    cuts = _cols(cols.shape[-1], parts)
    _deal([functools.partial(np.matmul, wm, cols[..., p0:p1], out=out[..., p0:p1]) for p0, p1 in cuts], lanes)


def _gather(x, xb, buf, r0, rows, wo, k, stride, pad) -> np.ndarray:
    """The columns of output rows ``r0:r0 + rows`` for the input channels
    that ``x``, ``xb`` and ``buf`` hold: the band's rows staged into ``xb``,
    then gathered into ``buf``."""
    band = _stage(x, xb[:, :, : stride * (rows - 1) + k], stride * r0, pad)
    return _im2col(band, k, stride, wo, rows, buf)


def conv2d_fwd(
    x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Direct 2-D convolution, cross-correlation convention, no bias.

    ``x`` is (N, C, H, W), ``w`` is (outC, inC, kh, kw) with square kernels.
    Output spatial size is ``(H + 2*pad - k) // stride + 1``.  The result is
    written into ``out`` when given, a C-contiguous array of that shape
    that shares no memory with ``x``; the band temporaries come through
    ``_temp``.
    """
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if kh != kw:
        raise ShapeMismatch(f"only square kernels are supported, got {kh}x{kw}")
    if cin != cin_w:
        raise ShapeMismatch(f"conv input has {cin} channels, weight expects {cin_w}")
    if pad is None:
        pad = kh // 2
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if out is None:
        y = np.empty((n, cout, ho, wo), dtype=x.dtype)
    elif out.shape != (n, cout, ho, wo) or not out.flags.c_contiguous:
        raise ShapeMismatch(f"conv output of shape {(n, cout, ho, wo)} does not fit a given out of shape {out.shape}")
    else:
        y = out
    parts, lanes = _split(n * cout * ho * wo * cin * kh * kw, SPLIT_MACS)
    if stride == 1 and kh > 1:
        return _conv_shift_gemm(x, w, pad, y, parts, lanes)
    wm = w.reshape(cout, -1)
    yf = y.reshape(n, cout, ho * wo)
    if kh == 1 and stride == 1 and not pad:
        # one GEMM over the whole map, cut into column parts when large
        _gemm(wm, x.reshape(n, cin, ho * wo), yf, parts, lanes)
        return y
    ins = _spans(cin, parts)
    # per output row, the columns or (for a 1x1 conv) the staged input rows
    step = _band_rows(n * cin * max(kh * kw * wo, stride * (wd + 2 * pad)) * x.itemsize, 0, ho)
    xb = _band_buffers(x, stride * (step - 1) + kh, pad, 1)[0]
    buf = _temp((n, cin * kh * kw, step * wo), x.dtype)
    kk = kh * kw
    for r0 in range(0, ho, step):
        rows = min(step, ho - r0)
        band, out = (r0, rows, wo, kh, stride, pad), yf[:, :, r0 * wo : (r0 + rows) * wo]
        # each band's columns are gathered by input channels, then
        # multiplied by column parts, both across the lanes
        gather = [functools.partial(_gather, x[:, c0:c1], xb[:, c0:c1], buf[:, kk * c0 : kk * c1], *band) for c0, c1 in ins]
        _deal(gather, lanes)
        _gemm(wm, buf[:, :, : rows * wo], out, parts, lanes)
    return y


def conv2d_vjp(
    x: np.ndarray, w: np.ndarray, stride: int, pad: int | None, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d w.r.t. input and weight.  ``dw`` multiplies ``dy``
    by the input's columns, gathered as the forward gathers them, in one
    band.  At stride 1 with ``pad < k``, ``dx`` is the transposed
    convolution: the forward of ``dy`` with the kernel flipped, its channel
    axes swapped and padding ``k - 1 - pad``.  Strided convs (and
    ``pad >= k``, only in imported graphs) scatter the columns' gradient."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    if pad is None:
        pad = k // 2
    ho, wo = dy.shape[2], dy.shape[3]
    dy_mat = dy.reshape(n, cout, ho * wo)
    if k == 1 and stride == 1 and not pad:
        cols = x.reshape(n, cin, ho * wo)
    else:
        cols = np.empty((n, cin * k * k, ho * wo), dtype=x.dtype)
        _gather(x, _band_buffers(x, stride * (ho - 1) + k, pad, 1)[0], cols, 0, ho, wo, k, stride, pad)
    dw = np.matmul(dy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    del cols  # freed before the input gradient allocates
    if stride == 1 and pad < k:
        return conv2d_fwd(dy, np.flip(w, (2, 3)).transpose(1, 0, 2, 3), 1, k - 1 - pad), dw

    dcols = np.matmul(w.reshape(cout, -1).T, dy_mat).reshape(n, cin, k * k, ho, wo)
    dxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dcols[:, :, ki * k + kj]
    return dxp[:, :, pad : pad + h, pad : pad + wd], dw


# ---------------------------------------------------------------------------
# batch normalization (inference form)

BN_EPS = 1e-5


def _per_channel(v: np.ndarray) -> np.ndarray:
    return v.reshape(1, -1, 1, 1)


def _channelwise(fn, out: np.ndarray, *args) -> np.ndarray:
    """``fn(*args, out=out)``, cut by channels across the lanes when
    ``out`` holds at least ``SPLIT_BYTES``: every array among ``args``
    (maps and ``(1, C, 1, 1)`` per-channel vectors alike) is sliced along
    axis 1 with ``out``."""
    parts, lanes = _split(out.nbytes, SPLIT_BYTES)
    if lanes == 1:
        fn(*args, out=out)
        return out
    jobs = [
        functools.partial(fn, *(a[:, c0:c1] if isinstance(a, np.ndarray) else a for a in args), out=out[:, c0:c1])
        for c0, c1 in _spans(out.shape[1], parts)
    ]
    _deal(jobs, lanes)
    return out


def batchnorm_fwd(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``y = gamma * (x - mean) / sqrt(var + BN_EPS) + beta`` per channel,
    computed as ``x * scale + (beta - mean * scale)`` with
    ``scale = gamma / sqrt(var + BN_EPS)``; written into ``out`` when given."""
    c = x.shape[1]
    for name, p in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if p.shape != (c,):
            raise ShapeMismatch(f"batchnorm {name} has shape {p.shape}, expected ({c},)")
    scale = _per_channel(gamma / np.sqrt(var + BN_EPS))
    shift = _per_channel(beta) - _per_channel(mean) * scale
    if out is None:
        out = np.empty(x.shape, np.result_type(x, scale))
    return _channelwise(_affine, out, x, scale, shift)


def _affine(x, scale, shift, out) -> None:
    np.multiply(x, scale, out=out)
    out += shift


def batchnorm_vjp(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    dy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. x and all four per-channel parameters.

    The running statistics are treated as differentiable inputs too; the
    gradient checker exercises them even though they would never be trained.
    """
    inv = 1.0 / np.sqrt(var + BN_EPS)
    dx = dy * _per_channel(gamma * inv)
    axes = (0, 2, 3)
    s = np.sum(dy, axis=axes)
    sxm = np.sum(dy * (x - _per_channel(mean)), axis=axes)
    return dx, sxm * inv, s, -s * gamma * inv, sxm * gamma * (-0.5) * inv**3


# ---------------------------------------------------------------------------
# relu


def relu_fwd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty(x.shape, np.result_type(x, 0))
    return _channelwise(np.maximum, out, x, 0)


def relu_vjp(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.where(x > 0, dy, 0)


# ---------------------------------------------------------------------------
# corner-aligned bilinear upsampling, factor 2

# Byte budget for one channel block's output share: the block's largest
# temporary, about as large as its output slice, stays cache-sized.
UP2_BLOCK_BYTES = 2 * 2**20


def _lerp_axis(n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs and fractional weights mapping ``2*n_in`` outputs onto
    ``n_in`` inputs with corner alignment."""
    n_out = 2 * n_in
    if n_in == 1:
        z = np.zeros(n_out, dtype=np.intp)
        return z, z, np.zeros(n_out)
    src = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    i0 = np.floor(src).astype(np.intp)
    i0 = np.minimum(i0, n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, src - i0


def bilinear_up2_fwd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``rows = x[iy0] * (1 - wy) + x[iy1] * wy``, then the same step along
    the columns of ``rows``; the sum is written into ``out`` when given.

    Works through blocks of channels whose temporaries stay within
    ``UP2_BLOCK_BYTES``, each block written straight into its slice of the
    output.  The blocks are dealt to the lanes, each lane with its own
    temporaries and an equal share of the budget."""
    n, c, h, w = x.shape
    iy0, iy1, wy = _lerp_axis(h)
    ix0, ix1, wx = _lerp_axis(w)
    wy = wy.astype(x.dtype)[None, None, :, None]
    wx = wx.astype(x.dtype)[None, None, None, :]
    if out is None:
        out = np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype)
    lanes = min(_split(out.nbytes, SPLIT_BYTES)[1], c)
    # the lanes share the budget, so their temporaries add up to one lane's
    step = max(1, UP2_BLOCK_BYTES // lanes // max(n * 4 * h * w * x.itemsize, 1))
    # per lane, the row pass's output and one other temporary, flat
    size = n * min(step, c) * 2 * h * w
    temps = _per_lane(lanes, (3 * size,), x.dtype)
    lerp = (iy0, iy1, 1 - wy, wy, ix0, ix1, 1 - wx, wx)
    jobs = [
        functools.partial(_up2_block, x, out, c0, min(c, c0 + step), temps[i % lanes], *lerp)
        for i, c0 in enumerate(range(0, c, step))
    ]
    _deal(jobs, lanes)
    return out


def _up2_block(x, out, c0, c1, temp, iy0, iy1, vy, wy, ix0, ix1, vx, wx) -> None:
    """Channels ``c0:c1`` of the upsampling, into ``out``, with ``vy = 1 - wy``
    and ``vx = 1 - wx``; ``temp`` holds the block's temporaries."""
    xb = x[:, c0:c1]
    n, s, h, w = xb.shape
    half = n * s * 2 * h * w
    rows = temp[:half].reshape(n, s, 2 * h, w)
    # the indices are in range, and "clip" lets take write into a strided out
    np.take(xb, iy0, axis=2, out=rows, mode="clip")
    rows *= vy
    t = np.take(xb, iy1, axis=2, out=temp[half : 2 * half].reshape(rows.shape), mode="clip")
    t *= wy
    rows += t
    y = np.take(rows, ix0, axis=3, out=out[:, c0:c1], mode="clip")
    y *= vx
    t = np.take(rows, ix1, axis=3, out=temp[half : 3 * half].reshape(n, s, 2 * h, 2 * w), mode="clip")
    t *= wx
    y += t


def _lerp_matrix(n_in: int, dtype) -> np.ndarray:
    """The ``(2*n_in, n_in)`` matrix of the corner-aligned lerp along one
    axis, its weights rounded to ``dtype`` as the forward rounds them."""
    i0, i1, w = _lerp_axis(n_in)
    w = w.astype(dtype)
    a = np.zeros((2 * n_in, n_in), dtype=dtype)
    rows = np.arange(2 * n_in)
    a[rows, i0] = 1 - w
    a[rows, i1] += w
    return a


def bilinear_up2_vjp(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The adjoint of the upsampling: ``A_h.T @ dy @ A_w``, with the
    interpolation matrices of both axes."""
    h, w = x.shape[2], x.shape[3]
    return _lerp_matrix(h, dy.dtype).T @ dy @ _lerp_matrix(w, dy.dtype)


# ---------------------------------------------------------------------------
# channel pooling, kernel 2 stride 2


def channel_pool2_fwd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairs of adjacent channels averaged; written into ``out`` when given."""
    if x.shape[1] % 2:
        raise OddChannelCount(f"channel pooling by 2 needs an even channel count, got {x.shape[1]}")
    y = np.add(x[:, ::2], x[:, 1::2], out=out)
    y /= 2
    return y


def channel_pool2_vjp(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.repeat(dy / 2, 2, axis=1)


# ---------------------------------------------------------------------------
# concat / add


def concat_fwd(xs: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Channel concat, written into ``out`` when given."""
    base = xs[0].shape
    for x in xs[1:]:
        if x.shape[0] != base[0] or x.shape[2:] != base[2:]:
            raise ShapeMismatch("channel concat needs matching N, H, W")
    if out is None:
        return np.concatenate(xs, axis=1)
    if out.shape != (base[0], sum(x.shape[1] for x in xs), *base[2:]):
        raise ShapeMismatch(f"channel concat of {len(xs)} inputs does not fit an output of shape {out.shape}")
    off = 0
    for x in xs:
        out[:, off : off + x.shape[1]] = x
        off += x.shape[1]
    return out


def concat_vjp(xs: list[np.ndarray], dy: np.ndarray) -> list[np.ndarray]:
    splits = np.cumsum([x.shape[1] for x in xs])[:-1]
    return np.split(dy, splits, axis=1)


def add_fwd(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if x.shape != y.shape:
        raise ShapeMismatch(f"add needs matching shapes, got {x.shape} and {y.shape}")
    if out is None:
        out = np.empty(x.shape, np.result_type(x, y))
    return _channelwise(np.add, out, x, y)


# ---------------------------------------------------------------------------
# tensor values and the binary tensor codec


@dataclass
class Tensor:
    """A dense array value, as the tensor-file reader returns it."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype


# One entry is {u8 dtype, u8 rank, u64 dims[rank], little-endian payload}.
# Tensor files hold one after their header; weight files one per named
# parameter.
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def _encode_entry(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The entry header and the payload as a contiguous little-endian array,
    which writes out as its bytes without a ``tobytes`` copy."""
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ValueError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    head = struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape)
    return head, np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def _decode_entry(raw: bytes, off: int, stop: int) -> tuple[np.ndarray, int]:
    """Decode the entry at ``raw[off:stop]``; returns the array (a native
    byte-order copy) and the offset just past its payload.  Errors carry
    the offset into ``raw`` where decoding failed."""
    if stop < off + 2:
        raise FormatError("truncated entry header", off)
    code, rank = struct.unpack_from("<BB", raw, off)
    dtype = _DTYPES.get(code)
    if dtype is None:
        raise FormatError(f"unknown dtype code {code}", off)
    if rank > 8:
        raise FormatError(f"implausible rank {rank}", off + 1)
    off += 2
    if stop < off + 8 * rank:
        raise FormatError("truncated dimension list", stop)
    dims = struct.unpack_from(f"<{rank}Q", raw, off)
    off += 8 * rank
    count = math.prod(dims)
    end = off + count * dtype.itemsize
    if end > stop:
        raise FormatError(f"payload size {stop - off} is too small for shape {dims}", off)
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(dims)
    return data.astype(dtype.newbyteorder("=")), end


# ---------------------------------------------------------------------------
# tensor files: magic "HRTF", u32 version, one entry

TENSOR_MAGIC = b"HRTF"
TENSOR_VERSION = 1


def write_tensor(path, t: Tensor | np.ndarray) -> None:
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    head, payload = _encode_entry(data)
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC + struct.pack("<I", TENSOR_VERSION) + head)
        f.write(payload)


def read_tensor(path) -> Tensor:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise FormatError("file too short for a tensor header", len(raw))
    if raw[:4] != TENSOR_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}", 0)
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != TENSOR_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    data, end = _decode_entry(raw, 8, len(raw))
    if end != len(raw):
        raise FormatError(f"{len(raw) - end} bytes after the payload of shape {data.shape}", end)
    return Tensor(data)
