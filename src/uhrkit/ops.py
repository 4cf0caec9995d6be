"""Dense NCHW tensor primitives with reverse-mode derivatives.

Everything runs on plain numpy arrays, float32 by default with float64
available for verification work.  Each primitive comes as a forward
function plus an explicit VJP.  The graph executor and the reverse sweep
in :mod:`uhrkit.runtime` call these pairs, so there is exactly one
implementation of every primitive and of its derivative.

The module also holds the one binary codec for a tensor entry,
``{u8 dtype, u8 rank, u64 dims[rank], little-endian payload}``, used by
tensor files here and by weight files in :mod:`uhrkit.runtime`.

Convolutions with a kernel larger than 1x1, or a stride, work through the
output one band of rows at a time, and a band's temporary (the shift-GEMM
product, or the strided path's im2col columns or staged input rows,
whichever is larger) stays within ``BAND_BYTES`` (16 MiB) whatever the
map size.  Full-map temporaries reached 305 MB at the 1x3x1024x2048 cost
input, and allocating and faulting in those pages cost about a quarter
of a forward pass's wall time.  Every output element is still the same dot product over input
channels, with the kernel offsets added in the same order; the GEMMs
only change shape, which for a batch of one left every output bit of
the reference presets unchanged.  That holds only while every band has
more than one output column: a strided band one column wide is a
matrix-vector product, which OpenBLAS rounds unlike a wider GEMM, so a
map of ``wo == 1`` gets other float32 bytes from one band than from
several.  A batched GEMM of another shape may also round differently in
the last bit, so the band split is part of the output's bytes.  Each
band's input rows, with the kernel's halo, are staged zero-padded into
one band-sized buffer whose zero border is written once per call: no
padded copy of the whole input exists (the VJP and ``conv_windows``
still pad the whole input).  The strided path stages every band, with
``pad=0`` as well, so its im2col always reads one staged band.

The shift-GEMM sums a band's kernel offsets in an accumulator laid out
at the padded width, where each offset is one contiguous flat shift of
the product rather than a strided 2-D window; the sum starts from zero
as before, and each band's valid columns are copied out.  The product is
released before the next band's GEMM, so the accumulator (one band of
output rows at the padded width, a ``1/k**2`` share of the product) and
one product stay within two bands' budget.

Every forward primitive but the convolution takes an ``out=`` array.  The
executor picks it: the conv output a fused batchnorm overwrites, an input
buffer it is the last consumer of, or a producer's channel slice of its
concat's output, which saves a second copy.  This module owns the
arithmetic of every primitive; the executor only chooses where results
go.  The upsampling gathers with ``np.take`` and works in place, through
blocks of channels whose temporaries stay cache-sized
(``UP2_BLOCK_BYTES``, 2 MiB of output per block): no full-map upsample
temporary exists either.

Conventions:

* convolution is cross-correlation (no kernel flip), padding ``k // 2``,
  summation over the flattened ``(in_ch, kh, kw)`` axis in row-major order;
* bilinear upsampling is corner-aligned with a fixed factor of 2 (chain
  nodes for larger factors); a single-pixel axis upsamples to a constant;
* the derivative of ``relu`` at exactly 0 is defined as 0;
* batch normalization is inference-only: running statistics are parameters.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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

# Byte budget for the temporary of one band of output rows: the shift-GEMM
# product, or the strided path's im2col columns or staged input rows.
BAND_BYTES = 16 * 2**20


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` zero-padded by ``pad`` on both spatial axes."""
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x


def conv_windows(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Sliding input windows of a conv, shape (N, C, Ho, Wo, k, k).

    Returns a strided view (no copy); also used by the gradient checker to
    form single-column perturbations without a full re-convolution.
    """
    win = sliding_window_view(_pad(x, pad), (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _band_rows(row_bytes: int, halo: int, rows: int) -> int:
    """Output rows per band: as many as keep ``(band + halo) * row_bytes``
    within ``BAND_BYTES``, at least one and at most ``rows``."""
    return max(1, min(rows, BAND_BYTES // max(row_bytes, 1) - halo))


def _im2col(xp: np.ndarray, k: int, stride: int, wo: int, rows: int) -> np.ndarray:
    """Columns for the first ``rows`` output rows of a conv over the padded
    input ``xp``, shaped (N, C*k*k, rows*wo), entries ordered (c, ki, kj).

    1x1 stride-1 convolutions reshape in place; larger kernels copy each
    kernel offset's strided patch straight into its slot of the column
    buffer, which is far cheaper than a transposed fancy-index gather.
    """
    n, c = xp.shape[:2]
    if k == 1 and stride == 1:
        return xp[:, :, :rows].reshape(n, c, rows * xp.shape[3])
    cols = np.empty((n, c, k * k, rows, wo), dtype=xp.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki * k + kj] = xp[:, :, ki : ki + stride * rows : stride, kj : kj + stride * wo : stride]
    return cols.reshape(n, c * k * k, rows * wo)


def _band_buffer(x: np.ndarray, rows: int, pad: int) -> np.ndarray:
    """A buffer for ``rows`` padded input rows of ``x``; its border columns
    are zero, its rows are filled by ``_stage``."""
    n, c, _, w = x.shape
    buf = np.empty((n, c, rows, w + 2 * pad), dtype=x.dtype)
    buf[..., :pad] = 0
    buf[..., pad + w :] = 0
    return buf


def _stage(x: np.ndarray, buf: np.ndarray, top: int, pad: int) -> np.ndarray:
    """``buf`` filled with rows ``top:top + len`` of ``x`` zero-padded by
    ``pad``: the rows inside ``x`` are copied, the rows above or below it
    zeroed.  The border columns stay as ``_band_buffer`` left them."""
    h, w = x.shape[2], x.shape[3]
    lo = min(max(0, pad - top), buf.shape[2])
    hi = max(lo, min(buf.shape[2], pad - top + h))
    buf[:, :, :lo] = 0
    buf[:, :, hi:] = 0
    buf[:, :, lo:hi, pad : pad + w] = x[:, :, top + lo - pad : top + hi - pad]
    return buf


def _conv_shift_gemm(x: np.ndarray, w: np.ndarray, pad: int, ho: int, wo: int) -> np.ndarray:
    """Stride-1 convolution without an im2col buffer: per band of output
    rows, one GEMM of all kernel offsets against the band's padded input
    rows (plus the kernel's halo), then the shifted output windows are
    accumulated offset by offset.

    The band's input rows are staged, zero-padded, into one band-sized
    buffer.  The accumulator keeps the padded width ``wp``, so output
    ``(r, j)`` sits at flat position ``r * wp + j`` and offset ``(ki, kj)``
    reads the product at ``+ ki * wp + kj``: every offset is one contiguous
    flat shift.  The ``wo`` valid columns of each row are copied out per
    band.
    """
    n, c, _, wd = x.shape
    cout, _, kh, kw = w.shape
    wp = wd + 2 * pad
    wm = np.ascontiguousarray(w.reshape(cout, c, kh * kw).transpose(2, 0, 1)).reshape(kh * kw * cout, c)
    y = np.empty((n, cout, ho, wo), dtype=x.dtype)
    step = _band_rows(n * kh * kw * cout * wp * x.itemsize, kh - 1, ho)
    acc = np.empty((n, cout, step * wp), dtype=x.dtype)
    xb = _band_buffer(x, step + kh - 1, pad)
    for r0 in range(0, ho, step):
        rows = min(step, ho - r0)
        band = _stage(x, xb[:, :, : rows + kh - 1], r0, pad).reshape(n, c, (rows + kh - 1) * wp)
        t = (wm @ band).reshape(n, kh * kw, cout, (rows + kh - 1) * wp)
        # the last row needs only its wo valid columns, which keeps the
        # largest shift inside the product
        m = (rows - 1) * wp + wo
        a = acc[:, :, :m]
        np.add(t[:, 0, :, :m], 0, out=a)  # 0 + t, as from a zeroed sum: -0.0 becomes +0.0
        for k in range(1, kh * kw):
            shift = (k // kw) * wp + k % kw
            a += t[:, k, :, shift : shift + m]
        del t
        y[:, :, r0 : r0 + rows] = acc[:, :, : rows * wp].reshape(n, cout, rows, wp)[..., :wo]
    return y


def conv2d_fwd(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int | None = None) -> np.ndarray:
    """Direct 2-D convolution, cross-correlation convention, no bias.

    ``x`` is (N, C, H, W), ``w`` is (outC, inC, kh, kw) with square kernels.
    Output spatial size is ``(H + 2*pad - k) // stride + 1``.
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
    if stride == 1 and kh > 1:
        return _conv_shift_gemm(x, w, pad, ho, wo)
    wm = w.reshape(cout, -1)
    if kh == 1 and stride == 1 and not pad:
        return (wm @ _im2col(x, 1, 1, wo, ho)).reshape(n, cout, ho, wo)
    y = np.empty((n, cout, ho, wo), dtype=x.dtype)
    yf = y.reshape(n, cout, ho * wo)
    # per output row, the columns or (for a 1x1 conv) the staged input rows
    step = _band_rows(n * cin * max(kh * kw * wo, stride * (wd + 2 * pad)) * x.itemsize, 0, ho)
    xb = _band_buffer(x, stride * (step - 1) + kh, pad)
    for r0 in range(0, ho, step):
        rows = min(step, ho - r0)
        band = _stage(x, xb[:, :, : stride * (rows - 1) + kh], stride * r0, pad)
        cols = _im2col(band, kh, stride, wo, rows)
        np.matmul(wm, cols, out=yf[:, :, r0 * wo : (r0 + rows) * wo])
        del cols  # before the next band's columns are gathered
    return y


def conv2d_vjp(
    x: np.ndarray, w: np.ndarray, stride: int, pad: int | None, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d w.r.t. input and weight."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    if pad is None:
        pad = kh // 2
    ho, wo = dy.shape[2], dy.shape[3]
    cols = _im2col(_pad(x, pad), kh, stride, wo, ho)  # (n, cin*k*k, ho*wo)
    dy_mat = dy.reshape(n, cout, ho * wo)

    dw = np.matmul(dy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)

    dcols = np.matmul(w.reshape(cout, -1).T, dy_mat)  # (n, cin*k*k, ho*wo)
    if kh == 1 and stride == 1 and pad == 0:
        return dcols.reshape(x.shape), dw
    dcols = dcols.reshape(n, cin, kh * kw, ho, wo)
    dxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dcols[
                :, :, ki * kw + kj
            ]
    dx = dxp[:, :, pad : pad + h, pad : pad + wd] if pad else dxp
    return dx, dw


# ---------------------------------------------------------------------------
# batch normalization (inference form)

BN_EPS = 1e-5


def _per_channel(v: np.ndarray) -> np.ndarray:
    return v.reshape(1, -1, 1, 1)


def batchnorm_fwd(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = BN_EPS,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``y = gamma * (x - mean) / sqrt(var + eps) + beta`` per channel,
    computed as ``x * scale + (beta - mean * scale)`` with
    ``scale = gamma / sqrt(var + eps)``; written into ``out`` when given."""
    c = x.shape[1]
    for name, p in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if p.shape != (c,):
            raise ShapeMismatch(f"batchnorm {name} has shape {p.shape}, expected ({c},)")
    scale = gamma / np.sqrt(var + eps)
    y = np.multiply(x, _per_channel(scale), out=out)
    y += _per_channel(beta - mean * scale)
    return y


def batchnorm_vjp(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
    dy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. x and all four per-channel parameters.

    The running statistics are treated as differentiable inputs too; the
    gradient checker exercises them even though they would never be trained.
    """
    inv = 1.0 / np.sqrt(var + eps)
    xm = x - _per_channel(mean)
    dx = dy * _per_channel(gamma * inv)
    axes = (0, 2, 3)
    dgamma = np.sum(dy * xm, axis=axes) * inv
    dbeta = np.sum(dy, axis=axes)
    dmean = -np.sum(dy, axis=axes) * gamma * inv
    dvar = np.sum(dy * xm, axis=axes) * gamma * (-0.5) * inv**3
    return dx, dgamma, dbeta, dmean, dvar


# ---------------------------------------------------------------------------
# relu


def relu_fwd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


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
    output."""
    n, c, h, w = x.shape
    iy0, iy1, wy = _lerp_axis(h)
    ix0, ix1, wx = _lerp_axis(w)
    wy = wy.astype(x.dtype)[None, None, :, None]
    wx = wx.astype(x.dtype)[None, None, None, :]
    if out is None:
        out = np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype)
    step = max(1, UP2_BLOCK_BYTES // max(n * 4 * h * w * x.itemsize, 1))
    for c0 in range(0, c, step):
        xb = x[:, c0 : c0 + step]
        # the indices are in range, and "clip" lets take write into a strided out
        rows = np.take(xb, iy0, axis=2, mode="clip")
        rows *= 1 - wy
        t = np.take(xb, iy1, axis=2, mode="clip")
        t *= wy
        rows += t
        del t
        y = np.take(rows, ix0, axis=3, out=out[:, c0 : c0 + step], mode="clip")
        y *= 1 - wx
        t = np.take(rows, ix1, axis=3, mode="clip")
        t *= wx
        y += t
        del rows, t  # before the next block's temporaries
    return out


def _scatter_axis(dy: np.ndarray, i0, i1, w, n_in: int, axis: int) -> np.ndarray:
    """Transpose of gather-lerp along one axis (accumulates duplicates)."""
    wb = w.astype(dy.dtype).reshape([-1 if a == axis else 1 for a in range(dy.ndim)])
    shape = list(dy.shape)
    shape[axis] = n_in
    out = np.zeros(shape, dtype=dy.dtype)
    out_m = np.moveaxis(out, axis, 0)
    np.add.at(out_m, i0, np.moveaxis(dy * (1 - wb), axis, 0))
    np.add.at(out_m, i1, np.moveaxis(dy * wb, axis, 0))
    return out


def bilinear_up2_vjp(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    h, w = x.shape[2], x.shape[3]
    iy0, iy1, wy = _lerp_axis(h)
    ix0, ix1, wx = _lerp_axis(w)
    t = _scatter_axis(dy, ix0, ix1, wx, w, axis=3)
    return _scatter_axis(t, iy0, iy1, wy, h, axis=2)


# ---------------------------------------------------------------------------
# channel pooling, kernel 2 stride 2


def channel_pool2_fwd(x: np.ndarray, mode: str = "avg", out: np.ndarray | None = None) -> np.ndarray:
    """Pairs of adjacent channels averaged or maxed; written into ``out``
    when given."""
    if x.shape[1] % 2:
        raise OddChannelCount(f"channel pooling by 2 needs an even channel count, got {x.shape[1]}")
    a, b = x[:, ::2], x[:, 1::2]
    if mode == "avg":
        y = np.add(a, b, out=out)
        y /= 2
        return y
    if mode == "max":
        return np.maximum(a, b, out=out)
    raise ValueError(f"unknown channel pool mode {mode!r}")


def channel_pool2_vjp(x: np.ndarray, dy: np.ndarray, mode: str = "avg") -> np.ndarray:
    dx = np.empty_like(x)
    if mode == "avg":
        dx[:, ::2] = dy / 2
        dx[:, 1::2] = dy / 2
    else:
        pick = x[:, ::2] >= x[:, 1::2]
        dx[:, ::2] = np.where(pick, dy, 0)
        dx[:, 1::2] = np.where(pick, 0, dy)
    return dx


# ---------------------------------------------------------------------------
# concat / add


def concat_fwd(xs: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Channel concat, written into ``out`` when given.  An input that
    already lies in ``out`` (placed in its channel slice by its producer)
    is not copied again."""
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
        if not np.may_share_memory(x, out):
            out[:, off : off + x.shape[1]] = x
        off += x.shape[1]
    return out


def concat_vjp(xs: list[np.ndarray], dy: np.ndarray) -> list[np.ndarray]:
    splits = np.cumsum([x.shape[1] for x in xs])[:-1]
    return np.split(dy, splits, axis=1)


def add_fwd(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if x.shape != y.shape:
        raise ShapeMismatch(f"add needs matching shapes, got {x.shape} and {y.shape}")
    return np.add(x, y, out=out)


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
