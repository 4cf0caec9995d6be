import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uhrkit import ops
from uhrkit.ops import (
    OddChannelCount,
    ShapeMismatch,
    Tensor,
    add_fwd,
    batchnorm_fwd,
    batchnorm_vjp,
    bilinear_up2_fwd,
    bilinear_up2_vjp,
    channel_pool2_fwd,
    channel_pool2_vjp,
    concat_fwd,
    concat_vjp,
    conv2d_fwd,
    conv2d_vjp,
    relu_fwd,
    relu_vjp,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# convolution


def naive_conv2d(x, w, stride=1, pad=None):
    """Quadruple-loop reference convolution, independent of the fast path."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    if pad is None:
        pad = kh // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += x.dtype.type(
                                    xp[b, c, i * stride + ki, j * stride + kj] * w[o, c, ki, kj]
                                )
                    y[b, o, i, j] = acc
    return y


def test_conv_identity_kernel():
    x = _rng().normal(size=(1, 1, 5, 5)).astype(np.float32)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    assert np.allclose(conv2d_fwd(x, w), x)


def test_conv_all_ones_counts_window():
    x = np.ones((1, 1, 4, 4), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    y = conv2d_fwd(x, w)[0, 0]
    assert y[0, 0] == 4 and y[0, 3] == 4 and y[3, 0] == 4 and y[3, 3] == 4
    assert y[0, 1] == 6 and y[1, 0] == 6 and y[2, 3] == 6
    assert (y[1:3, 1:3] == 9).all()


def test_conv_1x1_scales():
    x = _rng(1).normal(size=(2, 3, 4, 4)).astype(np.float32)
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 2.0
    assert np.allclose(conv2d_fwd(x, w), 2 * x)


def test_conv_matches_naive_oracle():
    rng = _rng(42)
    for trial in range(20):
        n, cin, cout = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
        h = int(rng.integers(3, 9))
        wd = int(rng.integers(3, 9))
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        x = rng.normal(size=(n, cin, h, wd))
        w = rng.normal(size=(cout, cin, k, k))
        got = ops.conv2d_fwd(x, w, stride)
        want = naive_conv2d(x, w, stride)
        assert np.max(np.abs(got - want)) < 1e-12

    # Budgets of two output rows per band, so 7 output rows split 2+2+2+1
    # (one row per band for 1x1 stride 2, whose staged input rows are larger).
    for n, k, stride in [(1, 3, 1), (1, 3, 2), (1, 1, 2), (1, 1, 1), (2, 3, 1), (2, 3, 2)]:
        cin, cout, wd = 3, 4, 6
        h = 7 * stride
        x = rng.normal(size=(n, cin, h, wd))
        w = rng.normal(size=(cout, cin, k, k))
        for dtype in (np.float64, np.float32):
            xd, wdt = x.astype(dtype), w.astype(dtype)
            if stride == 1 and k > 1:  # shift-GEMM: products over band + halo rows
                budget = n * k * k * cout * (wd + k - 1) * (2 + k - 1) * xd.itemsize
            else:  # im2col columns of the band's output rows
                budget = n * cin * k * k * ((wd - 1) // stride + 1) * 2 * xd.itemsize
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ops, "BAND_BYTES", budget)
                banded = ops.conv2d_fwd(xd, wdt, stride)
                mp.setattr(ops, "BAND_BYTES", 2**62)
                one_band = ops.conv2d_fwd(xd, wdt, stride)
            assert banded.shape == (n, cout, 7, (wd - 1) // stride + 1)
            if dtype is np.float64:
                assert np.max(np.abs(banded - naive_conv2d(xd, wdt, stride))) < 1e-12
            else:
                assert banded.tobytes() == one_band.tobytes()


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_temporaries_stay_within_band_budget(stride):
    x = _rng(5).normal(size=(1, 64, 256, 512)).astype(np.float32)
    w = _rng(6).normal(size=(64, 64, 3, 3)).astype(np.float32)
    out = 64 * (256 // stride) * (512 // stride) * x.itemsize
    tracemalloc.start()
    try:
        y = ops.conv2d_fwd(x, w, stride)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (1, 64, 256 // stride, 512 // stride)
    # no padded copy of the input: only bands of it are staged
    assert peak <= out + 2 * ops.BAND_BYTES


def test_strided_1x1_conv_stages_within_band_budget():
    # a 1x1 stride-2 band stages twice as many input rows as it has output
    # rows, at twice the width: the staged rows, not the columns, set the band
    x = _rng(5).normal(size=(1, 64, 256, 512)).astype(np.float32)
    w = _rng(6).normal(size=(64, 64, 1, 1)).astype(np.float32)
    out = 64 * 128 * 256 * x.itemsize
    tracemalloc.start()
    try:
        y = ops.conv2d_fwd(x, w, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (1, 64, 128, 256)
    assert peak <= out + 2 * ops.BAND_BYTES


def _shift_oracle(x, w):
    """Stride-1 'same' conv the pre-flat-shift way: one full-map GEMM of all
    kernel offsets, then each offset's window added into a zeroed output in
    row-major offset order."""
    n, c, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
    wm = np.ascontiguousarray(w.reshape(cout, c, k * k).transpose(2, 0, 1)).reshape(k * k * cout, c)
    t = (wm @ xp.reshape(n, c, -1)).reshape(n, k * k, cout, *xp.shape[2:])
    y = np.zeros((n, cout, h, wd), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            y += t[:, ki * k + kj, :, ki : ki + h, kj : kj + wd]
    return y


@pytest.mark.parametrize("n", [1, 2])
def test_conv_flat_shift_is_bit_identical_to_window_adds(n):
    rng = _rng(11)
    cin, cout, h, wd = 3, 4, 7, 6
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=(n, cin, h, wd)).astype(dtype)
        w = rng.normal(size=(cout, cin, 3, 3)).astype(dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "BAND_BYTES", 2**62)
            one_band = ops.conv2d_fwd(x, w)
            # the offset sum starts from zero: a zero input gives +0.0 throughout
            zeros = ops.conv2d_fwd(np.zeros_like(x), -np.abs(w))
            mp.setattr(ops, "BAND_BYTES", n * 9 * cout * (wd + 2) * 3 * x.itemsize)  # one row per band
            banded = ops.conv2d_fwd(x, w)
        assert one_band.tobytes() == _shift_oracle(x, w).tobytes()
        assert not np.signbit(zeros).any()
        if dtype is np.float32:
            assert banded.tobytes() == one_band.tobytes()
        else:
            assert np.max(np.abs(banded - naive_conv2d(x, w))) < 1e-12


def _padded_one_band(x, w, stride):
    """The conv as one band over an ``np.pad``-ed copy of the whole input:
    the shift-GEMM oracle for stride 1, one im2col GEMM for stride 2."""
    if stride == 1:
        return _shift_oracle(x, w)
    n, c = x.shape[:2]
    cout, _, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ho = (xp.shape[2] - k) // stride + 1
    wo = (xp.shape[3] - k) // stride + 1
    cols = np.empty((n, c, k * k, ho, wo), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki * k + kj] = xp[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride]
    y = w.reshape(cout, -1) @ cols.reshape(n, c * k * k, ho * wo)
    return y.reshape(n, cout, ho, wo)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rows_per_band", [1, 2])
def test_staged_padding_at_the_map_edges(n, stride, rows_per_band):
    """Maps down to 1x1, where one staged band holds both the top and the
    bottom zero rows, and band budgets of one or two output rows."""
    rng = _rng(21)
    cin, cout, k = 3, 4, 3
    for h, wd in [(1, 1), (2, 3), (3, 2), (1, 5), (4, 1), (5, 4), (7, 6)]:
        ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
        for dtype in (np.float32, np.float64):
            x = rng.normal(size=(n, cin, h, wd)).astype(dtype)
            w = rng.normal(size=(cout, cin, k, k)).astype(dtype)
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            if stride == 1:  # shift-GEMM products over band + halo rows
                budget = n * k * k * cout * (wd + k - 1) * (rows_per_band + k - 1) * x.itemsize
            else:  # im2col columns of the band's output rows
                budget = n * cin * k * k * wo * rows_per_band * x.itemsize
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ops, "BAND_BYTES", budget)
                got = ops.conv2d_fwd(x, w, stride)
                # the same bands over a whole padded copy
                prepadded = ops.conv2d_fwd(xp, w, stride, 0)
                mp.setattr(ops, "BAND_BYTES", 2**62)
                one_band = ops.conv2d_fwd(x, w, stride)
            assert got.shape == (n, cout, ho, wo)
            if dtype is np.float32:
                # a band of one output column is a matrix-vector product,
                # which may round unlike a wider GEMM: compare like bands
                assert got.tobytes() == prepadded.tobytes()
                assert one_band.tobytes() == _padded_one_band(x, w, stride).tobytes()
            else:
                assert np.max(np.abs(got - naive_conv2d(x, w, stride))) < 1e-12


def test_forward_conv_never_pads_the_whole_input(monkeypatch):
    x = _rng(22).normal(size=(2, 3, 6, 5))
    cases = [(s, _rng(23).normal(size=(4, 3, k, k))) for k, s in [(3, 1), (3, 2), (1, 1), (1, 2)]]
    want = [naive_conv2d(x, w, s) for s, w in cases]

    def no_pad(*args, **kwargs):
        raise AssertionError("np.pad called by the conv or its VJP")

    monkeypatch.setattr(np, "pad", no_pad)
    for (s, w), y in zip(cases, want):
        assert np.max(np.abs(ops.conv2d_fwd(x, w, s) - y)) < 1e-12
        dy = _rng(24).normal(size=y.shape)
        dx, dw = ops.conv2d_vjp(x, w, s, None, dy)
        assert abs(np.sum(x * dx) - np.sum(y * dy)) < 1e-12 * np.sum(np.abs(y * dy))
        assert abs(np.sum(w * dw) - np.sum(y * dy)) < 1e-12 * np.sum(np.abs(y * dy))


def test_conv_shape_mismatch():
    x = np.zeros((1, 3, 4, 4), dtype=np.float32)
    w = np.zeros((2, 4, 3, 3), dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        conv2d_fwd(x, w)


def test_conv_stride2_output_size():
    x = np.zeros((1, 2, 8, 8), dtype=np.float32)
    w = np.zeros((5, 2, 3, 3), dtype=np.float32)
    assert conv2d_fwd(x, w, stride=2).shape == (1, 5, 4, 4)


@pytest.mark.parametrize("k, stride", [(1, 1), (3, 1), (1, 2), (3, 2)])
def test_conv_empty_batch(k, stride):
    x = np.zeros((0, 2, 8, 8), dtype=np.float32)
    w = np.zeros((5, 2, k, k), dtype=np.float32)
    assert conv2d_fwd(x, w, stride).shape == (0, 5, 8 // stride, 8 // stride)


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_identity():
    x = _rng(2).normal(size=(1, 3, 4, 4))
    ones, zeros = np.ones(3), np.zeros(3)
    y = batchnorm_fwd(x, ones, zeros, zeros, ones - ops.BN_EPS)  # var + BN_EPS = 1
    assert np.allclose(y, x, atol=1e-9)


def test_batchnorm_constant_input_gives_beta():
    x = np.full((1, 2, 3, 3), 7.0)
    mean = np.full(2, 7.0)
    beta = np.array([0.5, -1.0])
    y = batchnorm_fwd(x, np.ones(2), beta, mean, np.ones(2))
    assert np.allclose(y[0, 0], 0.5) and np.allclose(y[0, 1], -1.0)


def test_batchnorm_direct_substitution():
    # gamma 2, beta 1, mean 0, var + BN_EPS 4, x 4 -> 2*4/sqrt(4) + 1 = 5
    x = np.full((1, 1, 1, 1), 4.0)
    y = batchnorm_fwd(x, np.array([2.0]), np.array([1.0]), np.array([0.0]), np.array([4.0 - ops.BN_EPS]))
    assert np.allclose(y, 5.0)


# ---------------------------------------------------------------------------
# relu, pooling, concat, add


def test_relu_examples():
    x = np.array([[-1.0, 0.0, 2.0]]).reshape(1, 1, 1, 3)
    assert np.array_equal(relu_fwd(x).ravel(), [0, 0, 2])
    assert (relu_fwd(-np.ones((1, 2, 2, 2))) == 0).all()


def test_relu_idempotent():
    x = _rng(3).normal(size=(2, 3, 4, 4))
    once = relu_fwd(x)
    assert np.array_equal(relu_fwd(once), once)


def test_upsample_constant():
    x = np.full((1, 2, 3, 3), 4.5)
    y = bilinear_up2_fwd(x)
    assert y.shape == (1, 2, 6, 6) and np.allclose(y, 4.5)


def test_upsample_corner_aligned_ramp():
    x = np.array([0.0, 3.0]).reshape(1, 1, 1, 2)
    y = bilinear_up2_fwd(x)
    assert y.shape == (1, 1, 2, 4)
    assert np.allclose(y[0, 0, 0], [0, 1, 2, 3])
    assert np.allclose(y[0, 0, 1], [0, 1, 2, 3])


def test_upsample_single_pixel():
    x = np.array([[[[2.5]]]])
    assert np.allclose(bilinear_up2_fwd(x), np.full((1, 1, 2, 2), 2.5))


def _up2_formula(x):
    """Corner-aligned upsampling by fancy indexing: rows first, then columns."""
    iy0, iy1, wy = ops._lerp_axis(x.shape[2])
    ix0, ix1, wx = ops._lerp_axis(x.shape[3])
    wy = wy.astype(x.dtype)[None, None, :, None]
    wx = wx.astype(x.dtype)[None, None, None, :]
    rows = x[:, :, iy0, :] * (1 - wy) + x[:, :, iy1, :] * wy
    return rows[:, :, :, ix0] * (1 - wx) + rows[:, :, :, ix1] * wx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_upsample_matches_formula_with_and_without_out(dtype):
    rng = _rng(12)
    # odd, even and single-pixel axes; batch 2 makes the channel slice strided
    for shape in [(2, 3, 5, 7), (2, 2, 4, 6), (2, 3, 1, 5), (2, 2, 6, 1), (1, 1, 1, 1)]:
        x = rng.normal(size=shape).astype(dtype)
        want = _up2_formula(x).tobytes()
        assert bilinear_up2_fwd(x).tobytes() == want
        n, c, h, w = shape
        buf = np.full((n, c + 3, 2 * h, 2 * w), np.nan, dtype=dtype)
        got = bilinear_up2_fwd(x, out=buf[:, 1 : 1 + c])
        assert np.shares_memory(got, buf)
        assert buf[:, 1 : 1 + c].tobytes() == want
        assert np.isnan(buf[:, 0]).all() and np.isnan(buf[:, 1 + c :]).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_upsample_matches_one_block(dtype):
    n, c, h, w = 2, 5, 3, 4
    x = _rng(14).normal(size=(n, c, h, w)).astype(dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "UP2_BLOCK_BYTES", 2**62)
        want = bilinear_up2_fwd(x).tobytes()
        # two channels' output per block: 5 channels split 2+2+1
        mp.setattr(ops, "UP2_BLOCK_BYTES", 2 * n * 4 * h * w * x.itemsize)
        assert bilinear_up2_fwd(x).tobytes() == want
        # into a channel slice of a larger buffer
        buf = np.full((n, c + 4, 2 * h, 2 * w), np.nan, dtype=dtype)
        got = bilinear_up2_fwd(x, out=buf[:, 3 : 3 + c])
    assert np.shares_memory(got, buf)
    assert buf[:, 3 : 3 + c].tobytes() == want
    assert np.isnan(buf[:, :3]).all() and np.isnan(buf[:, 3 + c :]).all()


def test_upsample_temporaries_stay_within_block_budget():
    x = _rng(15).normal(size=(1, 144, 128, 256)).astype(np.float32)
    out = x.nbytes * 4
    tracemalloc.start()
    try:
        y = bilinear_up2_fwd(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (1, 144, 256, 512)
    assert peak <= out + 2 * ops.UP2_BLOCK_BYTES


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["avg-float32", "avg-float64"])
def test_channel_pool_matches_formula_with_and_without_out(dtype):
    x = _rng(13).normal(size=(2, 6, 3, 5)).astype(dtype)
    want = ((x[:, ::2] + x[:, 1::2]) / 2).tobytes()
    assert channel_pool2_fwd(x).tobytes() == want
    buf = np.full((2, 7, 3, 5), np.nan, dtype=dtype)
    got = channel_pool2_fwd(x, out=buf[:, 2:5])
    assert np.shares_memory(got, buf)
    assert buf[:, 2:5].tobytes() == want
    assert np.isnan(buf[:, :2]).all() and np.isnan(buf[:, 5:]).all()


def test_channel_pool_definition():
    x = np.arange(4, dtype=np.float64).reshape(1, 4, 1, 1)
    y = channel_pool2_fwd(x)
    assert np.allclose(y.ravel(), [0.5, 2.5])


def test_channel_pool_duplicated_channels():
    x = _rng(4).normal(size=(1, 3, 2, 2))
    dup = np.repeat(x, 2, axis=1)
    assert np.allclose(channel_pool2_fwd(dup), x)


def test_channel_pool_shape_and_odd():
    x = np.zeros((1, 18, 5, 7))
    assert channel_pool2_fwd(x).shape == (1, 9, 5, 7)
    with pytest.raises(OddChannelCount):
        channel_pool2_fwd(np.zeros((1, 3, 2, 2)))


def test_concat_and_add():
    a = _rng(5).normal(size=(1, 4, 2, 2))
    b = _rng(6).normal(size=(1, 5, 2, 2))
    cat = concat_fwd([a, b])
    assert cat.shape == (1, 9, 2, 2)
    assert np.array_equal(cat[:, :4], a) and np.array_equal(cat[:, 4:], b)
    assert np.array_equal(add_fwd(a, np.zeros_like(a)), a)
    with pytest.raises(ShapeMismatch):
        add_fwd(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("prim", ["bn", "relu", "add"])
def test_out_overwrites_the_input_with_the_same_bytes(prim, dtype):
    # the executor passes an input buffer as out= when it is the last reader
    x = _rng(8).normal(size=(2, 3, 4, 5)).astype(dtype)
    gamma, beta, mean = _rng(9).normal(size=(3, 3)).astype(dtype)
    var = _rng(10).uniform(0.5, 2.0, size=3).astype(dtype)
    other = _rng(11).normal(size=x.shape).astype(dtype)
    fwd = {
        "bn": lambda a, out=None: batchnorm_fwd(a, gamma, beta, mean, var, out=out),
        "relu": lambda a, out=None: relu_fwd(a, out=out),
        "add": lambda a, out=None: add_fwd(a, other, out=out),
    }[prim]
    want = fwd(x)
    assert want is not x
    buf = x.copy()
    assert fwd(buf, out=buf) is buf
    assert buf.dtype == want.dtype and buf.tobytes() == want.tobytes()


def test_add_into_out_still_checks_shapes():
    # numpy alone would broadcast b into a
    a = _rng(12).normal(size=(1, 4, 2, 2))
    before = a.copy()
    with pytest.raises(ShapeMismatch):
        add_fwd(a, np.ones((1, 1, 2, 2)), out=a)
    assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("k, stride", [(3, 1), (1, 1), (3, 2), (1, 2)])
def test_conv_into_out(k, stride):
    x = _rng(16).normal(size=(2, 4, 9, 10))
    w = _rng(17).normal(size=(5, 4, k, k))
    want = conv2d_fwd(x, w, stride)
    out = np.full(want.shape, np.nan)
    assert conv2d_fwd(x, w, stride, out=out) is out
    assert out.tobytes() == want.tobytes()
    for bad in (np.empty((2, 4, *want.shape[2:])), np.empty((2, 6, *want.shape[2:]))[:, :5]):
        with pytest.raises(ShapeMismatch):
            conv2d_fwd(x, w, stride, out=bad)


def test_concat_into_out():
    a = _rng(5).normal(size=(2, 4, 2, 3))
    b = _rng(6).normal(size=(2, 5, 2, 3))
    out = np.full((2, 9, 2, 3), np.nan)
    assert concat_fwd([a, b], out=out) is out
    assert out.tobytes() == np.concatenate([a, b], axis=1).tobytes()
    with pytest.raises(ShapeMismatch):
        concat_fwd([a, b], out=np.empty((2, 8, 2, 3)))


# ---------------------------------------------------------------------------
# linearity properties

finite = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@given(finite, finite, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_linear_ops_superpose(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 2, 4, 4))
    y = rng.normal(size=(1, 2, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    mix = a * x + b * y
    for f in (
        lambda t: ops.conv2d_fwd(t, w),
        ops.bilinear_up2_fwd,
        ops.channel_pool2_fwd,
        lambda t: ops.concat_fwd([t, t]),
    ):
        assert np.allclose(f(mix), a * f(x) + b * f(y), atol=1e-9)


def test_forward_determinism():
    rng = _rng(9)
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    first = ops.conv2d_fwd(x, w)
    for _ in range(3):
        assert np.array_equal(ops.conv2d_fwd(x, w), first)


# ---------------------------------------------------------------------------
# gradients


def test_backward_relu_examples():
    for val, expect in ((2.0, 1.0), (-2.0, 0.0)):
        x = np.array([[[[val]]]])
        assert relu_vjp(x, np.ones_like(relu_fwd(x))).ravel()[0] == expect


def test_backward_1x1_conv_weight_is_input_dot_grad():
    rng = _rng(7)
    x = rng.normal(size=(1, 1, 3, 3))
    w = rng.normal(size=(1, 1, 1, 1))
    g = rng.normal(size=conv2d_fwd(x, w).shape)
    _, dw = conv2d_vjp(x, w, 1, None, g)
    assert np.allclose(dw.ravel()[0], np.sum(x * g))


@pytest.mark.parametrize("k, stride, pad", [(k, s, p) for k in (1, 3) for s in (1, 2) for p in sorted({0, k // 2, k - 1, k})])
def test_conv_vjp_is_the_adjoint_of_the_forward(k, stride, pad):
    """``<conv(x, w), dy> == <x, dx> == <w, dw>`` in float64; ``pad == k``
    takes the VJP's scatter path at stride 1 too."""
    rng = _rng(31)
    x = rng.normal(size=(2, 3, 7, 6))
    w = rng.normal(size=(5, 3, k, k))
    y = conv2d_fwd(x, w, stride, pad)
    dy = rng.normal(size=y.shape)
    dx, dw = conv2d_vjp(x, w, stride, pad, dy)
    assert dx.shape == x.shape and dw.shape == w.shape
    scale = np.sum(np.abs(y * dy))
    assert abs(np.sum(x * dx) - np.sum(y * dy)) <= 1e-12 * scale
    assert abs(np.sum(w * dw) - np.sum(y * dy)) <= 1e-12 * scale


def _central_diff(f, arr, idx, eps=1e-4):
    plus = arr.copy()
    plus.flat[idx] += eps
    minus = arr.copy()
    minus.flat[idx] -= eps
    return (f(plus) - f(minus)) / (2 * eps)


@pytest.mark.parametrize(
    "name",
    ["conv_x", "conv_w", "conv_x_s2", "conv_w_s2", "bn", "upsample", "upsample_1px", "chpool", "concat",
     "add", "relu"],
)
def test_primitive_gradients_match_central_differences(name):
    rng = _rng(11)
    x = rng.normal(size=(2, 3, 6, 6))
    x += 0.25 * np.sign(x)  # keep relu inputs away from the kink
    w = rng.normal(size=(4, 3, 3, 3))
    x2 = rng.normal(size=(2, 3, 6, 6))
    gamma, beta = rng.normal(size=3) + 2.0, rng.normal(size=3)
    mean, var = rng.normal(size=3) * 0.1, rng.random(3) + 0.5
    weight = rng.normal(size=(2, 4, 6, 6))  # fixed projection for a scalar loss

    def chpool_vjp(a, dy):  # pooling over [x, x]: both halves route to x
        cat = concat_fwd([a[0], a[0]])
        da, db = concat_vjp([a[0], a[0]], channel_pool2_vjp(cat, dy))
        return (da + db,)

    # arrays, indices of the differentiated arrays, forward, its VJPs
    # w.r.t. those arrays, and the projection that makes the loss scalar
    arrays, targets, fwd, vjp, loss_w = {
        "conv_x": ([x, w], [0], lambda a: conv2d_fwd(a[0], a[1]),
                   lambda a, dy: conv2d_vjp(a[0], a[1], 1, None, dy)[:1], weight),
        "conv_w": ([x, w], [1], lambda a: conv2d_fwd(a[0], a[1]),
                   lambda a, dy: conv2d_vjp(a[0], a[1], 1, None, dy)[1:], weight),
        "conv_x_s2": ([x, w], [0], lambda a: conv2d_fwd(a[0], a[1], 2),
                      lambda a, dy: conv2d_vjp(a[0], a[1], 2, None, dy)[:1], weight[:, :, :3, :3]),
        "conv_w_s2": ([x, w], [1], lambda a: conv2d_fwd(a[0], a[1], 2),
                      lambda a, dy: conv2d_vjp(a[0], a[1], 2, None, dy)[1:], weight[:, :, :3, :3]),
        "bn": ([x, gamma, beta, mean, var], [0, 1, 2, 3, 4], lambda a: batchnorm_fwd(*a),
               lambda a, dy: batchnorm_vjp(*a, dy), weight[:, :3]),
        "upsample": ([x], [0], lambda a: bilinear_up2_fwd(a[0]),
                     lambda a, dy: (bilinear_up2_vjp(a[0], dy),), rng.normal(size=(2, 3, 12, 12))),
        "upsample_1px": ([x[:, :, :1]], [0], lambda a: bilinear_up2_fwd(a[0]),
                         lambda a, dy: (bilinear_up2_vjp(a[0], dy),), rng.normal(size=(2, 3, 2, 12))),
        "chpool": ([x], [0], lambda a: channel_pool2_fwd(concat_fwd([a[0], a[0]])),
                   chpool_vjp, weight[:, :3]),
        "concat": ([x, x2], [1], concat_fwd,
                   lambda a, dy: concat_vjp(a, dy)[1:], rng.normal(size=(2, 6, 6, 6))),
        "add": ([x, x2], [0], lambda a: add_fwd(a[0], a[1]), lambda a, dy: (dy,), weight[:, :3]),
        "relu": ([x], [0], lambda a: relu_fwd(a[0]),
                 lambda a, dy: (relu_vjp(a[0], dy),), weight[:, :3]),
    }[name]
    grads = vjp(arrays, loss_w)
    assert len(grads) == len(targets)
    for target, analytic in zip(targets, grads):
        assert analytic.shape == arrays[target].shape

        def loss(perturbed):
            arrs = list(arrays)
            arrs[target] = perturbed
            return float(np.sum(fwd(arrs) * loss_w))

        rng2 = np.random.default_rng(13)
        size = arrays[target].size
        for idx in rng2.choice(size, size=min(12, size), replace=False):
            fd = _central_diff(loss, arrays[target], idx)
            a = analytic.flat[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            assert rel < 1e-5, f"{name}[{target}][{idx}]: analytic {a} vs fd {fd}"


# ---------------------------------------------------------------------------
# tensor file format


def test_tensor_file_round_trip(tmp_path):
    t = Tensor(_rng(21).normal(size=(2, 3, 4, 5)).astype(np.float32))
    path = tmp_path / "x.hrtf"
    ops.write_tensor(path, t)
    first = path.read_bytes()
    back = ops.read_tensor(path)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, t.data)
    ops.write_tensor(path, back)
    assert path.read_bytes() == first


@pytest.mark.parametrize("dtype, code, fmt", [(np.float32, 0, "f"), (np.float64, 1, "d")])
def test_tensor_file_bytes_follow_documented_layout(tmp_path, dtype, code, fmt):
    # magic, u32 version, u8 dtype, u8 rank, u64 dims, little-endian payload
    x = (np.arange(6, dtype=dtype) - 2.5).reshape(2, 3)
    path = tmp_path / "x.hrtf"
    ops.write_tensor(path, x)
    want = b"HRTF" + struct.pack("<IBB2Q", 1, code, 2, 2, 3) + struct.pack(f"<6{fmt}", *x.ravel())
    assert path.read_bytes() == want


def test_tensor_file_float64(tmp_path):
    t = Tensor(_rng(22).normal(size=(3, 2)))
    path = tmp_path / "x64.hrtf"
    ops.write_tensor(path, t)
    assert np.array_equal(ops.read_tensor(path).data, t.data)


def test_tensor_file_errors(tmp_path):
    path = tmp_path / "bad.hrtf"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ops.FormatError):
        ops.read_tensor(path)
    ops.write_tensor(path, Tensor(np.zeros((2, 2), dtype=np.float32)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])  # truncated payload
    with pytest.raises(ops.FormatError):
        ops.read_tensor(path)
    path.write_bytes(raw + b"\0")  # trailing byte
    with pytest.raises(ops.FormatError, match="offset 42"):
        ops.read_tensor(path)
    with pytest.raises(ValueError, match="unsupported dtype"):
        ops.write_tensor(path, np.zeros((2, 2), dtype=np.int32))
