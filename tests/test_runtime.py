import contextlib
import inspect
import math
import os
import struct
import sys
import threading
import time
import tracemalloc
import types
import zlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from uhrkit import analysis, ops, presets, runtime
from uhrkit.dsl import parse_structure
from uhrkit.graph import (
    IndivisibleInput,
    LayerGraph,
    NetworkConfig,
    Node,
    build_uhrnet,
    export_graph,
    import_graph,
    infer_shapes,
)
from uhrkit.ops import ChecksumMismatch, FormatError
from uhrkit.runtime import (
    WeightMissing,
    gradcheck,
    init_weights,
    load_weights,
    param_entries,
    run_backward,
    run_forward,
    save_weights,
    verification_input,
)


def tiny_graph():
    """Two-stage layout at width 4: small enough for fast gradient work."""
    seq = parse_structure("1v1=")
    return infer_shapes(
        build_uhrnet(seq, NetworkConfig(base_width=4, blocks_per_branch=2)), (1, 3, 64, 64)
    )


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic(tmp_path):
    g = presets.build_micro()
    a, b = init_weights(g, 42), init_weights(g, 42)
    assert a.allclose(b)
    pa, pb = tmp_path / "a.hrws", tmp_path / "b.hrws"
    save_weights(a, pa)
    save_weights(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_init_seed_changes_weights():
    g = presets.build_micro()
    assert not init_weights(g, 1).allclose(init_weights(g, 2))


def test_init_he_fan_out_std():
    g = presets.build("uhrnet-w18-small")
    w = init_weights(g, 0).arrays["stem.conv2.conv.w"]  # 3x3, 64 -> 64: 36864 draws
    assert w.shape == (64, 64, 3, 3)
    expected = np.sqrt(2.0 / (9 * 64))
    assert abs(w.std() - expected) / expected < 0.1
    assert abs(w.mean()) < 0.01


def test_init_bn_identity():
    g = presets.build_micro()
    store = init_weights(g, 0)
    assert (store.arrays["stem.conv1.bn.gamma"] == 1).all()
    assert (store.arrays["stem.conv1.bn.beta"] == 0).all()
    assert (store.arrays["stem.conv1.bn.mean"] == 0).all()
    assert (store.arrays["stem.conv1.bn.var"] == 1).all()


def test_param_entries_follow_graph_order():
    g = presets.build_micro()
    entries = [name for name, _, _, _ in param_entries(g)]
    store = init_weights(g, 0)
    assert list(store.arrays) == entries
    assert entries[0] == "stem.conv1.conv.w"


# ---------------------------------------------------------------------------
# persistence


def test_weights_round_trip(tmp_path):
    g = presets.build_micro()
    store = init_weights(g, 3)
    path = tmp_path / "w.hrws"
    save_weights(store, path)
    loaded = load_weights(path)
    assert loaded.allclose(store)
    path2 = tmp_path / "w2.hrws"
    save_weights(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_save_weights_rejects_seed_outside_u64(tmp_path, seed):
    path = tmp_path / "w.hrws"
    with pytest.raises(ValueError):
        save_weights(init_weights(presets.build_micro(), seed), path)
    assert not path.exists()


def test_save_weights_keeps_largest_u64_seed(tmp_path):
    path = tmp_path / "w.hrws"
    save_weights(init_weights(presets.build_micro(), 2**64 - 1), path)
    assert load_weights(path).seed == 2**64 - 1


def test_weights_truncated_file(tmp_path):
    g = presets.build_micro()
    path = tmp_path / "w.hrws"
    save_weights(init_weights(g, 0), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises((FormatError, ChecksumMismatch)):
        load_weights(path)


def test_weights_bit_flip_detected(tmp_path):
    g = presets.build_micro()
    path = tmp_path / "w.hrws"
    save_weights(init_weights(g, 0), path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        load_weights(path)


def test_weights_corrupt_entry_reports_offset(tmp_path):
    # a bad entry under a valid CRC: the entry decoder has to catch it
    path = tmp_path / "w.hrws"
    save_weights(init_weights(presets.build_micro(), 0), path)
    raw = path.read_bytes()
    head, body = raw[:20], bytearray(raw[20:-4])

    def load(body):
        path.write_bytes(head + bytes(body) + struct.pack("<I", zlib.crc32(body)))
        return load_weights(path)

    rank_at = 2 + len("stem.conv1.conv.w") + 1  # name length, name, dtype, rank
    assert body[rank_at] == 4
    body[rank_at] = 9
    with pytest.raises(FormatError, match=f"rank 9 \\(offset {20 + rank_at}\\)"):
        load(body)
    body[rank_at] = 4
    with pytest.raises(FormatError, match="trailing"):
        load(body + b"\0")


def test_save_weights_rejects_unsupported_dtype(tmp_path):
    store = init_weights(presets.build_micro(), 0)
    store.arrays["stem.conv1.bn.gamma"] = store.arrays["stem.conv1.bn.gamma"].astype(np.int32)
    with pytest.raises(ValueError, match="unsupported dtype"):
        save_weights(store, tmp_path / "w.hrws")


def test_missing_weight_rejected():
    g = tiny_graph()
    store = init_weights(g, 0)
    del store.arrays["head.conv.conv.w"]
    with pytest.raises(WeightMissing):
        run_forward(g, store, np.zeros((1, 3, 64, 64), dtype=np.float32))


# ---------------------------------------------------------------------------
# forward


def test_forward_micro_shape_and_determinism():
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 42)
    x = verification_input(presets.MICRO_INPUT_SHAPE, 42).data
    out1, _ = run_forward(g, store, x)
    out2, _ = run_forward(g, store, x)
    assert out1.shape == (1, 62, 16, 16)  # 15.5 * 4 channels
    assert np.array_equal(out1, out2)
    assert np.isfinite(out1).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("graph", ["micro", "tiny"])
def test_forward_reuse_matches_kept_activations(graph, dtype):
    # unless activations are kept, the walk overwrites dead buffers and
    # writes every other output into its arena slot; both must give the
    # same bytes and leave the input alone
    if graph == "micro":
        g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    else:
        g = tiny_graph()
    store = init_weights(g, 42).astype(dtype)
    x = verification_input(g.nodes[0].out_shape, 42).data.astype(dtype)
    x_before = x.copy()
    reused, none = run_forward(g, store, x)
    kept, acts = run_forward(g, store, x, keep_activations=True)
    assert none is None
    assert reused.dtype == kept.dtype == dtype
    assert reused.tobytes() == kept.tobytes()
    assert acts[g.input_id] is x
    assert len(acts) == len(g.nodes)
    assert x.tobytes() == x_before.tobytes()


@pytest.mark.parametrize("name", ["uhrnet-w18-small", "micro"])
def test_library_code_never_mutates_a_node(name):
    # nodes are slotted, not frozen: read-only holds by contract, so every
    # consumer of a graph must leave each node's fields and attrs as it found them
    g = presets.build_micro() if name == "micro" else presets.build(name)
    shape = presets.MICRO_INPUT_SHAPE
    before = [(n, astuple(n)) for n in g.nodes]  # astuple deep-copies attrs
    shaped = infer_shapes(g, shape)
    before += [(n, astuple(n)) for n in shaped.nodes]
    analysis.count_flops(shaped, analysis.CostConvention())
    import_graph(export_graph(shaped))
    store = init_weights(shaped, 3)
    x = verification_input(shape, 3).data
    run_forward(shaped, store, x)
    run_forward(shaped, store, x, keep_activations=True)
    for node, fields in before:
        assert astuple(node) == fields, node.id


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_walk_runs_the_ops_primitives(dtype):
    # every kept bn, relu and add activation is the bytes its ops primitive
    # gives for the kept inputs; batchnorms are drawn away from the identity
    # so that an affine rounded another way would show
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 42)
    rng = np.random.default_rng(42)
    for name, _nid, kind, shape in param_entries(g):
        if kind == "bn.var":
            store.arrays[name] = rng.uniform(0.5, 2.0, shape).astype(np.float32)
        elif kind != "conv.w":
            store.arrays[name] = rng.normal(size=shape).astype(np.float32)
    store = store.astype(dtype)
    x = verification_input(g.nodes[0].out_shape, 42).data.astype(dtype)
    reused, _ = run_forward(g, store, x)
    out, acts = run_forward(g, store, x, keep_activations=True)
    assert np.isfinite(out).all()
    assert reused.tobytes() == out.tobytes()  # in-place batchnorms too
    fwd = {
        "bn": lambda n, a: ops.batchnorm_fwd(
            a[0], *(store.arrays[f"{n.id}.{p}"] for p in ("gamma", "beta", "mean", "var"))
        ),
        "relu": lambda n, a: ops.relu_fwd(a[0]),
        "add": lambda n, a: ops.add_fwd(a[0], a[1]),
    }
    seen = dict.fromkeys(fwd, 0)
    for node in g.nodes:
        if node.kind in fwd:
            want = fwd[node.kind](node, [acts[i] for i in node.inputs])
            assert acts[node.id].tobytes() == want.tobytes(), node.id
            seen[node.kind] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["bn", "relu", "add"])
def test_an_elementwise_node_overwrites_the_input_it_reads_last(monkeypatch, kind, dtype):
    # without kept activations, a node writes over its first input exactly
    # when it is that buffer's last reader, reads it once, and the buffer is
    # not the graph's input or output; a batchnorm that alone reads its
    # conv's output normalizes it in place.  Any other such node writes into
    # its arena slot, which shares no memory with what it reads
    prim = {"bn": "batchnorm_fwd", "relu": "relu_fwd", "add": "add_fwd"}[kind]
    fwd, calls = getattr(ops, prim), []
    monkeypatch.setattr(ops, prim, lambda *a, out=None: calls.append((a, out)) or fwd(*a, out=out))
    for g in (infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE), tiny_graph()):
        store = init_weights(g, 42).astype(dtype)
        calls.clear()
        run_forward(g, store, verification_input(g.nodes[0].out_shape, 42).data.astype(dtype))
        nodes = [n for n in g.nodes if n.kind == kind]
        assert len(calls) == len(nodes)
        last = {src: n for n in g.nodes for src in n.inputs}
        owned = 0
        for node, (args, out) in zip(nodes, calls):
            src = node.inputs[0]
            if last[src] is node and node.inputs.count(src) == 1 and src not in (g.input_id, g.output_id):
                assert out is args[0], node.id
                owned += 1
            else:
                assert out is not None, node.id
                assert not any(np.shares_memory(out, a) for a in args if isinstance(a, np.ndarray)), node.id
        assert owned  # every bn and relu of both graphs, and most adds


def test_a_node_that_reads_a_buffer_twice_does_not_overwrite_it(monkeypatch):
    # add(r, r) is r's last reader but reads it twice
    nodes = (
        Node("x", "input", (), "stem", {"ch": 3}),
        Node("c", "conv", ("x",), "stem", {"k": 3, "stride": 1, "pad": 1, "in_ch": 3, "out_ch": 4}),
        Node("r", "relu", ("c",), "stem"),
        Node("a", "add", ("r", "r"), "stem"),
        Node("b", "bn", ("a",), "stem", {"ch": 4}),
    )
    g = infer_shapes(LayerGraph(nodes, "b"), (1, 3, 64, 64))
    store = init_weights(g, 6)
    x = verification_input(g.nodes[0].out_shape, 6).data
    add, calls = ops.add_fwd, []
    monkeypatch.setattr(ops, "add_fwd", lambda x, y, out=None: calls.append((x, out)) or add(x, y, out=out))
    got, _ = run_forward(g, store, x)
    ((r, out),) = calls
    assert out is not None and not np.shares_memory(out, r)  # its own arena slot
    assert got.tobytes() == run_forward(g, store, x, keep_activations=True)[0].tobytes()


@pytest.mark.parametrize("name", ["micro", "uhrnet-w18-small", "hrnetv2-w18-small-v2"])
def test_the_arena_is_the_walks_live_peak(name):
    # the walk's buffers, simulated: a node output lives from its node to its
    # last reader (the output to the end), and an elementwise node that is
    # its first input's last reader, reading it once, takes over its bytes;
    # the live buffers' slots never overlap, and the arena is their peak
    if name == "micro":
        g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    else:
        g = infer_shapes(presets.build(name), (1, 3, 256, 512))
    ex = runtime._Exec(g, init_weights(g, 0), np.float32)
    last = {src: n.id for n in g.nodes for src in n.inputs}
    live, peak = {}, 0  # node -> bytes
    for node in g.nodes[1:]:
        src = node.inputs[0]
        taken = node.kind in ("bn", "relu", "add") and last[src] == node.id and node.inputs.count(src) == 1
        taken = taken and src not in (g.input_id, g.output_id)
        live[node.id] = live.pop(src) if taken else 4 * math.prod(node.out_shape)
        peak = max(peak, sum(live.values()))
        spans = sorted((ex.slots[n][0], sum(ex.slots[n])) for n in live)
        assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:])), node.id
        assert 4 * ex.slots[node.id][1] == live[node.id]
        lo, hi = ex.gaps[node.id][0], sum(ex.gaps[node.id])  # lent to the node's temporaries
        assert all(end <= lo or hi <= start for start, end in spans), node.id
        for src in node.inputs:
            if last[src] == node.id and src != g.output_id:
                live.pop(src, None)
    assert 4 * ex.arena == peak


def test_temporaries_are_carved_from_the_arena_only_without_kept_activations(monkeypatch):
    # a forward lends each primitive its node's gap; a temporary that fits
    # is a view of the lent bytes, and nothing is lent with kept activations
    temp, carved = ops._temp, []

    def watched(shape, dtype):
        t = temp(shape, dtype)
        lent = ops._WORK.get()
        carved.append(lent is not None and np.shares_memory(t, lent[0]))
        return t

    monkeypatch.setattr(ops, "_temp", watched)
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 4)
    x = verification_input(presets.MICRO_INPUT_SHAPE, 4).data
    reused, _ = run_forward(g, store, x)
    assert any(carved)
    carved.clear()
    kept, _ = run_forward(g, store, x, keep_activations=True)
    assert carved and not any(carved)
    assert reused.tobytes() == kept.tobytes()


def test_a_forward_output_outlives_the_next_forward():
    # the output is a view of its own arena, which the next forward does not
    # reuse, and never of the input
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 4)
    x1, x2 = (verification_input(presets.MICRO_INPUT_SHAPE, s).data for s in (1, 2))
    out1, _ = run_forward(g, store, x1)
    first = out1.tobytes()
    out2, _ = run_forward(g, store, x2)
    assert out1.tobytes() == first != out2.tobytes()
    assert not np.shares_memory(out1, out2)
    assert not np.shares_memory(out1, x1) and not np.shares_memory(out2, x2)
    assert first == run_forward(g, store, x1, keep_activations=True)[0].tobytes()


def test_forward_zero_convs_give_zero_output():
    g = tiny_graph()
    store = init_weights(g, 0)
    for name in store.arrays:
        if name.endswith(".w"):
            store.arrays[name] = np.zeros_like(store.arrays[name])
    x = verification_input((1, 3, 64, 64), 5).data
    out, _ = run_forward(g, store, x)
    assert np.array_equal(out, np.zeros_like(out))


def test_run_forward_shapes_an_unshaped_graph():
    # an unshaped graph is shaped from the input, so the input is checked
    g = presets.build_micro()
    store = init_weights(g, 0)
    x = verification_input(presets.MICRO_INPUT_SHAPE, 0).data
    out, _ = run_forward(g, store, x)
    shaped, _ = run_forward(infer_shapes(g, x.shape), store, x)
    assert out.tobytes() == shaped.tobytes()
    with pytest.raises(IndivisibleInput):
        run_forward(g, store, np.zeros((1, 3, 80, 80), dtype=np.float32))


def test_parameter_gradients_hold_no_negative_zero():
    # the reverse sweep stores each parameter gradient as a sum from zero;
    # a VJP that sums only -0.0 terms would otherwise leave a negative zero,
    # equal in value to +0.0 but not in bytes
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 7).astype(np.float64)
    x = verification_input(presets.MICRO_INPUT_SHAPE, 7).data.astype(np.float64)
    out, acts = run_forward(g, store, x, keep_activations=True)
    pgrads, _, _ = run_backward(g, store, acts, np.full(out.shape, 1.0 / out.size))
    assert len(pgrads) == len(store.arrays)
    assert [name for name, d in pgrads.items() if np.signbit(d[d == 0]).any()] == []


def test_forward_rejects_wrong_input_shape():
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 0)
    with pytest.raises(ops.ShapeMismatch):
        run_forward(g, store, np.zeros((1, 3, 128, 128), dtype=np.float32))


def test_every_preset_runs_finite_forward_and_backward():
    shape = (1, 3, 64, 64)
    x = verification_input(shape, 11).data.astype(np.float64)
    for name in presets.names():
        g = infer_shapes(presets.build(name), shape)
        store = init_weights(g, 11).astype(np.float64)
        out, acts = run_forward(g, store, x, keep_activations=True)
        assert [nid for nid, a in acts.items() if not np.isfinite(a).all()] == [], name
        grads, input_grad, _ = run_backward(g, store, acts, np.full(out.shape, 1.0 / out.size))
        assert all(np.isfinite(v).all() for v in grads.values()), name
        assert np.isfinite(input_grad).all() and input_grad.any(), name


def test_input_gradient_matches_central_differences():
    shape = presets.MICRO_INPUT_SHAPE
    g = infer_shapes(presets.build_micro(), shape)
    store = init_weights(g, 7).astype(np.float64)
    x = verification_input(shape, 7).data.astype(np.float64)
    out, acts = run_forward(g, store, x, keep_activations=True)
    _, input_grad, _ = run_backward(g, store, acts, np.full(out.shape, 1.0 / out.size))
    assert input_grad.shape == x.shape
    eps = 1e-4
    for idx in [(0, 0, 10, 10), (0, 1, 5, 37), (0, 2, 63, 0)]:
        plus, minus = x.copy(), x.copy()
        plus[idx] += eps
        minus[idx] -= eps
        fd = (run_forward(g, store, plus)[0] - run_forward(g, store, minus)[0]).mean() / (2 * eps)
        assert abs(input_grad[idx] - fd) < 1e-5 * max(abs(fd), 1e-8), (idx, input_grad[idx], fd)


# ---------------------------------------------------------------------------
# gradient verification

needs_limiter = pytest.mark.skipif(
    runtime._blas().name == "none",
    reason="no BLAS thread limiter on this machine (neither threadpoolctl nor numpy's OpenBLAS)",
)


def cores(monkeypatch, n: int) -> None:
    """Make the host report ``n`` cores, which sets the checker's workers."""
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def test_gradcheck_tiny_graph_passes(monkeypatch):
    cores(monkeypatch, 1)
    g = tiny_graph()
    store = init_weights(g, 7)
    x = verification_input((1, 3, 64, 64), 7)
    rep = gradcheck(g, store, x, eps=1e-4, tolerance=1e-5, sample_count=6, seed=7)
    assert rep.passed
    assert rep.fully_sampled
    assert rep.max_rel_err < 1e-5
    assert rep.total_checked > 100


def test_gradcheck_zero_tolerance_fails(monkeypatch):
    cores(monkeypatch, 1)
    g = tiny_graph()
    store = init_weights(g, 7)
    x = verification_input((1, 3, 64, 64), 7)
    rep = gradcheck(g, store, x, eps=1e-4, tolerance=0.0, sample_count=2, seed=7)
    assert not rep.passed


def test_gradcheck_detects_wrong_gradient(monkeypatch):
    from uhrkit import runtime as rt

    cores(monkeypatch, 1)
    g = tiny_graph()
    store = init_weights(g, 7)
    x = verification_input((1, 3, 64, 64), 7)
    true_vjp = ops.conv2d_vjp

    def broken_vjp(xa, w, stride, pad, dy):
        dx, dw = true_vjp(xa, w, stride, pad, dy)
        return dx, dw * 1.5

    monkeypatch.setattr(ops, "conv2d_vjp", broken_vjp)
    rep = gradcheck(g, store, x, eps=1e-4, tolerance=1e-5, sample_count=4, seed=7)
    assert not rep.passed
    assert rep.max_rel_err > 0.1


def test_gradcheck_detects_a_1e4_error_in_one_vjp(monkeypatch):
    # a verifier that passes vacuously would miss an error this small
    cores(monkeypatch, 1)
    g = tiny_graph()
    store = init_weights(g, 7)
    x = verification_input((1, 3, 64, 64), 7)
    true_vjp = ops.batchnorm_vjp

    def skewed_vjp(*args):
        dx, dg, db, dm, dv = true_vjp(*args)
        return dx, dg, db, dm, dv * (1 + 1e-4)

    monkeypatch.setattr(ops, "batchnorm_vjp", skewed_vjp)
    rep = gradcheck(g, store, x, eps=1e-4, tolerance=1e-5, sample_count=6, seed=7)
    assert not rep.passed
    assert 5e-5 < rep.max_rel_err < 2e-4
    failed = [p.name for p in rep.params if p.max_rel_err >= rep.tolerance]
    assert failed and all(name.endswith(".var") for name in failed)


def test_gradcheck_nudges_parameters_through_the_forward_primitives(monkeypatch):
    # a batchnorm forward that uses half of beta disagrees with its VJP in
    # beta alone; a checker with its own batchnorm formulas would pass it
    cores(monkeypatch, 1)
    g = tiny_graph()
    store = init_weights(g, 7)
    for name, arr in store.arrays.items():
        if name.endswith(".beta"):
            arr[:] = 0.1
    true_fwd = ops.batchnorm_fwd

    def half_beta(x, gamma, beta, mean, var, out=None):
        return true_fwd(x, gamma, 0.5 * beta, mean, var, out=out)

    monkeypatch.setattr(ops, "batchnorm_fwd", half_beta)
    rep = gradcheck(g, store, verification_input((1, 3, 64, 64), 7), sample_count=2, seed=7)
    assert not rep.passed
    failed = [p.name for p in rep.params if p.max_rel_err >= rep.tolerance]
    assert failed and all(name.endswith(".beta") for name in failed)
    assert rep.max_rel_err == pytest.approx(0.5, rel=1e-3)


def test_var_positivity_skips_stop_with_the_check():
    # 40% of this var tensor sits where var - eps + BN_EPS is not positive;
    # the 20th compared draw is draw 26, after 6 such draws, so the look-ahead
    # past it must not add to the skips
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 7)
    name = "s1.m0.b0.blk0.c1.bn.var"
    store.arrays[name] = np.where(np.random.default_rng(1).random(64) < 0.4, 5e-5, 1.0).astype(np.float32)
    check = runtime._GradCheck(g, store, verification_input(presets.MICRO_INPUT_SHAPE, 7), 1e-4, 1e-5, 20, 1)
    got = check.check(next(e for e in check.entries if e[0] == name))
    assert (got.sampled, got.checked, got.skipped_kinks, got.skipped_var, got.nonfinite) == (26, 20, 0, 6, 0)


@needs_limiter
def test_gradcheck_workers_do_not_change_results(monkeypatch):
    # one core runs the forked workers' entry point once, in the calling
    # process and thread, over every tensor; it returns that worker's
    # ParamChecks, which the wrapper hands back unchanged
    g = tiny_graph()
    store = init_weights(g, 3)
    x = verification_input((1, 3, 64, 64), 3)
    calls = []
    worker = runtime._gc_worker

    def recorded(args):
        calls.append((args, os.getpid(), threading.get_ident()))
        return worker(args)

    cores(monkeypatch, 1)
    monkeypatch.setattr(runtime, "_gc_worker", recorded)
    a = gradcheck(g, store, x, sample_count=3, seed=3)
    assert calls == [((0, 1), os.getpid(), threading.get_ident())]
    assert a.workers == 1
    monkeypatch.undo()
    cores(monkeypatch, 2)
    b = gradcheck(g, store, x, sample_count=3, seed=3)
    assert b.workers == 2
    assert replace(b, workers=1, elapsed_seconds=0.0) == replace(a, elapsed_seconds=0.0)


def test_gradcheck_in_two_threads_keeps_each_check(monkeypatch):
    # the one-worker check reads the check in progress from module state, so
    # a check in a second thread must wait instead of replacing it mid-run:
    # each sets that state under its BLAS hold, and holds take turns on one lock
    cores(monkeypatch, 1)
    g = tiny_graph()
    x = verification_input((1, 3, 64, 64), 1)
    stores = [init_weights(g, 1), init_weights(g, 2)]
    alone = [gradcheck(g, store, x, sample_count=1, seed=1) for store in stores]
    worker = runtime._gc_worker

    def slow(args):
        time.sleep(0.5)  # time for the other thread to build its baseline
        return worker(args)

    monkeypatch.setattr(runtime, "_gc_worker", slow)
    got = [None, None]

    def run(i):
        got[i] = gradcheck(g, stores[i], x, sample_count=1, seed=1)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert [replace(r, elapsed_seconds=0.0) for r in got] == [replace(r, elapsed_seconds=0.0) for r in alone]


@needs_limiter
def test_forked_workers_run_under_the_parents_hold(monkeypatch):
    # the check holds BLAS at one thread in the calling process, and the
    # workers it forks inherit that count instead of each holding their own
    worker = runtime._gc_worker

    def held(args):
        threads = runtime._blas().threads()
        if threads != 1:
            raise AssertionError(f"worker {args} ran at {threads} BLAS threads")
        return worker(args)

    # the fork pool pickles the entry point by reference, as the tracer's wrapper
    held.__module__, held.__qualname__ = worker.__module__, worker.__qualname__
    monkeypatch.setattr(runtime, "_gc_worker", held)
    cores(monkeypatch, 2)
    g = tiny_graph()
    with blas_threads(2):
        rep = gradcheck(g, init_weights(g, 1), verification_input((1, 3, 64, 64), 1), sample_count=2, seed=1)
        assert runtime._blas().threads() == 2
    assert rep.workers == 2 and rep.passed
    assert rep.blas_threads == 1


def test_gradcheck_report_fields(monkeypatch):
    cores(monkeypatch, 1)
    g = tiny_graph()
    store = init_weights(g, 1)
    x = verification_input((1, 3, 64, 64), 1)
    rep = gradcheck(g, store, x, sample_count=2, seed=1)
    doc = rep.to_json_dict()
    assert doc["dtype"] == "float64"
    assert doc["eps"] == 1e-4
    assert len(doc["params"]) == len(param_entries(g))
    assert doc["workers"] == 1
    assert doc["blas_limiter"] in ("threadpoolctl", "openblas", "none")
    assert doc["blas_limiter"] == runtime._blas().name
    assert doc["blas_threads"] == (0 if doc["blas_limiter"] == "none" else 1)
    assert doc["nonfinite"] == 0
    assert all(p["nonfinite"] == 0 for p in doc["params"])
    assert doc["unchecked"] == rep.unchecked == [p.name for p in rep.params if p.checked == 0]
    # sampled counts the coordinates examined, each compared or skipped
    assert all(p.sampled == p.checked + p.skipped_kinks + p.skipped_var for p in rep.params)
    assert doc["skipped_kinks"] == rep.total_skipped and doc["skipped_var"] == rep.total_skipped_var
    assert all(p["skipped_var"] == 0 for p in doc["params"])  # init_weights sets every var to 1
    assert "stem.conv1.conv.w" in rep.unchecked  # every interval drawn straddles a kink
    text = rep.to_text()
    assert "PASS" in text or "FAIL" in text
    assert f"workers 1, BLAS limiter {doc['blas_limiter']}" in text
    assert ("compared no coordinate" in text) == bool(rep.unchecked)
    assert all(name in text for name in rep.unchecked)


def check_hold_restores(blas):
    """``blas.hold()`` reads one thread inside and restores the count on the
    way out, also out of an error."""
    before = blas.threads()
    assert before >= 1
    with blas.hold() as inside:
        assert inside == 1
        assert blas.threads() == 1
    assert blas.threads() == before
    with pytest.raises(KeyError):
        with blas.hold():
            raise KeyError("restored on the way out of an error too")
    assert blas.threads() == before


@pytest.mark.skipif(
    runtime._blas().name == "none",
    reason="no BLAS thread limiter on this machine (neither threadpoolctl nor numpy's OpenBLAS)",
)
def test_blas_single_thread_limits_then_restores():
    check_hold_restores(runtime._blas())


def test_threadpoolctl_handle_reads_holds_and_restores(monkeypatch):
    # threadpoolctl is optional, so a stand-in module runs the handle's
    # branch for it wherever the real one is not installed
    state = {"threads": 3, "limits": []}

    @contextlib.contextmanager
    def threadpool_limits(limits=None, user_api=None):
        before = state["threads"]
        state["limits"].append((limits, user_api))
        state["threads"] = limits
        try:
            yield
        finally:
            state["threads"] = before

    def threadpool_info():
        return [{"user_api": "openmp", "num_threads": 8}, {"user_api": "blas", "num_threads": state["threads"]}]

    stub = types.ModuleType("threadpoolctl")
    stub.threadpool_limits, stub.threadpool_info = threadpool_limits, threadpool_info
    monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
    runtime._blas.cache_clear()
    try:
        blas = runtime._blas()
        assert blas.name == "threadpoolctl"
        assert blas.threads() == 3
        check_hold_restores(blas)
        assert state["limits"] == [(1, None), (1, None)]  # threadpool_limits(limits=1)
        g = tiny_graph()
        cores(monkeypatch, 1)
        rep = gradcheck(g, init_weights(g, 1), verification_input((1, 3, 64, 64), 1), sample_count=2, seed=1)
        assert (rep.blas_limiter, rep.blas_threads) == ("threadpoolctl", 1)
        assert state["threads"] == 3
    finally:
        runtime._blas.cache_clear()  # the next caller builds the real handle


def test_gradcheck_without_limiter_warns_and_uses_one_worker(monkeypatch):
    g = tiny_graph()
    store = init_weights(g, 1)
    x = verification_input((1, 3, 64, 64), 1)
    monkeypatch.setattr(runtime, "_blas", lambda: runtime._Blas("none", lambda: 0, lambda n: contextlib.nullcontext()))
    cores(monkeypatch, 2)  # one worker all the same: BLAS cannot be held at one thread
    with pytest.warns(RuntimeWarning, match="1 worker"):
        rep = gradcheck(g, store, x, sample_count=2, seed=1)
    assert rep.workers == 1
    assert rep.blas_limiter == "none"
    assert rep.blas_threads == 0
    assert rep.passed


@pytest.mark.parametrize("eps", [0.0, -1e-4, float("nan"), float("inf")])
def test_gradcheck_rejects_bad_eps(eps):
    g = tiny_graph()
    store = init_weights(g, 1)
    x = verification_input((1, 3, 64, 64), 1)
    with pytest.raises(ValueError, match="eps"):
        gradcheck(g, store, x, eps=eps, sample_count=2)


@pytest.mark.parametrize("tolerance", [-1e-5, float("nan"), float("inf")])
def test_gradcheck_rejects_bad_tolerance(tolerance):
    # an infinite tolerance would pass any error and turn off every kink skip
    g = tiny_graph()
    store = init_weights(g, 1)
    x = verification_input((1, 3, 64, 64), 1)
    with pytest.raises(runtime.InvalidCheckSettings, match="tolerance"):
        gradcheck(g, store, x, tolerance=tolerance, sample_count=2)


@pytest.mark.parametrize("samples", [0, -3])
def test_gradcheck_rejects_no_samples(samples):
    g = tiny_graph()
    store = init_weights(g, 1)
    x = verification_input((1, 3, 64, 64), 1)
    with pytest.raises(ValueError, match="sample count"):
        gradcheck(g, store, x, sample_count=samples)


def test_gradcheck_nan_difference_fails_its_tensor(monkeypatch):
    g = tiny_graph()
    store = init_weights(g, 1)
    x = verification_input((1, 3, 64, 64), 1)
    target = param_entries(g)[0][0]
    true_patch = runtime._stacked_patch

    def nan_patch(kind, node, coords, *rest):
        lanes = true_patch(kind, node, coords, *rest)
        if f"{node.id}.w" == target:
            lanes[0] = np.nan  # the +eps lane of the first sampled coordinate
        return lanes

    monkeypatch.setattr(runtime, "_stacked_patch", nan_patch)
    cores(monkeypatch, 1)
    rep = gradcheck(g, store, x, sample_count=2, seed=1)
    bad = {p.name: p for p in rep.params}[target]
    assert bad.nonfinite >= 1
    assert all(p.nonfinite == 0 for p in rep.params if p.name != target)
    assert np.isfinite(rep.max_rel_err)
    assert not rep.passed
    assert rep.to_json_dict()["nonfinite"] == bad.nonfinite
    assert "not finite" in rep.to_text()


# ---------------------------------------------------------------------------
# forward lanes


@contextlib.contextmanager
def blas_threads(n):
    """BLAS set to ``n`` threads, and so ``run_forward`` to ``n`` lanes."""
    with runtime._blas().limit(n):
        yield
    assert runtime._blas().threads() >= 1


def split_everything(monkeypatch, band_bytes=None):
    monkeypatch.setattr(runtime, "LANE_MACS", 0)
    monkeypatch.setattr(ops, "SPLIT_MACS", 0)
    monkeypatch.setattr(ops, "SPLIT_BYTES", 0)
    if band_bytes:
        monkeypatch.setattr(ops, "BAND_BYTES", band_bytes)


@needs_limiter
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("band_bytes", [None, 4096])  # one band per conv, or many
def test_forward_bytes_do_not_depend_on_the_lanes(monkeypatch, dtype, band_bytes):
    # every op splits, and every conv GEMM is cut, band by band
    split_everything(monkeypatch, band_bytes)
    for g in (infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE), tiny_graph()):
        store = init_weights(g, 5).astype(dtype)
        x = verification_input(g.nodes[0].out_shape, 5).data.astype(dtype)
        outs = {}
        for lanes in (1, 2):
            with blas_threads(lanes):
                assert runtime._forward_lanes(runtime._conv_macs(g))[1:] == (lanes, lanes)
                outs[lanes], _ = run_forward(g, store, x)
        assert outs[1].dtype == dtype
        assert outs[1].tobytes() == outs[2].tobytes()


@needs_limiter
def test_a_1x1_conv_of_split_macs_is_cut_like_every_other_kernel(monkeypatch):
    # 64 -> 64 channels on a 64x64 map: exactly SPLIT_MACS multiply-accumulates
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 64, 64, 64)).astype(np.float32)
    w = rng.standard_normal((64, 64, 1, 1)).astype(np.float32)
    assert x.size * w.shape[0] == ops.SPLIT_MACS
    whole = ops.conv2d_fwd(x, w)
    dealt = []  # (jobs, lanes) of every deal, the lanes' own included
    deal = ops._deal

    def recorded(jobs, lanes):
        dealt.append((len(jobs), lanes))
        deal(jobs, lanes)

    monkeypatch.setattr(ops, "_deal", recorded)
    with runtime._blas().hold(), ops._open_lanes(2):
        cut = ops.conv2d_fwd(x, w)
    assert dealt[0] == (ops.GEMM_PARTS, 2)
    assert cut.tobytes() == whole.tobytes()


@needs_limiter
def test_only_large_forwards_on_few_blas_threads_open_lanes(monkeypatch):
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 5)
    x = verification_input(presets.MICRO_INPUT_SHAPE, 5).data
    blas = runtime._blas()
    seen = []  # (lanes, BLAS threads) inside each batchnorm call
    batchnorm = ops.batchnorm_fwd

    def watched(*args, **kwargs):
        seen.append((ops._LANES.get()[1], blas.threads()))
        return batchnorm(*args, **kwargs)

    monkeypatch.setattr(ops, "batchnorm_fwd", watched)
    with blas_threads(2):
        # below LANE_MACS the forward opens no lane, and BLAS keeps its own
        # thread count
        monkeypatch.setattr(runtime, "LANE_MACS", runtime._conv_macs(g) + 1)
        assert runtime._forward_lanes(runtime._conv_macs(g)) == (blas, 2, 0)
        run_forward(g, store, x)
        assert set(seen) == {(0, 2)}
        seen.clear()
        monkeypatch.setattr(runtime, "LANE_MACS", runtime._conv_macs(g))
        assert runtime._forward_lanes(runtime._conv_macs(g)) == (blas, 2, 2)
        run_forward(g, store, x)
        assert set(seen) == {(2, 1)}
        assert blas.threads() == 2  # restored
    # more BLAS threads than GEMM_PARTS were never measured: no lanes either
    many = replace(blas, threads=lambda: ops.GEMM_PARTS + 1)
    monkeypatch.setattr(runtime, "_blas", lambda: many)
    assert runtime._forward_lanes(runtime._conv_macs(g)) == (many, ops.GEMM_PARTS + 1, 0)


@needs_limiter
def test_lanes_stay_inside_ops_and_end_with_the_forward(monkeypatch):
    # the tracer wraps public ops functions and keeps one span stack, so only
    # the calling thread may enter them; lanes run private helpers only
    split_everything(monkeypatch)
    main = threading.get_ident()
    public, lane_threads = [], set()

    def on_caller(fn):
        def wrapped(*args, **kwargs):
            public.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapped

    for name, fn in list(vars(ops).items()):
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == ops.__name__:
            monkeypatch.setattr(ops, name, on_caller(fn))
    deal = ops._deal

    def traced_deal(jobs, lanes):
        if lanes == 1:
            lane_threads.add(threading.get_ident())
        deal(jobs, lanes)

    monkeypatch.setattr(ops, "_deal", traced_deal)
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 5)
    x = verification_input(presets.MICRO_INPUT_SHAPE, 5).data
    before = threading.active_count()
    with blas_threads(2):
        run_forward(g, store, x)
        assert threading.active_count() == before  # the lane threads are joined
        run_forward(g, store, x, keep_activations=True)
    assert threading.active_count() == before
    assert len(lane_threads) == 2  # the work did run on two lanes
    assert public and {tid for _, tid in public} == {main}
    # a forked gradient check still works after forwards that opened lanes
    monkeypatch.undo()
    cores(monkeypatch, 2)
    tg = tiny_graph()
    rep = gradcheck(tg, init_weights(tg, 1), verification_input((1, 3, 64, 64), 1), sample_count=2, seed=1)
    assert rep.workers == 2 and rep.passed


class ReachedLock:
    """``runtime._HOLD`` that sets ``reached`` when the thread named
    ``forward`` asks for it, before it waits."""

    def __init__(self, lock, reached):
        self.lock, self.reached = lock, reached

    def __enter__(self):
        if threading.current_thread().name == "forward":
            self.reached.set()
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


@needs_limiter
def test_a_check_and_a_lane_forward_in_two_threads_take_turns_on_the_hold(monkeypatch):
    # a one-worker check holds BLAS at one thread; a lane-opening forward
    # started in another thread meanwhile must wait for that hold to end
    # instead of taking its own, which the check's end would undo mid-pass
    # (leaving some of the forward's primitives at two BLAS threads) and
    # whose own end would leave the process at one thread
    cores(monkeypatch, 1)
    monkeypatch.setattr(runtime, "LANE_MACS", 0)
    blas = runtime._blas()
    g = tiny_graph()
    store = init_weights(g, 1)
    x = verification_input((1, 3, 64, 64), 1).data
    checking, waiting, running, checked = (threading.Event() for _ in range(4))
    seen = []  # BLAS threads inside each primitive the forward calls
    check_entry = runtime._GradCheck.check

    def check(self, entry):
        if not checking.is_set():  # the first tensor, inside the check's hold
            checking.set()
            assert waiting.wait(20)
            # the forward now waits for the lock; it would start its pass
            # at once if it did not
            running.wait(2)
        return check_entry(self, entry)

    def watched(fn):
        def primitive(*args, **kwargs):
            if threading.current_thread().name == "forward":
                seen.append(blas.threads())
                running.set()
                assert checked.wait(20)  # the check ends during the pass
            return fn(*args, **kwargs)

        return primitive

    monkeypatch.setattr(runtime._GradCheck, "check", check)
    monkeypatch.setattr(runtime, "_HOLD", ReachedLock(runtime._HOLD, waiting))
    for name in [n for n in vars(ops) if n.endswith("_fwd")]:
        monkeypatch.setattr(ops, name, watched(getattr(ops, name)))
    done = {}

    def run_check():
        try:
            done["check"] = gradcheck(g, store, x, sample_count=1, seed=1)
        finally:
            checked.set()

    def run_pass():
        done["forward"] = run_forward(g, store, x)

    with blas_threads(2):
        threads = [threading.Thread(target=run_check, daemon=True)]
        threads[0].start()
        assert checking.wait(20)
        threads.append(threading.Thread(target=run_pass, name="forward", daemon=True))
        threads[1].start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert blas.threads() == 2  # the count the process had before both
    assert set(done) == {"check", "forward"} and done["check"].passed
    assert seen and set(seen) == {1}


@needs_limiter
def test_a_lane_forward_started_during_a_hold_decides_after_it(monkeypatch):
    # a forward that read the BLAS count while another thread held it at one
    # would open one lane and run its whole pass there, although BLAS is
    # back at two threads by the time the hold ends and the pass starts
    blas = runtime._blas()
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 5)
    x = verification_input(presets.MICRO_INPUT_SHAPE, 5).data
    held, reached = threading.Event(), threading.Event()
    seen = []  # (lanes, BLAS threads) inside each batchnorm of the forward
    batchnorm = ops.batchnorm_fwd

    def watched(*args, **kwargs):
        seen.append((ops._LANES.get()[1], blas.threads()))
        return batchnorm(*args, **kwargs)

    monkeypatch.setattr(ops, "batchnorm_fwd", watched)
    monkeypatch.setattr(runtime, "_HOLD", ReachedLock(runtime._HOLD, reached))
    done = {}

    def hold():
        with blas.hold():
            held.set()
            done["reached"] = reached.wait(20)  # the forward waits for this hold

    def run_pass():
        done["forward"] = run_forward(g, store, x)

    with blas_threads(2):
        if blas.threads() != 2:
            pytest.skip("BLAS does not run on two threads here")
        threads = [threading.Thread(target=hold, daemon=True)]
        threads[0].start()
        assert held.wait(20)
        # a forward too small for lanes waits for no hold: it runs at once,
        # at the one BLAS thread the hold set
        monkeypatch.setattr(runtime, "LANE_MACS", runtime._conv_macs(g) + 1)
        run_forward(g, store, x)
        assert set(seen) == {(0, 1)}
        seen.clear()
        monkeypatch.setattr(runtime, "LANE_MACS", 0)
        threads.append(threading.Thread(target=run_pass, name="forward", daemon=True))
        threads[1].start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert blas.threads() == 2
    assert set(done) == {"reached", "forward"} and done["reached"]
    assert seen and set(seen) == {(2, 1)}


@needs_limiter
def test_two_lanes_add_no_more_traced_memory_than_their_scratch(monkeypatch):
    # lanes allocate nothing: the calling thread allocates every lane's
    # scratch through ops._per_lane, so no primitive call of a two-lane
    # forward may peak above the same call at one lane by more than the
    # extra lanes' scratch, and so neither may the whole forward
    split_everything(monkeypatch, 64 * 1024)
    per_lane = ops._per_lane
    calls: list[list[int]] = []  # per primitive call: [peak above its start, extra lanes' scratch]

    def counted(lanes, shape, dtype):
        calls[-1][1] += (lanes - 1) * int(np.prod(shape)) * np.dtype(dtype).itemsize
        return per_lane(lanes, shape, dtype)

    def per_op(fn):
        def wrapped(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            calls.append([0, 0])
            out = fn(*args, **kwargs)
            calls[-1][0] = tracemalloc.get_traced_memory()[1] - start
            return out

        return wrapped

    monkeypatch.setattr(ops, "_per_lane", counted)
    for name in ("conv2d_fwd", "batchnorm_fwd", "relu_fwd", "add_fwd", "bilinear_up2_fwd"):
        monkeypatch.setattr(ops, name, per_op(getattr(ops, name)))
    shape = (1, 3, 128, 256)
    g = infer_shapes(build_uhrnet(parse_structure("1v1="), NetworkConfig(base_width=4, blocks_per_branch=2)), shape)
    store = init_weights(g, 5)
    x = verification_input(shape, 5).data
    peaks, runs = {}, {}
    for lanes in (1, 2):
        with blas_threads(lanes):
            run_forward(g, store, x)  # warm: first-call allocations stay out of the peak
            tracemalloc.start()
            try:
                calls.clear()
                run_forward(g, store, x)
                peaks[lanes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs[lanes] = [list(c) for c in calls]
    # plus the pool thread's state and the parts' array views: small objects
    bookkeeping = 64 * 1024
    assert len(runs[1]) == len(runs[2]) and any(scratch for _, scratch in runs[2])
    for (one, _), (two, scratch) in zip(runs[1], runs[2]):
        assert two <= one + scratch + bookkeeping, (one, two, scratch)
    assert peaks[2] <= peaks[1] + max(scratch for _, scratch in runs[2]) + bookkeeping, peaks
