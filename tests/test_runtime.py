import contextlib
import inspect
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
    NetworkConfig,
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
    # the walk fuses conv+bn and overwrites dead buffers unless activations
    # are kept; both must give the same bytes and leave the input alone
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
    assert reused.tobytes() == out.tobytes()  # the fused conv+bn path too
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


def test_micro_graph_places_producers_into_concats():
    # upsamples and channel pools whose sole consumer is a concat are written
    # straight into its output, so the reuse test above covers placement
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    ex = runtime._Exec(g, init_weights(g, 0), np.float32)
    kinds = [g.node(src).kind for src in ex.placed]
    assert (kinds.count("upsample"), kinds.count("chpool"), len(kinds)) == (4, 7, 11)
    for src, (cat, off) in ex.placed.items():
        assert [n.id for n in g.nodes if src in n.inputs] == [cat.id]
        assert cat.kind == "concat"
        assert off == sum(g.node(i).out_shape[1] for i in cat.inputs[: cat.inputs.index(src)])


def test_replay_places_producer_while_concat_reads_base(monkeypatch):
    # a replay that holds a placed producer but reads the concat's other
    # inputs from the baseline activations gives the bytes of a kept walk
    g = infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)
    store = init_weights(g, 3).astype(np.float64)
    ex = runtime._Exec(g, store, np.float64)
    _, acts = run_forward(g, store, verification_input(g.nodes[0].out_shape, 3).data.astype(np.float64), True)
    for src, (cat, _) in ex.placed.items():
        owner = g.node(src).inputs[0]
        sub = runtime._descendants(g, owner)
        if any(i not in {n.id for n in sub} for i in cat.inputs):
            break
    else:
        pytest.fail("no placed producer whose concat reads another input from base")
    placed = []
    pool, up = ops.channel_pool2_fwd, ops.bilinear_up2_fwd
    monkeypatch.setattr(ops, "channel_pool2_fwd", lambda *a, out=None: placed.append(out is not None) or pool(*a, out=out))
    monkeypatch.setattr(ops, "bilinear_up2_fwd", lambda x, out=None: placed.append(out is not None) or up(x, out=out))
    lanes = np.repeat(acts[owner], 3, axis=0)
    lanes += np.random.default_rng(0).normal(scale=1e-3, size=lanes.shape)
    got, _ = ex.walk(sub, {owner: lanes.copy()}, base=acts)
    assert any(placed)
    want, _ = ex.walk(sub, {owner: lanes.copy()}, keep=True, base=acts)
    assert got.shape[0] == 3
    assert got.tobytes() == want.tobytes()


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
        grads, _input_grad, _ = run_backward(g, store, acts, np.full(out.shape, 1.0 / out.size))
        assert all(np.isfinite(v).all() for v in grads.values()), name


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


@needs_limiter
def test_gradcheck_workers_do_not_change_results(monkeypatch):
    # one core runs the forked workers' entry point once, in the calling
    # process and thread, over every tensor
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
    # a check in a second thread must wait instead of replacing it mid-run
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
    assert all(p.sampled == p.checked + p.skipped_kinks for p in rep.params)
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
    monkeypatch.setattr(ops, "SPLIT_MACS_1X1", 0)
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
                assert runtime._forward_lanes(g)[1:] == (lanes, lanes)
                outs[lanes], _ = run_forward(g, store, x)
        assert outs[1].dtype == dtype
        assert outs[1].tobytes() == outs[2].tobytes()


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
        assert runtime._forward_lanes(g) == (blas, 2, 0)
        run_forward(g, store, x)
        assert set(seen) == {(0, 2)}
        seen.clear()
        monkeypatch.setattr(runtime, "LANE_MACS", runtime._conv_macs(g))
        assert runtime._forward_lanes(g) == (blas, 2, 2)
        run_forward(g, store, x)
        assert set(seen) == {(2, 1)}
        assert blas.threads() == 2  # restored
    # more BLAS threads than GEMM_PARTS were never measured: no lanes either
    many = replace(blas, threads=lambda: ops.GEMM_PARTS + 1)
    monkeypatch.setattr(runtime, "_blas", lambda: many)
    assert runtime._forward_lanes(g) == (many, ops.GEMM_PARTS + 1, 0)


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
