import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from uhrkit import analysis, cli, graph, ops, presets, runtime
from uhrkit.cli import main
from uhrkit.graph import infer_shapes
from uhrkit.ops import Tensor
from uhrkit.runtime import load_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys):
    code, out, _ = run(capsys, "parse", "1v1v2v2v2^1^1^1^1")
    assert code == 0
    assert "canonical: 1v1v2v2v2^1^1^1^1" in out
    assert out.count("1/64") == 1  # only stage 5 holds the deepest stream


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "1v1v3v2=", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["stages"] == [1, 1, 3, 2]
    assert doc["terminal_two_branch"] is True
    assert doc["stage_levels"] == [[0], [0, 1], [1, 2], [2, 3]]


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-m", "uhrkit", "parse", "1v1", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["canonical"] == "1v1"


def test_import_starts_no_pools_and_builds_no_blas_handle():
    # cost queries import the package and never run a forward, so importing
    # must not pay for lanes, worker pools or the BLAS handle
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import json, sys; import uhrkit, uhrkit.cli; "
        "heavy = ('concurrent.futures', 'multiprocessing', 'threadpoolctl'); "
        "print(json.dumps([[m for m in heavy if m in sys.modules], uhrkit.runtime._blas.cache_info().currsize]))"
    )
    r = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[], 0]


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "1v^")
    assert code == 2
    assert "position 2" in err
    assert "^" in err.splitlines()[-1]


def test_summarize_preset_auto(capsys):
    code, out, _ = run(
        capsys, "summarize", "--preset", "uhrnet-w18-small", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["total"]["gflops"] - 73.1) / 73.1 < 0.03
    assert doc["calibration"]["within_tolerance"] is True


def test_auto_convention_calibrates_once_per_process(capsys, monkeypatch):
    calls = []
    calibrate = analysis.calibrate_convention
    monkeypatch.setattr(analysis, "calibrate_convention", lambda b: calls.append(1) or calibrate(b))
    cli._calibrated_convention.cache_clear()
    outs = [run(capsys, "summarize", "--preset", "uhrnet-w18-small", "--json")[1] for _ in range(2)]
    assert run(capsys, "compare", "--a", "uhrnet-w18-small", "--b", "hrnetv2-w18-small-v2")[0] == 0
    assert len(calls) == 1
    assert outs[0] == outs[1]


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys):
    cli._build_parser.cache_clear()
    query = ["summarize", "--structure", "1v1v3v2=", "--convention", "mac=1,head=on,cls=19", "--json"]
    first = run(capsys, *query)
    assert run(capsys, *query, "--width", "36")[1] != first[1]
    assert run(capsys, *query) == first  # the default width comes back
    assert run(capsys, *query, "--width", "18") == first
    with pytest.raises(SystemExit) as e:  # --width parses before --blocks fails
        main([*query, "--width", "36", "--blocks", "0"])
    assert e.value.code == 2
    capsys.readouterr()
    assert run(capsys, *query) == first
    assert cli._build_parser().parse_args(query).width == 18
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 6)  # built by the first call, reused by the rest


GOLDEN = Path(__file__).parent / "golden"
# non-default width, blocks and fusion, under the calibrated convention
STRUCTURE_QUERY = [
    "summarize", "--structure", "1v2v1v1v1^2^1^1^1", "--width", "36", "--blocks", "1", "--fusion", "a",
]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["summarize", "--preset", "uhrnet-w18-small"], "summarize_uhrnet-w18-small.txt"),
        (["summarize", "--preset", "uhrnet-w18-small", "--json"], "summarize_uhrnet-w18-small.json"),
        (
            ["compare", "--a", "uhrnet-w18-small", "--b", "hrnetv2-w18-small-v2", "--json"],
            "compare_uhrnet-w18-small_hrnetv2-w18-small-v2.json",
        ),
        (STRUCTURE_QUERY, "summarize_structure_w36_b1_fusion-a.txt"),
        ([*STRUCTURE_QUERY, "--json"], "summarize_structure_w36_b1_fusion-a.json"),
    ],
    ids=["summarize-text", "summarize-json", "compare-json", "structure-text", "structure-json"],
)
def test_cost_query_stdout_is_pinned(capsys, argv, golden):
    """Byte-for-byte stdout for the paper's pair and for a structure query off
    every default; a refactor of the cost path must keep these bytes."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# SHA-256 of each preset's `export` file at the cost input: node ids, order,
# attrs, roles, shapes and meta, byte for byte
EXPORT_DIGESTS = {
    "uhrnet-w48": "2fe5eea7cb058ce1a5f43267f7840f2475f1b95e30434ff5aae2618104f249a3",
    "uhrnet-w18-small": "7e5473bbf94fbd4528c8317b19748d6c0ad4a313d12f6bd0a203c664069b8782",
    "uhrnet-w18-small-va": "1e6686afc9afee51fa68115f42ada315556d685d5304e5ec4ac50e107cc1fbee",
    "uhrnet-w18-small-vb": "5e34b3960a30c3a75045069b0e620be5c5fb57e01af18b0c27f961a27360e0d2",
    "uhrnet-w18-small-vc": "345b975f8893c734635ebafbb47dff8c936360d84c5e282dc34d49233c43def5",
    "uhrnet-w18-small-vd": "5094511203545a99556440bb829ecb221354383e390b22ea25a0d46aa3b3b7c9",
    "uhrnet-w18-small-ve": "84124b77eb6654e740bbed3f6269640cdd2afbc1531faf146cf96632ef3bd9f2",
    "uhrnet-w18-small-vf": "409c811ca249266fcaf882907110930c91ff50dbb23250891912c0922f1d0716",
    "uhrnet-w18-small-vg": "3c8f3f5cc01ee1e30c9d60e44cc85f242c7c24ee4a20a845d23e88bc4d8c5de4",
    "uhrnet-w18-small-vh": "87e443df8db9dde5616ed036c7f8e561e9fda3e8f235b679fb78816449f026d3",
    "hrnetv2-w18-small-v1": "c0d2a36646c0d1d0b57960109dd42dfdb3b61b80de8da565138a489bcc67db05",
    "hrnetv2-w18-small-v2": "4da8f2d26aa49aa4fcff7b0070dc96e0a94cf76bf6d239eb568ba027c4a1f066",
    "hrnetv2-w48": "1a3a37775012e9c8101dc4f07d979c72487ffad874513f7a26ae4dfd11a1047e",
}


@pytest.mark.parametrize("preset", list(EXPORT_DIGESTS))
def test_export_file_is_pinned(tmp_path, capsys, preset):
    """Every preset's exported graph file, byte for byte."""
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "export", "--preset", preset, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_DIGESTS[preset]


def test_summarize_structure(capsys):
    code, out, _ = run(
        capsys,
        "summarize", "--structure", "1v1v3v2=", "--width", "18", "--blocks", "2",
        "--convention", "mac=1,bn=off,relu=off,up=off,head=on,cls=19,unit=gi",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["total"]["gflops"] - 58.6) / 58.6 < 0.01


def test_summarize_indivisible_exit_3(capsys):
    code, _, err = run(
        capsys, "summarize", "--preset", "uhrnet-w18-small", "--input", "1x3x100x100"
    )
    assert code == 3
    assert "divisible" in err


def test_summarize_unknown_preset_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["summarize", "--preset", "nope"])
    assert e.value.code == 2


def test_compare(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--a", "uhrnet-w18-small", "--b", "hrnetv2-w18-small-v2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert 1.0 < doc["total"]["delta_gflops"] < 2.0
    roles = {r["role"] for r in doc["rows"]}
    assert "head" in roles and "stage5" in roles


def test_compare_self_zero(capsys):
    code, out, _ = run(
        capsys, "compare", "--a", "hrnetv2-w48", "--b", "hrnetv2-w48", "--json"
    )
    assert code == 0
    assert json.loads(out)["total"]["delta_gflops"] == 0


def test_init_forward_export_flow(tmp_path, capsys):
    weights = tmp_path / "w.hrws"
    code, out, _ = run(
        capsys, "init", "--preset", "uhrnet-w18-small-va", "--seed", "9", "--out", str(weights)
    )
    assert code == 0 and weights.exists()
    store = load_weights(weights)
    assert store.seed == 9

    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32))
    xfile = tmp_path / "x.hrtf"
    ops.write_tensor(xfile, x)
    yfile = tmp_path / "y.hrtf"
    code, out, _ = run(
        capsys,
        "forward", "--preset", "uhrnet-w18-small-va", "--weights", str(weights),
        "--input-file", str(xfile), "--out-file", str(yfile), "--json",
    )
    assert code == 0
    assert json.loads(out)["out_shape"] == [1, 270, 16, 16]
    y = ops.read_tensor(yfile)
    assert np.isfinite(y.data).all()

    gfile = tmp_path / "g.json"
    code, out, _ = run(
        capsys,
        "export", "--preset", "uhrnet-w18-small-va", "--input", "1x3x64x64", "--out", str(gfile),
    )
    assert code == 0
    doc = json.loads(gfile.read_text())
    assert doc["output_id"] == "head.conv.relu"


def test_forward_json_reports_dtype_time_and_finiteness(tmp_path, capsys):
    x = np.random.default_rng(1).normal(size=(1, 3, 64, 64))
    for name, data, finite in (("f64", x, True), ("nan", np.where(x > 2, np.nan, x).astype(np.float32), False)):
        xfile, yfile = tmp_path / f"{name}.hrtf", tmp_path / f"{name}.out.hrtf"
        ops.write_tensor(xfile, data)
        code, out, err = run(
            capsys,
            "forward", "--preset", "uhrnet-w18-small-va", "--input-file", str(xfile),
            "--out-file", str(yfile), "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dtype"] == str(data.dtype) == str(ops.read_tensor(yfile).dtype)
        assert doc["finite"] is finite is bool(np.isfinite(ops.read_tensor(yfile).data).all())
        assert isinstance(doc["elapsed_s"], float) and doc["elapsed_s"] >= 0
        assert ("warning:" in err) is not finite
        blas = runtime._blas()
        assert (doc["blas_limiter"], doc["blas_core"], doc["blas_threads"]) == (blas.name, blas.core, blas.threads())
        g = infer_shapes(presets.build("uhrnet-w18-small-va"), data.shape)
        assert doc["lanes"] == max(1, runtime._forward_lanes(runtime._conv_macs(g))[2]) == 1  # too small to open lanes
    limiter = blas.name
    if limiter != "none":  # the count is read when the pass runs
        argv = ["forward", "--preset", "uhrnet-w18-small-va", "--input-file", str(xfile), "--out-file", str(yfile)]
        with blas.hold():
            doc = json.loads(run(capsys, *argv, "--json")[1])
            text = run(capsys, *argv)[1]
        assert (doc["blas_limiter"], doc["blas_threads"], doc["lanes"]) == (limiter, 1, 1)
        assert f"on 1 lane (BLAS limiter {limiter}, threads 1)" in text


def test_forward_reports_the_planned_arena(tmp_path, capsys):
    # the bytes of the arena run_forward maps, from the same plan: per
    # sample, scaled by the batch and the item size
    g = infer_shapes(presets.build("uhrnet-w18-small-va"), (1, 3, 64, 64))
    planned = runtime._Exec(g, runtime.init_weights(g, 0), np.float32).arena
    for batch, dtype in ((1, np.float32), (2, np.float64)):
        xfile, yfile = tmp_path / "x.hrtf", tmp_path / "y.hrtf"
        ops.write_tensor(xfile, np.zeros((batch, 3, 64, 64), dtype))
        argv = ["forward", "--preset", "uhrnet-w18-small-va", "--input-file", str(xfile), "--out-file", str(yfile)]
        doc = json.loads(run(capsys, *argv, "--json")[1])
        assert doc["arena_bytes"] == planned * batch * np.dtype(dtype).itemsize > 0
        assert f"), arena {doc['arena_bytes'] / 2**20:.1f} MiB -> " in run(capsys, *argv)[1]


def test_forward_missing_weights_exit_4(tmp_path, capsys):
    x = tmp_path / "x.hrtf"
    ops.write_tensor(x, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    code, _, err = run(
        capsys,
        "forward", "--preset", "uhrnet-w18-small-va", "--weights", str(tmp_path / "missing.hrws"),
        "--input-file", str(x), "--out-file", str(tmp_path / "y.hrtf"),
    )
    assert code == 4


def test_repeated_weight_name_rejected_exit_4(tmp_path, capsys):
    # a valid CRC over two entries under one name: the second must not
    # silently replace the first
    entries = []
    for value in (1.0, 2.0):
        name = b"stem.conv1.bn.gamma"
        head, payload = ops._encode_entry(np.full(4, value, dtype=np.float32))
        entries.append(struct.pack("<H", len(name)) + name + head + payload.tobytes())
    body = b"".join(entries)
    path = tmp_path / "w.hrws"
    path.write_bytes(
        runtime.WEIGHTS_MAGIC + struct.pack("<IQI", runtime.WEIGHTS_VERSION, 0, 2) + body
        + struct.pack("<I", zlib.crc32(body))
    )
    with pytest.raises(ops.FormatError, match=f"repeated tensor name .* \\(offset {20 + len(entries[0])}\\)"):
        load_weights(path)
    x = tmp_path / "x.hrtf"
    ops.write_tensor(x, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    code, _, err = run(
        capsys,
        "forward", "--preset", "uhrnet-w18-small-va", "--weights", str(path),
        "--input-file", str(x), "--out-file", str(tmp_path / "y.hrtf"),
    )
    assert code == 4
    assert "repeated tensor name" in err


def test_forward_bad_input_shape_exit_3(tmp_path, capsys):
    x = tmp_path / "x.hrtf"
    ops.write_tensor(x, Tensor(np.zeros((1, 3, 50, 50), dtype=np.float32)))
    code, _, _ = run(
        capsys,
        "forward", "--preset", "uhrnet-w18-small-va",
        "--input-file", str(x), "--out-file", str(tmp_path / "y.hrtf"),
    )
    assert code == 3


def test_summarize_unbuildable_structure_exit_2(capsys):
    code, _, err = run(capsys, "summarize", "--structure", "1v1")
    assert code == 2
    assert "upsampling" in err


def test_gradcheck_micro_zero_tolerance_exit_5(capsys):
    code, out, _ = run(
        capsys, "gradcheck", "--micro", "--seed", "7", "--samples", "1", "--tol", "0", "--json"
    )
    assert code == 5
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["params"]  # per-parameter entries listed


@pytest.mark.parametrize(
    "setting", ["--eps=0", "--eps=-1e-4", "--samples=0", "--tol=inf", "--tol=nan", "--tol=-1e-5"]
)
def test_gradcheck_bad_settings_exit_2(capsys, setting):
    code, out, err = run(capsys, "gradcheck", "--micro", setting)
    assert code == 2
    assert "PASS" not in out
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["summarize", "--structure", "1v1v1v1v1^1^1^1^1", "--width", "1000"], 2),
        (["summarize", "--structure", "1v1v3v2=", "--width", "0"], 2),
        (["summarize", "--structure", "1v1v3v2=", "--blocks", "0"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "bn=maybe"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "mac=two"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "cls=1.5"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "unit=foo"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "mac=0"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "mac=-1"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "cls=-5"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "bn=true"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "bn=1"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "relu=false"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "upsample=on"], 2),
        (["summarize", "--preset", "uhrnet-w18-small", "--convention", "classifier=19"], 2),
        (["forward", "--preset", "uhrnet-w18-small-va", "--weights", "{other}",
          "--input-file", "{x}", "--out-file", "{y}"], 4),
        (["forward", "--preset", "uhrnet-w18-small-va", "--weights", "{v1}",
          "--input-file", "{x}", "--out-file", "{y}"], 4),
        (["init", "--preset", "uhrnet-w18-small-va", "--seed", "-1", "--out", "{w}"], 2),
        (["init", "--preset", "uhrnet-w18-small-va", "--seed", str(2**64), "--out", "{w}"], 2),
        (["forward", "--preset", "uhrnet-w18-small-va", "--seed", "-1",
          "--input-file", "{x}", "--out-file", "{y}"], 2),
        (["gradcheck", "--micro", "--seed", str(2**64)], 2),
    ],
    ids=["width-overflow", "width-0", "blocks-0", "bn-flag", "mac-int", "cls-int", "unit-name", "mac-0",
         "mac-negative", "cls-negative", "bn-true", "bn-1", "relu-false", "upsample-alias", "classifier-alias",
         "weights-other-preset", "weights-other-shapes", "init-seed-negative",
         "init-seed-2^64", "forward-seed-negative", "gradcheck-seed-2^64"],
)
def test_bad_input_maps_to_exit_code(tmp_path, capsys, argv, code):
    files = {"x": tmp_path / "x.hrtf", "y": tmp_path / "y.hrtf", "w": tmp_path / "w.hrws"}
    # "other" has tensor names the graph lacks; "v1" has the graph's names
    # with other shapes
    for key, preset in (("other", "hrnetv2-w18-small-v2"), ("v1", "hrnetv2-w18-small-v1")):
        files[key] = tmp_path / f"{key}.hrws"
        if f"{{{key}}}" in argv:
            assert main(["init", "--preset", preset, "--out", str(files[key])]) == 0
            ops.write_tensor(files["x"], np.zeros((1, 3, 64, 64), dtype=np.float32))
    argv = [a.format(**files) for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "error:" in err and "Traceback" not in err
    assert not files["y"].exists() and not files["w"].exists()


def test_graph_over_the_node_cap_exits_2(capsys, monkeypatch):
    argv = ["summarize", "--structure", "1v1v2v2v2^1^1^1^1", "--convention", "mac=1", "--json"]
    monkeypatch.setattr(graph, "MAX_NODES", 1000)
    assert run(capsys, *argv, "--blocks", "2")[0] == 0  # 468 nodes
    code, out, err = run(capsys, *argv, "--blocks", "20")  # 3,294 nodes
    assert code == 2 and out == ""
    assert err.startswith("error:") and "1000 nodes" in err and "Traceback" not in err


def _weight_file(entries: bytes, version: int = runtime.WEIGHTS_VERSION, magic: bytes = runtime.WEIGHTS_MAGIC) -> bytes:
    """A weight file of one entry region, with a valid checksum."""
    return magic + struct.pack("<IQI", version, 0, 1) + entries + struct.pack("<I", zlib.crc32(entries))


_HEAD, _PAYLOAD = ops._encode_entry(np.zeros(2, np.float32))
_ENTRY = _HEAD + _PAYLOAD.tobytes()
_TENSOR_HEAD = ops.TENSOR_MAGIC + struct.pack("<I", ops.TENSOR_VERSION)


@pytest.mark.parametrize(
    "weights, tensor, message",
    [
        (b"HRWS" + bytes(10), None, "too short for a weight-store header"),
        (_weight_file(b"", magic=b"WSRH"), None, "bad magic"),
        (_weight_file(b"", version=2), None, "unsupported version 2"),
        (_weight_file(struct.pack("<H", 2) + b"\xff\xfe" + _ENTRY), None, "corrupt entry name"),
        (None, b"HRTF\x01", "too short for a tensor header"),
        (None, ops.TENSOR_MAGIC + struct.pack("<I", 2) + _ENTRY, "unsupported version 2"),
        (None, _TENSOR_HEAD + b"\x07" + _ENTRY[1:], "unknown dtype code 7"),
        (None, _TENSOR_HEAD + b"\x00", "truncated entry header"),
        (None, _TENSOR_HEAD + b"\x00\x04" + bytes(8), "truncated dimension list"),
    ],
    ids=["weights-short", "weights-magic", "weights-version", "weights-name", "tensor-short", "tensor-version",
         "tensor-dtype", "tensor-entry-header", "tensor-dims"],
)
def test_malformed_file_exits_4(tmp_path, capsys, weights, tensor, message):
    x, y = tmp_path / "x.hrtf", tmp_path / "y.hrtf"
    argv = ["forward", "--preset", "uhrnet-w18-small-va", "--input-file", str(x), "--out-file", str(y)]
    if weights is None:
        x.write_bytes(tensor)
    else:
        ops.write_tensor(x, np.zeros((1, 3, 64, 64), dtype=np.float32))
        (tmp_path / "w.hrws").write_bytes(weights)
        argv += ["--weights", str(tmp_path / "w.hrws")]
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not y.exists()


def test_gradcheck_text_report_fails_at_zero_tolerance(capsys):
    code, out, _ = run(capsys, "gradcheck", "--micro", "--seed", "7", "--samples", "1", "--tol", "0")
    assert code == 5
    assert any(line.startswith("max relative error") and line.endswith("vs tolerance 0 -> FAIL") for line in out.splitlines())


def test_init_json(tmp_path, capsys):
    path = tmp_path / "w.hrws"
    code, out, _ = run(capsys, "init", "--preset", "uhrnet-w18-small-va", "--seed", "3", "--out", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    store = load_weights(path)
    assert doc == {"preset": "uhrnet-w18-small-va", "seed": 3, "entries": len(store.arrays),
                   "values": sum(a.size for a in store.arrays.values()), "path": str(path)}  # fmt: skip


def test_parse_notes_an_unbuildable_encoding(capsys):
    code, out, _ = run(capsys, "parse", "1v1")
    assert code == 0
    assert out.splitlines()[-1].startswith("note: not buildable as given: a one-branch final stage")
