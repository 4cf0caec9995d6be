"""Forward bytes pinned against ``golden/forward_sha.json`` and
``golden/forward_bn_sha.json``.

The goldens hold one SHA-256 per forward: micro and the paper's pair at
1x3x256x512, in float32 and float64, with ``init_weights(g, 1)`` and
``verification_input(shape, 3)``, BLAS held at one thread and no lanes.
``init_weights`` makes every batchnorm the identity, whose shift is exactly
0, so the second golden draws every batchnorm's gamma, beta, mean and var
(``drawn_batchnorms``) over the same conv weights.

The bytes depend on the BLAS build, so each golden also holds the key it
was recorded under: the numpy version and the config string and core name
of the OpenBLAS in numpy's wheel.  Where this machine's key differs, the
test compares the float32 output with the float64 one instead and warns
that bytes were not compared.

A change that moves forward bytes on purpose re-records the goldens:

    PYTHONPATH=src python tests/test_forward_golden.py
"""

import ctypes
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from uhrkit import presets, runtime
from uhrkit.graph import infer_shapes

GOLDEN = Path(__file__).parent / "golden" / "forward_sha.json"
GOLDEN_BN = Path(__file__).parent / "golden" / "forward_bn_sha.json"
CASES = {
    "micro": (None, presets.MICRO_INPUT_SHAPE),
    "uhrnet-w18-small": ("uhrnet-w18-small", (1, 3, 256, 512)),
    "hrnetv2-w18-small-v2": ("hrnetv2-w18-small-v2", (1, 3, 256, 512)),
}


def blas_key() -> dict[str, str]:
    """The numpy version and the build of the OpenBLAS bundled in numpy's
    wheel, read through ctypes; the BLAS fields are empty without one."""
    key = {"numpy": np.__version__, "blas_config": "", "blas_core": ""}
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            config = getattr(lib, f"{prefix}_get_config64_", None)
            core = getattr(lib, f"{prefix}_get_corename64_", None)
            if config is not None and core is not None:
                config.argtypes, core.argtypes = [], []
                config.restype = core.restype = ctypes.c_char_p
                return key | {"blas_config": config().decode(), "blas_core": core().decode()}
    return key


def drawn_batchnorms(g, store: runtime.WeightStore) -> runtime.WeightStore:
    """``store`` with every batchnorm parameter drawn from seed 11: gamma
    about 1, beta and mean about 0, var positive."""
    arrays = store.arrays.copy()
    for name, _nid, kind, shape in runtime.param_entries(g):
        if kind != "conv.w":
            z = 0.25 * runtime._normals(11, name, shape[0])
            arrays[name] = {"bn.gamma": 1 + z, "bn.var": np.exp(z)}.get(kind, z).astype(np.float32)
    return runtime.WeightStore(store.seed, arrays)


def forwards(case: str, drawn: bool = False) -> dict[str, np.ndarray]:
    """The case's outputs by dtype name, BLAS held at one thread; with
    ``drawn``, over drawn batchnorms."""
    preset, shape = CASES[case]
    g = infer_shapes(presets.build_micro() if preset is None else presets.build(preset), shape)
    store = runtime.init_weights(g, 1)
    if drawn:
        store = drawn_batchnorms(g, store)
    x = runtime.verification_input(shape, 3).data
    outs = {}
    with runtime._blas().hold():
        assert runtime._forward_lanes(runtime._conv_macs(g))[2] == 0  # no lanes
        for dtype in (np.float32, np.float64):
            outs[np.dtype(dtype).name], _ = runtime.run_forward(g, store.astype(dtype), x.astype(dtype))
    return outs


def digests(outs: dict[str, np.ndarray]) -> dict[str, str]:
    return {name: hashlib.sha256(y.tobytes()).hexdigest() for name, y in outs.items()}


def compare(golden_path: Path, case: str, outs: dict[str, np.ndarray]) -> None:
    golden = json.loads(golden_path.read_text())
    key = blas_key()
    if runtime._blas().name != "none" and key == golden["key"]:
        assert digests(outs) == golden["sha256"][case]
        return
    # another build rounds otherwise: check the values, and say so
    f32, f64 = outs["float32"], outs["float64"]
    assert np.max(np.abs(f32 - f64)) <= 1e-4 * np.max(np.abs(f64))
    warnings.warn(
        f"forward bytes of {case} not compared: recorded under {golden['key']}, this machine has {key} "
        f"with BLAS limiter {runtime._blas().name}; float32 matched float64 to 1e-4 instead"
    )


@pytest.mark.parametrize("case", CASES)
def test_forward_bytes_match_the_golden(case):
    compare(GOLDEN, case, forwards(case))


@pytest.mark.parametrize("case", CASES)
def test_forward_bytes_over_drawn_batchnorms_match_the_golden(case):
    compare(GOLDEN_BN, case, forwards(case, drawn=True))


if __name__ == "__main__":
    for path, drawn in ((GOLDEN, False), (GOLDEN_BN, True)):
        doc = {"key": blas_key(), "sha256": {case: digests(forwards(case, drawn)) for case in CASES}}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"recorded {path}")
