"""Named model presets and their published reference costs.

``REFERENCE_GFLOPS`` holds the published cost figures for each preset at
the canonical 1x3x1024x2048 cost input, as reported for this model family;
``BASELINE_GFLOPS`` is the subset used as calibration anchors for the
counting convention.  These are data, not measurements made here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .dsl import parse_structure
from .graph import LayerGraph, NetworkConfig, UnknownPreset, build_hrnetv2, build_uhrnet

COST_INPUT_SHAPE = (1, 3, 1024, 2048)

# Published totals for the family at 1024x2048 (backbone + representation
# head + 19-class conv under the calibrated convention).
REFERENCE_GFLOPS: dict[str, float] = {
    "hrnetv2-w18-small-v1": 31.1,
    "hrnetv2-w18-small-v2": 71.6,
    "hrnetv2-w48": 696.2,
    "uhrnet-w18-small": 73.1,
    "uhrnet-w18-small-va": 58.6,
    "uhrnet-w18-small-vb": 67.7,
    "uhrnet-w18-small-vc": 73.8,
    "uhrnet-w18-small-vd": 67.7,
    "uhrnet-w18-small-ve": 72.2,
    "uhrnet-w18-small-vf": 73.1,
    "uhrnet-w18-small-vg": 73.1,
    "uhrnet-w18-small-vh": 73.1,
    "uhrnet-w48": 698.6,
}

BASELINE_GFLOPS: dict[str, float] = {
    "hrnetv2-w18-small-v2": 71.6,
    "hrnetv2-w48": 696.2,
}


@dataclass(frozen=True)
class Preset:
    name: str
    family: str  # "uhrnet" | "hrnetv2"
    structure: str | None  # encoding for the uhrnet family
    width: int
    blocks: int
    fusion_kind: str = "FusionB"


def _u(name, structure, width, blocks, fusion="FusionB"):
    return Preset(name, "uhrnet", structure, width, blocks, fusion)


_SMALL = "1v1v2v2v2^1^1^1^1"

REGISTRY: "OrderedDict[str, Preset]" = OrderedDict(
    (p.name, p)
    for p in (
        # the full model's third stage holds 5 hr-modules; the small variant
        # drops that to 2 and halves the blocks per branch
        _u("uhrnet-w48", "1v1v5v2v2^1^1^1^1", 48, 4),
        _u("uhrnet-w18-small", _SMALL, 18, 2),
        _u("uhrnet-w18-small-va", "1v1v3v2=", 18, 2),
        _u("uhrnet-w18-small-vb", "1v1v3v5=", 18, 2),
        _u("uhrnet-w18-small-vc", "1v1v3v7=", 18, 2),
        _u("uhrnet-w18-small-vd", "1v1v2v5^1=", 18, 2),
        _u("uhrnet-w18-small-ve", "1v1v2v5^1^1^1", 18, 2),
        _u("uhrnet-w18-small-vf", "1v1v4v1v1^1^1^1^1", 18, 2),
        _u("uhrnet-w18-small-vg", "1v1v2v1v1^1^2^2^1", 18, 2),
        _u("uhrnet-w18-small-vh", _SMALL, 18, 2, "FusionA"),
        Preset("hrnetv2-w18-small-v1", "hrnetv2", None, 16, 2),
        Preset("hrnetv2-w18-small-v2", "hrnetv2", None, 18, 2),
        Preset("hrnetv2-w48", "hrnetv2", None, 48, 4),
    )
)


def names() -> list[str]:
    return list(REGISTRY)


def get(name: str) -> Preset:
    try:
        return REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise UnknownPreset(f"unknown preset {name!r}; known presets: {known}") from None


def build(name: str) -> LayerGraph:
    """Construct the layer graph of a registered preset."""
    p = get(name)
    if p.family == "hrnetv2":
        return build_hrnetv2(p.name.removeprefix("hrnetv2-"), label=p.name)
    seq = parse_structure(p.structure)
    cfg = NetworkConfig(
        base_width=p.width,
        blocks_per_branch=p.blocks,
        fusion_kind=p.fusion_kind,
    )
    return build_uhrnet(seq, cfg, label=p.name)


# Standard micro configuration for gradient verification: the small layout
# at base width 4 on a 64x64 input finishes a full check in seconds.
MICRO_WIDTH = 4
MICRO_INPUT_SHAPE = (1, 3, 64, 64)


def build_micro() -> LayerGraph:
    seq = parse_structure(_SMALL)
    cfg = NetworkConfig(base_width=MICRO_WIDTH, blocks_per_branch=2)
    return build_uhrnet(seq, cfg, label="micro")
