"""Layer-graph construction for the high-resolution backbone family.

A :class:`LayerGraph` is a topologically ordered list of primitive nodes
(conv / batchnorm / relu / bilinear upsample / channel pool / concat / add)
with a single output.  It is the single source of truth for the reference
executor, the cost model, and the JSON export, so every structural decision
lives here:

* the stem is two 3x3 stride-2 convolutions to 64 channels, BN+ReLU each;
* stage 1 is a run of bottleneck blocks of internal width 64 (output 256);
* the first transition maps the 256-channel stage-1 output into each stage-2
  branch directly (3x3 to width C at 1/4, 3x3 stride 2 to 2C at 1/8);
* two-branch stages run `blocks_per_branch` basic blocks per branch and end
  each hr-module with a cross-resolution exchange (add + ReLU);
* moving down creates the new branch with a 3x3 stride-2 conv from the
  inherited branch; moving up creates it with a width-halving 1x1 conv plus
  a x2 bilinear upsample, merged with the matching skip feature through the
  configured fusion (channel-pool+concat by default, add+ReLU optionally);
* the head takes the most recent feature of every live resolution, channel
  pools each by 2 when the 1/64 stream exists (keeping the concat width at
  15.5C instead of 31C), upsamples everything to 1/4 and concatenates, then
  applies a width-preserving 1x1 conv + BN + ReLU.

Channel widths follow ``C * 2**level`` for levels 0..4 (1/4 .. 1/64).  No
convolution carries a bias: a BN follows every conv.  Both families share
the stem and stage 1 (``_trunk``), the hr-modules and the head.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .dsl import Direction, StageSequence, format_structure
from .ops import OddChannelCount, ShapeMismatch

GRAPH_FORMAT_VERSION = 1
STAGE1_BLOCK_WIDTH = 64
BOTTLENECK_EXPANSION = 4


class GraphError(ValueError):
    pass


class InvalidSequence(GraphError):
    pass


class WidthOverflow(GraphError):
    pass


class UnknownPreset(GraphError):
    pass


class IndivisibleInput(GraphError):
    pass


class GraphTooLarge(GraphError):
    pass


@dataclass(slots=True)
class Node:
    """One primitive layer.  ``inputs`` name producer nodes; ``role`` is the
    coarse structural tag (stem / stageN.branchM / transition / fusion /
    head) used for cost rollups.

    Nodes are read-only by contract: no code assigns to a node or mutates
    its ``attrs``, and :func:`infer_shapes` builds new nodes rather than
    editing old ones.  The class is slotted instead of frozen because a
    cost query builds every node twice, and a frozen ``__init__`` sets each
    field through ``object.__setattr__`` at several times the cost."""

    id: str
    kind: str  # input | conv | bn | relu | upsample | chpool | concat | add
    inputs: tuple[str, ...]
    role: str
    attrs: dict = field(default_factory=dict)
    out_shape: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class LayerGraph:
    """Immutable, topologically ordered graph with one output node."""

    nodes: tuple[Node, ...]
    output_id: str
    meta: dict = field(default_factory=dict)

    @cached_property
    def by_id(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    def node(self, node_id: str) -> Node:
        return self.by_id[node_id]

    @property
    def input_id(self) -> str:
        return self.nodes[0].id

    @property
    def shaped(self) -> bool:
        return all(n.out_shape is not None for n in self.nodes)

    def output_node(self) -> Node:
        return self.by_id[self.output_id]


def _check_graph(nodes: list[Node], output_id: str) -> None:
    if not nodes or nodes[0].kind != "input":
        raise GraphError("the first node must be the input")
    seen: set[str] = set()
    for node in nodes:
        if node.id in seen:
            raise GraphError(f"duplicate node id {node.id!r}")
        if node.kind == "input" and seen:
            raise GraphError(f"node {node.id!r} is a second input")
        for src in node.inputs:
            if src not in seen:
                raise GraphError(f"node {node.id!r} consumes {src!r} before it is produced")
        seen.add(node.id)
    if output_id not in seen:
        raise GraphError(f"output node {output_id!r} does not exist")


# Every node kind's attribute names.  A value other than None is the only
# one the executor runs: it upsamples by 2 and averages pairs of channels.
NODE_ATTRS = {
    "input": {"ch": None}, "bn": {"ch": None}, "relu": {}, "concat": {}, "add": {},
    "conv": dict.fromkeys(("k", "stride", "pad", "in_ch", "out_ch")),
    "upsample": {"factor": 2}, "chpool": {"k": 2, "mode": "avg"},
}  # fmt: skip

MAX_NODES = 2**18  # most nodes a built graph may hold; the largest preset has 1,106


class _Builder:
    """Nodes in emission order; :func:`_check_graph` rejects duplicate ids."""

    def __init__(self):
        self.nodes: list[Node] = []

    def emit(self, nid: str, kind: str, inputs: tuple[str, ...], role: str, **attrs) -> str:
        if len(self.nodes) >= MAX_NODES:
            raise GraphTooLarge(f"the graph passes the cap of {MAX_NODES} nodes")
        self.nodes.append(Node(nid, kind, inputs, role, attrs))
        return nid

    def conv(self, nid, x, cin, cout, k, stride, role):
        return self.emit(nid, "conv", (x,), role, k=k, stride=stride, pad=k // 2, in_ch=cin, out_ch=cout)

    def bn(self, nid, x, ch, role):
        return self.emit(nid, "bn", (x,), role, ch=ch)

    def relu(self, nid, x, role):
        return self.emit(nid, "relu", (x,), role)

    def up(self, nid, x, role):
        return self.emit(nid, "upsample", (x,), role, **NODE_ATTRS["upsample"])

    def pool(self, nid, x, role):
        return self.emit(nid, "chpool", (x,), role, **NODE_ATTRS["chpool"])

    def cat(self, nid, xs, role):
        return self.emit(nid, "concat", tuple(xs), role)

    def addop(self, nid, x, y, role):
        return self.emit(nid, "add", (x, y), role)

    def conv_bn(self, prefix, x, cin, cout, k, stride, role):
        y = self.conv(f"{prefix}.conv", x, cin, cout, k, stride, role)
        return self.bn(f"{prefix}.bn", y, cout, role)

    def conv_bn_relu(self, prefix, x, cin, cout, k, stride, role):
        y = self.conv_bn(prefix, x, cin, cout, k, stride, role)
        return self.relu(f"{prefix}.relu", y, role)


def _bottleneck(b: _Builder, prefix, x, cin, width, role):
    """1x1 -> 3x3 -> 1x1 residual block, expansion 4, projection when the
    channel count changes."""
    out_ch = width * BOTTLENECK_EXPANSION
    y = b.conv_bn_relu(f"{prefix}.c1", x, cin, width, 1, 1, role)
    y = b.conv_bn_relu(f"{prefix}.c2", y, width, width, 3, 1, role)
    y = b.conv_bn(f"{prefix}.c3", y, width, out_ch, 1, 1, role)
    shortcut = x if cin == out_ch else b.conv_bn(f"{prefix}.proj", x, cin, out_ch, 1, 1, role)
    s = b.addop(f"{prefix}.add", y, shortcut, role)
    return b.relu(f"{prefix}.out", s, role), out_ch


def _basic(b: _Builder, prefix, x, ch, role):
    """Two 3x3 convs with an identity residual."""
    y = b.conv_bn_relu(f"{prefix}.c1", x, ch, ch, 3, 1, role)
    y = b.conv_bn(f"{prefix}.c2", y, ch, ch, 3, 1, role)
    s = b.addop(f"{prefix}.add", y, x, role)
    return b.relu(f"{prefix}.out", s, role)


def _exchange(b: _Builder, prefix, xs, chs, stage_tag):
    """Cross-resolution exchange at the tail of an hr-module.

    Source j reaches target i through a 1x1 conv + BN + upsample chain when
    moving up, or a chain of 3x3 stride-2 conv+BN (ReLU between steps) when
    moving down; all arrivals are summed with the target branch and passed
    through ReLU.
    """
    n = len(xs)
    outs = []
    for i in range(n):
        role = f"{stage_tag}.branch{i}"
        terms = [xs[i]]
        for j in range(n):
            if j == i:
                continue
            if j > i:
                t = b.conv_bn(f"{prefix}.f{j}to{i}", xs[j], chs[j], chs[i], 1, 1, role)
                for u in range(j - i):
                    t = b.up(f"{prefix}.f{j}to{i}.up{u}", t, role)
            else:
                t = xs[j]
                c = chs[j]
                for s in range(i - j):
                    last = s == i - j - 1
                    cout = chs[i] if last else c
                    nid = f"{prefix}.f{j}to{i}.d{s}"
                    if last:
                        t = b.conv_bn(nid, t, c, cout, 3, 2, role)
                    else:
                        t = b.conv_bn_relu(nid, t, c, cout, 3, 2, role)
                    c = cout
            terms.append(t)
        acc = terms[0]
        for k, t in enumerate(terms[1:]):
            acc = b.addop(f"{prefix}.sum{i}.{k}", acc, t, role)
        outs.append(b.relu(f"{prefix}.out{i}", acc, role))
    return outs


def _trunk(b: _Builder, stage1_blocks: int, stage1_width: int) -> tuple[str, int]:
    """The input, the two stride-2 stem convs and stage 1's bottlenecks,
    which both families share; returns stage 1's output and its width."""
    x = b.emit("input", "input", (), "stem", ch=3)
    x = b.conv_bn_relu("stem.conv1", x, 3, 64, 3, 2, "stem")
    x = b.conv_bn_relu("stem.conv2", x, 64, 64, 3, 2, "stem")
    ch = 64
    for k in range(stage1_blocks):
        x, ch = _bottleneck(b, f"s1.m0.b0.blk{k}", x, ch, stage1_width, "stage1.branch0")
    return x, ch


def _hr_modules(b: _Builder, si: int, count: int, xs, chs, blocks: int) -> list[str]:
    """Stage ``si``'s ``count`` hr-modules over the branches ``xs`` (widths
    ``chs``, highest resolution first): ``blocks`` basic blocks on every
    branch, then an exchange when there is more than one branch."""
    for m in range(count):
        after = []
        for bi, (t, ch) in enumerate(zip(xs, chs)):
            for k in range(blocks):
                t = _basic(b, f"s{si}.m{m}.b{bi}.blk{k}", t, ch, f"stage{si}.branch{bi}")
            after.append(t)
        xs = _exchange(b, f"s{si}.m{m}.x", after, chs, f"stage{si}") if len(after) > 1 else after
    return xs


# ---------------------------------------------------------------------------
# U-shaped family


MAX_WIDTH = 8192  # widest stream build_uhrnet accepts


@dataclass(frozen=True)
class NetworkConfig:
    """Build-time knobs for the U-shaped family.

    ``base_width`` is the channel count of the 1/4 stream; stream ``l`` gets
    ``base_width * 2**l``, and no stream may exceed :data:`MAX_WIDTH`.
    ``blocks_per_branch`` is 4 for full models and 2 for the small variants
    (other values build but are flagged non-canonical); the module counts
    per stage come from the structure encoding alone.  ``small_variant`` is
    accepted but not read: the block count alone sets the variant.  Every
    channel pooling, in FusionB fusions and in the head, averages pairs of
    channels, and every batchnorm uses ``ops.BN_EPS``.
    """

    base_width: int
    blocks_per_branch: int = 2
    small_variant: bool = True
    fusion_kind: str = "FusionB"  # junction fusions: FusionB = pool+concat, FusionA = add

    def __post_init__(self):
        if self.base_width < 1:
            raise ValueError("base_width must be positive")
        if self.blocks_per_branch < 1:
            raise ValueError("blocks_per_branch must be positive")
        if self.fusion_kind not in ("FusionA", "FusionB"):
            raise ValueError(f"unknown fusion kind {self.fusion_kind!r}")

    @property
    def canonical(self) -> bool:
        return self.blocks_per_branch in (2, 4)


class _Feature(NamedTuple):
    node: str
    ch: int
    stage: int


def stage_level_sets(seq: StageSequence) -> tuple[tuple[int, ...], ...]:
    """Resolution levels held by each stage.

    Stage 1 holds level 0 only.  Every intermediate stage holds the two
    adjacent levels ``(walk-1, walk)`` of its resolution-walk position, so
    consecutive stages always share exactly one level.  The final stage
    holds ``(walk-1, walk)`` when the encoding ends in ``=`` and the single
    inherited level otherwise — which forces the last move to be an
    upsampling one, since a one-branch stage freshly created by a
    downsampling move would share no level with its predecessor.
    """
    walk = seq.resolution_walk
    n = len(seq.stages)
    sets: list[tuple[int, ...]] = []
    for i in range(n):
        last = i == n - 1
        if i == 0:
            sets.append((0,))
        elif not last or seq.terminal_two_branch:
            if walk[i] < 1:
                raise InvalidSequence(
                    f"stage {i + 1} sits at the 1/4 stream and cannot hold a second, "
                    "higher-resolution branch"
                )
            sets.append((walk[i] - 1, walk[i]))
        else:
            if seq.transitions[i - 1] is not Direction.UP:
                raise InvalidSequence(
                    "a one-branch final stage must follow an upsampling move; "
                    "end the encoding with '=' to keep two branches instead"
                )
            sets.append((walk[i],))
    for a, bset in zip(sets, sets[1:]):
        if len(set(a) & set(bset)) != 1:
            raise InvalidSequence(f"stages holding {a} and {bset} share no resolution")
    return tuple(sets)


def build_uhrnet(seq: StageSequence, cfg: NetworkConfig, label: str | None = None) -> LayerGraph:
    """Construct the layer graph for a stage sequence under ``cfg``."""
    stages = seq.stages
    levels = stage_level_sets(seq)
    max_level = max(max(s) for s in levels)
    width = {l: cfg.base_width * 2**l for l in range(max_level + 1)}
    if max(width.values()) > MAX_WIDTH:
        raise WidthOverflow(f"stream width {max(width.values())} exceeds the cap {MAX_WIDTH}")

    b = _Builder()
    stage1_out, stage1_ch = _trunk(b, stages[0] * cfg.blocks_per_branch, STAGE1_BLOCK_WIDTH)

    last_at: dict[int, _Feature] = {0: _Feature(stage1_out, stage1_ch, 1)}
    fusions: list[dict] = []
    n_stages = len(stages)
    cur: dict[int, str] = {}

    if n_stages > 1:
        for l in levels[1]:
            stride = 1 if l == 0 else 2
            cur[l] = b.conv_bn_relu(
                f"t1to2.l{l}", stage1_out, stage1_ch, width[l], 3, stride, "transition"
            )

    for si in range(2, n_stages + 1):
        lv = sorted(levels[si - 1])
        outs = _hr_modules(
            b, si, stages[si - 1], [cur[l] for l in lv], [width[l] for l in lv], cfg.blocks_per_branch
        )
        cur = dict(zip(lv, outs))
        for l in lv:
            last_at[l] = _Feature(cur[l], width[l], si)

        if si == n_stages:
            break
        nxt = sorted(levels[si])
        shared = set(lv) & set(nxt)
        inherited = shared.pop()
        new_cur = {inherited: cur[inherited]}
        created = [l for l in nxt if l != inherited]
        if created:
            (new,) = created
            if new > inherited:  # downsampling move
                new_cur[new] = b.conv_bn_relu(
                    f"t{si}to{si + 1}.down", cur[inherited], width[inherited], width[new], 3, 2, "transition"
                )
            else:  # upsampling move, fused with the feature an earlier stage always left at level new
                t = b.conv_bn(
                    f"t{si}to{si + 1}.reduce", cur[inherited], width[inherited], width[new], 1, 1, "transition"
                )
                t = b.up(f"t{si}to{si + 1}.up", t, "transition")
                skip = last_at[new]
                if cfg.fusion_kind == "FusionB":
                    if width[new] % 2:
                        raise InvalidSequence(
                            f"fusion pooling needs an even width, got {width[new]}; "
                            "use an even base width"
                        )
                    p_up = b.pool(f"fuse{si + 1}.pool_up", t, "fusion")
                    p_skip = b.pool(f"fuse{si + 1}.pool_skip", skip.node, "fusion")
                    y = b.cat(f"fuse{si + 1}.concat", [p_up, p_skip], "fusion")
                else:
                    y = b.addop(f"fuse{si + 1}.add", t, skip.node, "fusion")
                new_cur[new] = b.relu(f"fuse{si + 1}.out", y, "fusion")
                fusions.append(
                    {
                        "target_stage": si + 1,
                        "source_stage": skip.stage,
                        "level": new,
                        "kind": cfg.fusion_kind,
                    }
                )
        cur = new_cur

    out_id, head_meta = _head(b, last_at)

    meta = {
        "family": "uhrnet",
        "label": label,
        "structure": format_structure(seq),
        "base_width": cfg.base_width,
        "blocks_per_branch": cfg.blocks_per_branch,
        "fusion_kind": cfg.fusion_kind,
        "canonical_blocks": cfg.canonical,
        "modules": list(stages),
        "stage_levels": [list(s) for s in levels],
        "fusions": fusions,
        "head": head_meta,
    }
    nodes = b.nodes
    _check_graph(nodes, out_id)
    return LayerGraph(tuple(nodes), out_id, meta)


def _head(b: _Builder, last_at: dict[int, _Feature]) -> tuple[str, dict]:
    """Representation head: most recent feature per level, channel-pooled by
    2 when the 1/64 stream exists, upsampled to 1/4 and concatenated, then a
    width-preserving 1x1 conv + BN + ReLU."""
    levels = sorted(last_at)
    pooled = max(levels) == 4
    feats: list[str] = []
    total = 0
    for l in levels:
        feat = last_at[l]
        t, c = feat.node, feat.ch
        if pooled:
            if c % 2:
                raise InvalidSequence(f"head pooling needs even widths, got {c} at level {l}")
            t = b.pool(f"head.pool{l}", t, "head")
            c //= 2
        for u in range(l):
            t = b.up(f"head.l{l}.up{u}", t, "head")
        feats.append(t)
        total += c
    cat = b.cat("head.concat", feats, "head")
    out = b.conv_bn_relu("head.conv", cat, total, total, 1, 1, "head")
    head_meta = {
        "levels": levels,
        "pooled": pooled,
        "in_channels": total,
        "out_channels": total,
        "sources": {str(l): last_at[l].stage for l in levels},
    }
    return out, head_meta


# ---------------------------------------------------------------------------
# classic four-stream baselines

_HRNETV2_CFGS = {
    "w18-small-v1": dict(
        stage1_blocks=1, stage1_width=32, channels=(16, 32, 64, 128), modules=(1, 1, 1), blocks=2
    ),
    "w18-small-v2": dict(
        stage1_blocks=2, stage1_width=64, channels=(18, 36, 72, 144), modules=(1, 3, 2), blocks=2
    ),
    "w48": dict(
        stage1_blocks=4, stage1_width=64, channels=(48, 96, 192, 384), modules=(1, 4, 3), blocks=4
    ),
}


def build_hrnetv2(preset: str, label: str | None = None) -> LayerGraph:
    """Parallel streams (stage ``s`` holds levels ``0..s-1``) with full
    exchange meshes and a concat head.

    ``preset`` is one of ``w18-small-v1``, ``w18-small-v2``, ``w48``.
    """
    key = preset.lower().removeprefix("hrnetv2-")
    if key not in _HRNETV2_CFGS:
        raise UnknownPreset(f"unknown baseline preset {preset!r}")
    cfg = _HRNETV2_CFGS[key]
    channels = cfg["channels"]
    blocks = cfg["blocks"]

    b = _Builder()
    x, ch = _trunk(b, cfg["stage1_blocks"], cfg["stage1_width"])
    xs = [b.conv_bn_relu(f"t1to2.l{l}", x, ch, channels[l], 3, s, "transition") for l, s in ((0, 1), (1, 2))]
    for si, n_mod in zip((2, 3, 4), cfg["modules"]):
        if len(xs) < si:  # grow one branch from the previous lowest stream
            xs.append(
                b.conv_bn_relu(
                    f"t{si - 1}to{si}.l{si - 1}", xs[-1], channels[si - 2], channels[si - 1], 3, 2, "transition"
                )
            )
        xs = _hr_modules(b, si, n_mod, xs, channels[:si], blocks)
    out, head_meta = _head(b, {l: _Feature(t, channels[l], 4) for l, t in enumerate(xs)})

    meta = {
        "family": "hrnetv2",
        "label": label,
        "preset": key,
        "base_width": channels[0],
        "blocks_per_branch": blocks,
        "modules": [1, *cfg["modules"]],
        "stage_levels": [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]],
        "fusions": [],
        "head": head_meta,
    }
    _check_graph(b.nodes, out)
    return LayerGraph(tuple(b.nodes), out, meta)


# ---------------------------------------------------------------------------
# shape inference


def infer_shapes(graph: LayerGraph, input_shape: tuple[int, int, int, int]) -> LayerGraph:
    """Annotate every node with its output shape and check channel
    bookkeeping across the whole graph.

    Height and width must be divisible by 64 so the 1/64 stream keeps an
    integer spatial size.
    """
    if len(input_shape) != 4 or any(d < 1 for d in input_shape):
        raise ShapeMismatch(f"input shape must be a positive N,C,H,W, got {input_shape}")
    n, c, h, w = input_shape
    if h % 64 or w % 64:
        raise IndivisibleInput(f"input height and width must be divisible by 64, got {h}x{w}")

    shapes: dict[str, tuple[int, int, int, int]] = {}
    new_nodes: list[Node] = []
    for node in graph.nodes:
        if node.kind == "input":
            if c != node.attrs["ch"]:
                raise ShapeMismatch(
                    f"graph expects {node.attrs['ch']} input channels, got {c}"
                )
            out = (n, c, h, w)
        elif node.kind == "conv":
            ni, ci, hi, wi = shapes[node.inputs[0]]
            if ci != node.attrs["in_ch"]:
                raise ShapeMismatch(
                    f"node {node.id!r} expects {node.attrs['in_ch']} channels, producer has {ci}"
                )
            k, s, p = node.attrs["k"], node.attrs["stride"], node.attrs["pad"]
            out = (ni, node.attrs["out_ch"], (hi + 2 * p - k) // s + 1, (wi + 2 * p - k) // s + 1)
        elif node.kind == "bn":
            ni, ci, hi, wi = shapes[node.inputs[0]]
            if ci != node.attrs["ch"]:
                raise ShapeMismatch(
                    f"node {node.id!r} normalizes {node.attrs['ch']} channels, producer has {ci}"
                )
            out = (ni, ci, hi, wi)
        elif node.kind == "relu":
            out = shapes[node.inputs[0]]
        elif node.kind == "upsample":
            ni, ci, hi, wi = shapes[node.inputs[0]]
            out = (ni, ci, 2 * hi, 2 * wi)
        elif node.kind == "chpool":
            ni, ci, hi, wi = shapes[node.inputs[0]]
            if ci % 2:
                raise OddChannelCount(f"node {node.id!r} pools an odd channel count {ci}")
            out = (ni, ci // 2, hi, wi)
        elif node.kind == "concat":
            parts = [shapes[i] for i in node.inputs]
            base = parts[0]
            for p_ in parts[1:]:
                if p_[0] != base[0] or p_[2:] != base[2:]:
                    raise ShapeMismatch(f"node {node.id!r} concatenates mismatched shapes")
            out = (base[0], sum(p_[1] for p_ in parts), base[2], base[3])
        elif node.kind == "add":
            a, b_ = shapes[node.inputs[0]], shapes[node.inputs[1]]
            if a != b_:
                raise ShapeMismatch(f"node {node.id!r} adds mismatched shapes {a} and {b_}")
            out = a
        else:
            raise GraphError(f"unknown node kind {node.kind!r}")
        shapes[node.id] = out
        new_nodes.append(Node(node.id, node.kind, node.inputs, node.role, node.attrs, out))
    return LayerGraph(tuple(new_nodes), graph.output_id, graph.meta)


def resolution_level(out_h: int, input_h: int) -> int:
    """Level of a feature map relative to the 1/4 stream: 0 for 1/4 maps,
    4 for 1/64, -1 for the stem's 1/2 stage, -2 for full resolution."""
    q = input_h // 4
    level = 0
    if out_h <= q:
        while out_h < q:
            out_h *= 2
            level += 1
    else:
        while out_h > q:
            q *= 2
            level -= 1
    return level


# ---------------------------------------------------------------------------
# JSON export / import


def export_graph(graph: LayerGraph) -> str:
    """Self-describing JSON with stable ordering; requires inferred shapes.

    The text is ``json.dumps(doc, sort_keys=True, indent=1)`` of the fixed
    schema, written directly, since with ``indent`` the standard library
    takes its slow pure-Python encoder: each leaf is C-encoded and laid
    out as ``indent=1`` lays it out.  Only the small ``meta`` is dumped."""
    for node in graph.nodes:
        if node.out_shape is None:
            raise GraphError("export requires inferred shapes; call infer_shapes first")
    p = "\n   "  # a node's keys; their items one space deeper
    nodes = ",\n  ".join(
        f'{{{p}"attrs": {_block([f"{_str(k)}: {_leaf(v)}" for k, v in sorted(n.attrs.items())], p, "{}")},'
        f'{p}"id": {_str(n.id)},{p}"inputs": {_block([*map(_str, n.inputs)], p, "[]")},'
        f'{p}"kind": {_str(n.kind)},{p}"out_shape": {_block([*map(_leaf, n.out_shape)], p, "[]")},'
        f'{p}"role": {_str(n.role)}\n  }}'
        for n in graph.nodes
    )
    # JSON strings hold no raw line break, so this indents every line of meta
    meta = json.dumps(graph.meta, sort_keys=True, indent=1).replace("\n", "\n ")
    return (
        f'{{\n "format_version": {GRAPH_FORMAT_VERSION},\n "meta": {meta},\n "nodes": [\n  {nodes}\n ],'
        f'\n "output_id": {_str(graph.output_id)}\n}}'
    )


_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses for str


def _leaf(v) -> str:
    """A scalar as ``json.dumps`` writes it."""
    return _str(v) if type(v) is str else repr(v) if type(v) is int else json.dumps(v)


def _block(items: list[str], pad: str, brackets: str) -> str:
    """Encoded ``items`` in ``brackets`` as ``indent=1`` lays them out, one
    a line, one space deeper than ``pad``, the line break and indent of the
    enclosing key."""
    return f"{brackets[0]}{pad} {(',' + pad + ' ').join(items)}{pad}{brackets[1]}" if items else brackets


def import_graph(text: str) -> LayerGraph:
    """The graph :func:`export_graph` wrote.  Any other document raises
    :class:`GraphError` before a shape is inferred, as does a node whose
    attributes differ from :data:`NODE_ATTRS` or leave open a value that
    is not a positive int (a ``pad`` may be 0).  Shapes are then inferred
    again from the input node's, and a stored shape that differs raises."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"graph file is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError(f"graph file holds a {type(doc).__name__}, not an object")
    if doc.get("format_version") != GRAPH_FORMAT_VERSION:
        raise GraphError(f"unsupported graph format version {doc.get('format_version')!r}")
    meta = doc.get("meta", {})
    if not (isinstance(doc.get("output_id"), str) and isinstance(doc.get("nodes"), list) and isinstance(meta, dict)):
        raise GraphError("a graph file needs an output_id string, a list of nodes and, if any, a meta object")
    arity = {"input": 0, "add": 2}  # inputs a node reads: 1 for other kinds, a concat 1 or more
    nodes = []
    for i, nd in enumerate(doc["nodes"]):
        try:
            nid, kind, inputs, role, attrs, shape = nd["id"], nd["kind"], nd["inputs"], nd["role"], nd["attrs"], nd["out_shape"]
            spec = NODE_ATTRS[kind]
        except (KeyError, TypeError):
            raise GraphError(f"node {i} lacks id, kind, inputs, role, attrs or out_shape, or has a kind not in {[*NODE_ATTRS]}") from None
        if not (
            type(nid) is str and type(role) is str and type(attrs) is dict and type(shape) is list
            and type(inputs) is list and all(type(src) is str for src in inputs)
        ):  # fmt: skip
            raise GraphError(f"node {i} ({nid!r}) needs a str id and role, a dict of attrs and lists of inputs and out_shape")
        if len(inputs) != arity.get(kind, 1) and not (kind == "concat" and inputs):
            raise GraphError(f"node {nid!r} of kind {kind} cannot read {len(inputs)} inputs")
        if attrs.keys() != spec.keys():
            bad = sorted(attrs.keys() ^ spec.keys())[0]
            got = repr(attrs[bad]) if bad in attrs else "missing"
            raise GraphError(f"node {nid!r} attribute {bad!r} is {got}; {kind} nodes take {spec}")
        for a, v in spec.items():
            x = attrs[a]
            # a value the table leaves open is a positive int, or 0 for a pad
            if x != v if v is not None else type(x) is not int or x < (0 if a == "pad" else 1):
                raise GraphError(f"node {nid!r} attribute {a!r} is {x!r}; {kind} nodes take {spec}")
        nodes.append(Node(nid, kind, tuple(inputs), role, attrs, tuple(shape)))
    _check_graph(nodes, doc["output_id"])
    shape = nodes[0].out_shape  # the one stored shape that inference reads
    if len(shape) != 4 or any(type(d) is not int for d in shape):
        raise GraphError(f"the input's out_shape {list(shape)} is not four ints")
    graph = infer_shapes(LayerGraph(tuple(nodes), doc["output_id"], meta), shape)
    for stored, node in zip(nodes, graph.nodes):
        if stored.out_shape != node.out_shape:
            raise GraphError(f"node {node.id!r} stores shape {stored.out_shape}, its inputs give {node.out_shape}")
    return graph
