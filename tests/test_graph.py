import itertools
import json
import re
from dataclasses import replace

import pytest

from uhrkit import presets
from uhrkit.dsl import Direction, parse_structure
from uhrkit.graph import (
    GraphError,
    IndivisibleInput,
    InvalidSequence,
    LayerGraph,
    NetworkConfig,
    UnknownPreset,
    WidthOverflow,
    build_hrnetv2,
    build_uhrnet,
    export_graph,
    import_graph,
    infer_shapes,
    resolution_level,
    stage_level_sets,
)
from uhrkit.ops import OddChannelCount, ShapeMismatch

SMALL = parse_structure("1v1v2v2v2^1^1^1^1")
CFG18 = NetworkConfig(base_width=18, blocks_per_branch=2)


def small_graph():
    return presets.build("uhrnet-w18-small")


# ---------------------------------------------------------------------------
# stage level derivation


def brute_force_level_sets(seq):
    """Independent oracle: enumerate every level-set chain satisfying the
    inherit-one-branch constraints and the per-move direction semantics."""
    n = len(seq.stages)
    candidates = []
    for i in range(n):
        last = i == n - 1
        if i == 0:
            candidates.append([(0,)])
        elif not last or seq.terminal_two_branch:
            candidates.append([(a, a + 1) for a in range(4)])
        else:
            candidates.append([(a,) for a in range(5)] + [(a, a + 1) for a in range(4)])
    solutions = []
    for chain in itertools.product(*candidates):
        ok = True
        for i, move in enumerate(seq.transitions):
            cur, nxt = chain[i], chain[i + 1]
            if len(set(cur) & set(nxt)) != 1:
                ok = False
                break
            if move is Direction.DOWN:
                # the new branch sits one level below everything current
                if len(nxt) == 1 or max(nxt) != max(cur) + 1 or min(nxt) != max(cur):
                    ok = False
                    break
            else:
                if len(nxt) == 2:
                    if max(nxt) != min(cur) or min(nxt) != min(cur) - 1:
                        ok = False
                        break
                elif nxt != (min(cur),):
                    ok = False
                    break
        if ok:
            solutions.append(chain)
    return solutions


def test_level_sets_nine_stage():
    sets = stage_level_sets(SMALL)
    assert [list(s) for s in sets] == [
        [0], [0, 1], [1, 2], [2, 3], [3, 4], [2, 3], [1, 2], [0, 1], [0],
    ]


def test_level_sets_match_brute_force():
    for code in ("1v1v2v2v2^1^1^1^1", "1v1v3v2=", "1v1v2v5^1=", "1v1v2v5^1^1^1"):
        seq = parse_structure(code)
        solutions = brute_force_level_sets(seq)
        assert solutions == [stage_level_sets(seq)]


def test_level_sets_reject_one_branch_after_down():
    with pytest.raises(InvalidSequence):
        stage_level_sets(parse_structure("1v1"))
    with pytest.raises(InvalidSequence):
        stage_level_sets(parse_structure("1v1v3v2"))


def test_level_sets_reject_mid_sequence_top_level():
    with pytest.raises(InvalidSequence):
        stage_level_sets(parse_structure("1v1^1v1^1"))


# ---------------------------------------------------------------------------
# building


def test_small_preset_structure():
    g = small_graph()
    meta = g.meta
    assert meta["modules"] == [1, 1, 2, 2, 2, 1, 1, 1, 1]
    assert meta["head"]["in_channels"] == 279  # 15.5 * 18
    assert meta["head"]["pooled"]
    assert meta["head"]["sources"] == {"0": 9, "1": 8, "2": 7, "3": 6, "4": 5}
    assert [(f["target_stage"], f["source_stage"], f["level"]) for f in meta["fusions"]] == [
        (6, 4, 2),
        (7, 3, 1),
        (8, 2, 0),
    ]
    assert all(f["kind"] == "FusionB" for f in meta["fusions"])


def test_full_model_has_thirteen_mid_modules():
    g = presets.build("uhrnet-w48")
    assert sum(g.meta["modules"][1:8]) == 1 + 5 + 2 + 2 + 1 + 1 + 1


def test_consecutive_stages_share_exactly_one_level():
    for name, preset in presets.REGISTRY.items():
        if preset.family != "uhrnet":
            continue
        levels = presets.build(name).meta["stage_levels"]
        for a, b in zip(levels, levels[1:]):
            assert len(set(a) & set(b)) == 1, name


def test_fusion_a_variant_keeps_wiring():
    g = presets.build("uhrnet-w18-small-vh")
    assert [(f["target_stage"], f["source_stage"]) for f in g.meta["fusions"]] == [
        (6, 4),
        (7, 3),
        (8, 2),
    ]
    assert all(f["kind"] == "FusionA" for f in g.meta["fusions"])
    assert not any(n.kind == "chpool" and n.role == "fusion" for n in g.nodes)


def test_variant_fusions_and_heads():
    expectations = {
        "uhrnet-w18-small-va": ([], 270),
        "uhrnet-w18-small-vd": ([(5, 3, 1)], 270),
        "uhrnet-w18-small-ve": ([(5, 3, 1), (6, 2, 0)], 270),
    }
    for name, (fusions, head_ch) in expectations.items():
        meta = presets.build(name).meta
        got = [(f["target_stage"], f["source_stage"], f["level"]) for f in meta["fusions"]]
        assert got == fusions, name
        assert meta["head"]["in_channels"] == head_ch
        assert not meta["head"]["pooled"]


def test_hrnetv2_heads():
    assert build_hrnetv2("w48").meta["head"]["in_channels"] == 720  # 15 * 48
    assert build_hrnetv2("w18-small-v2").meta["head"]["in_channels"] == 270
    assert build_hrnetv2("w18-small-v1").meta["head"]["in_channels"] == 240


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        build_hrnetv2("w99")
    with pytest.raises(UnknownPreset):
        presets.build("uhrnet-w9000")


def test_width_overflow():
    with pytest.raises(WidthOverflow):
        build_uhrnet(SMALL, NetworkConfig(base_width=600, blocks_per_branch=2))


def test_odd_width_rejected_for_pooled_junctions():
    with pytest.raises(InvalidSequence):
        build_uhrnet(SMALL, NetworkConfig(base_width=5, blocks_per_branch=2))


def test_stem_has_two_stride2_convs():
    g = small_graph()
    stem_convs = [n for n in g.nodes if n.kind == "conv" and n.role == "stem"]
    assert len(stem_convs) == 2
    assert all(n.attrs["stride"] == 2 for n in stem_convs)


# ---------------------------------------------------------------------------
# shape inference


def test_shapes_small_256():
    g = infer_shapes(small_graph(), (1, 3, 256, 256))
    assert g.output_node().out_shape == (1, 279, 64, 64)


def test_shapes_stage5_at_cost_input():
    g = infer_shapes(small_graph(), (1, 3, 1024, 2048))
    b0 = [n for n in g.nodes if n.role == "stage5.branch0"][-1]
    b1 = [n for n in g.nodes if n.role == "stage5.branch1"][-1]
    assert b0.out_shape == (1, 144, 32, 64)  # 8C at 1/32
    assert b1.out_shape == (1, 288, 16, 32)  # 16C at 1/64


def test_shapes_indivisible_input():
    with pytest.raises(IndivisibleInput):
        infer_shapes(small_graph(), (1, 3, 250, 250))


def test_shapes_wrong_channels():
    with pytest.raises(ShapeMismatch):
        infer_shapes(small_graph(), (1, 4, 256, 256))


def test_channel_bookkeeping_holds_graph_wide():
    g = infer_shapes(small_graph(), (1, 3, 256, 256))
    for node in g.nodes:
        if node.kind == "conv":
            assert g.node(node.inputs[0]).out_shape[1] == node.attrs["in_ch"]


def test_fusion_concat_width_matches_branch():
    g = infer_shapes(small_graph(), (1, 3, 256, 256))
    widths = {"fuse6.concat": 72, "fuse7.concat": 36, "fuse8.concat": 18}
    for nid, ch in widths.items():
        assert g.node(nid).out_shape[1] == ch


def test_output_resolution_quarter_for_every_preset():
    for name in presets.names():
        g = infer_shapes(presets.build(name), (1, 3, 128, 192))
        assert g.output_node().out_shape[2:] == (32, 48), name


def _graphs_to_shape():
    """Every preset at the cost input, the micro graph, and two structures
    off the preset list that vary width, blocks, fusion and batch."""
    for name in presets.names():
        yield name, presets.build(name), presets.COST_INPUT_SHAPE
    yield "micro", presets.build_micro(), presets.MICRO_INPUT_SHAPE
    for code, cfg in (
        ("2v1v3^2v1=", NetworkConfig(base_width=6, blocks_per_branch=3, fusion_kind="FusionA")),
        ("1v2v1v1v1^2^1^1^1", NetworkConfig(base_width=8, blocks_per_branch=1)),
    ):
        yield code, build_uhrnet(parse_structure(code), cfg, label=code), (2, 3, 128, 192)


def test_infer_shapes_only_adds_shapes():
    for name, g, shape in _graphs_to_shape():
        shaped = infer_shapes(g, shape)
        assert len(shaped.nodes) == len(g.nodes), name
        for node, out in zip(g.nodes, shaped.nodes):
            assert out.out_shape is not None and len(out.out_shape) == 4, (name, node.id)
            assert out == replace(node, out_shape=out.out_shape), (name, node.id)
            assert (out.id, out.kind, out.inputs, out.role, out.attrs) == (
                node.id, node.kind, node.inputs, node.role, node.attrs,
            ), (name, node.id)
        assert shaped.output_id == g.output_id and shaped.meta == g.meta, name
        assert shaped.shaped and not g.shaped, name
        assert all(n.out_shape is None for n in g.nodes), name


def test_resolution_level_helper():
    assert resolution_level(64, 256) == 0
    assert resolution_level(4, 256) == 4
    assert resolution_level(128, 256) == -1
    assert resolution_level(256, 256) == -2


# ---------------------------------------------------------------------------
# export / import


def test_export_round_trip_all_presets():
    for name in presets.names():
        g = infer_shapes(presets.build(name), (1, 3, 64, 64))
        text = export_graph(g)
        back = import_graph(text)
        assert back == g, name


def test_export_deterministic():
    a = export_graph(infer_shapes(small_graph(), (1, 3, 64, 64)))
    b = export_graph(infer_shapes(presets.build("uhrnet-w18-small"), (1, 3, 64, 64)))
    assert a == b


def test_export_requires_shapes():
    with pytest.raises(Exception):
        export_graph(small_graph())


def test_export_schema_and_roles():
    g = infer_shapes(small_graph(), (1, 3, 64, 64))
    doc = json.loads(export_graph(g))
    assert doc["format_version"] == 1
    assert set(doc) == {"format_version", "output_id", "meta", "nodes"}
    for nd in doc["nodes"]:
        assert set(nd) == {"id", "kind", "attrs", "inputs", "role", "out_shape"}
    groups = {nd["role"].split(".")[0] for nd in doc["nodes"]}
    assert groups == {"stem", "transition", "fusion", "head"} | {f"stage{i}" for i in range(1, 10)}


def test_graph_is_topologically_ordered():
    g = small_graph()
    seen = set()
    for node in g.nodes:
        assert all(i in seen for i in node.inputs)
        seen.add(node.id)
    assert isinstance(g, LayerGraph)


def test_import_rederives_stored_shapes():
    # an input shape the graph cannot take, and an inner shape its inputs
    # do not give, are both refused rather than trusted
    doc = json.loads(export_graph(infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)))
    bad_input = json.loads(json.dumps(doc))
    bad_input["nodes"][0]["out_shape"] = [1, 3, 2, 2]
    with pytest.raises(IndivisibleInput):
        import_graph(json.dumps(bad_input))
    bad_inner = json.loads(json.dumps(doc))
    node = bad_inner["nodes"][5]
    node["out_shape"][2] *= 2
    with pytest.raises(GraphError, match=f"node {node['id']!r} stores shape"):
        import_graph(json.dumps(bad_inner))


@pytest.mark.parametrize(
    "kind, attr, value",
    [
        ("upsample", "factor", 4),
        ("chpool", "k", 3),
        ("chpool", "mode", "max"),
        ("bn", "eps", 0.001),
        ("conv", "dilation", 2),
    ],
)
def test_import_rejects_attributes_the_executor_would_ignore(kind, attr, value):
    # each edit keeps every shape, and the executor would run the node as if
    # the attribute were absent or at its only value (it only averages)
    doc = json.loads(export_graph(infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)))
    node = [nd for nd in doc["nodes"] if nd["kind"] == kind][-1]
    node["attrs"][attr] = value
    with pytest.raises(GraphError, match=re.escape(f"node {node['id']!r} attribute {attr!r} is {value!r}")):
        import_graph(json.dumps(doc))


GONE = "<deleted>"  # the edit deletes the field
ROTATED = "<rotated>"  # the edit moves the list's first item to its end


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("text", None, "{not json"),
        ("text", None, "[]"),
        ("document", "nodes", GONE),
        ("document", "output_id", GONE),
        ("document", "meta", [1]),
        ("relu", "role", GONE),
        ("relu", "attrs", []),
        ("conv", "inputs", 5),
        ("bn", "inputs", []),
        ("conv", "attrs.in_ch", GONE),
        ("conv", "attrs.k", "3"),
        ("conv", "attrs.stride", True),
        ("conv", "attrs.stride", 0),
        ("relu", "id", "stem.conv1.relu"),
        ("conv", "inputs", ["head.conv.relu"]),
        ("document", "output_id", "nowhere"),
        ("document", "nodes", ROTATED),
    ],
)
def test_import_rejects_malformed_documents(where, field, value):
    # each of these once imported (a bool stride) or escaped as KeyError,
    # AttributeError, TypeError, IndexError, ZeroDivisionError or
    # JSONDecodeError; the last four are a duplicate id, a node reading
    # one produced later, an output that names no node and a first node
    # that is not the input
    doc = json.loads(export_graph(infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)))
    if where == "text":
        text = value
    else:
        target = doc if where == "document" else [nd for nd in doc["nodes"] if nd["kind"] == where][-1]
        if field.startswith("attrs."):
            target, field = target["attrs"], field.removeprefix("attrs.")
        if value == GONE:
            del target[field]
        elif value == ROTATED:
            target[field].append(target[field].pop(0))
        else:
            target[field] = value
        text = json.dumps(doc)
    with pytest.raises(GraphError):
        import_graph(text)


@pytest.mark.parametrize(
    "edits, error, message",
    [
        pytest.param({"input": {"out_shape": [1, 3, 0, 64]}}, ShapeMismatch,
                     "input shape must be a positive N,C,H,W, got (1, 3, 0, 64)", id="empty-input"),
        pytest.param({"stem.conv2.conv": {"in_ch": 32}}, ShapeMismatch,
                     "node 'stem.conv2.conv' expects 32 channels, producer has 64", id="conv-in-ch"),
        pytest.param({"stem.conv1.bn": {"ch": 32}}, ShapeMismatch,
                     "node 'stem.conv1.bn' normalizes 32 channels, producer has 64", id="bn-ch"),
        pytest.param({"s2.m0.b0.blk0.c2.conv": {"stride": 2}}, ShapeMismatch,
                     "node 's2.m0.b0.blk0.add' adds mismatched shapes", id="add"),
        pytest.param({"t6to7.reduce.conv": {"stride": 2}}, ShapeMismatch,
                     "node 'fuse7.concat' concatenates mismatched shapes", id="concat"),
        pytest.param({"t6to7.reduce.conv": {"out_ch": 3}, "t6to7.reduce.bn": {"ch": 3}}, OddChannelCount,
                     "node 'fuse7.pool_up' pools an odd channel count 3", id="odd-pool"),
    ],
)  # fmt: skip
def test_import_rejects_inconsistent_channels_and_shapes(edits, error, message):
    # every node is well-formed on its own; shape inference finds the clash
    doc = json.loads(export_graph(infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)))
    for nd in doc["nodes"]:
        for field, value in edits.get(nd["id"], {}).items():
            (nd if field == "out_shape" else nd["attrs"])[field] = value
    with pytest.raises(error, match=re.escape(message)):
        import_graph(json.dumps(doc))


def test_import_rejects_a_second_input_node():
    # the walk would index the inputs of a node that has none
    doc = json.loads(export_graph(infer_shapes(presets.build_micro(), presets.MICRO_INPUT_SHAPE)))
    doc["nodes"].insert(1, dict(doc["nodes"][0], id="x2"))
    with pytest.raises(GraphError, match="node 'x2' is a second input"):
        import_graph(json.dumps(doc))


def test_import_rejects_unknown_version():
    g = infer_shapes(presets.build("uhrnet-w18-small-va"), (1, 3, 64, 64))
    doc = json.loads(export_graph(g))
    doc["format_version"] = 99
    with pytest.raises(GraphError, match="unsupported graph format version 99"):
        import_graph(json.dumps(doc))


@pytest.mark.parametrize("seed", range(6))
def test_random_sequences_build_consistently(seed):
    """Any buildable sequence yields adjacent two-level stages sharing one
    level with their neighbours, and a head fed by every live level."""
    import random

    from uhrkit.dsl import format_structure

    rng = random.Random(seed)
    for _ in range(8):
        stages = [rng.randint(1, 3)]
        moves = []
        walk = 0
        for _ in range(rng.randint(1, 9)):
            options = [d for d in "v^" if 0 <= walk + (1 if d == "v" else -1) <= 4]
            d = rng.choice(options)
            walk += 1 if d == "v" else -1
            moves.append(d)
            stages.append(rng.randint(1, 3))
        code = "".join(
            str(s) + m for s, m in zip(stages, moves + [""])
        ) + ("=" if rng.random() < 0.4 and len(stages) > 1 else "")
        seq = parse_structure(code)
        try:
            g = build_uhrnet(seq, NetworkConfig(base_width=4, blocks_per_branch=2))
        except InvalidSequence:
            continue
        levels = g.meta["stage_levels"]
        for a, b in zip(levels, levels[1:]):
            assert len(set(a) & set(b)) == 1, code
        live = {l for s in levels for l in s}
        assert sorted(live) == g.meta["head"]["levels"], code
        shaped = infer_shapes(g, (1, 3, 64, 64))
        assert shaped.output_node().out_shape[2:] == (16, 16), code
        assert format_structure(seq) == g.meta["structure"]
