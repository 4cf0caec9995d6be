import numpy as np
import pytest

from uhrkit import analysis, presets
from uhrkit.analysis import (
    ConventionMismatch,
    CostConvention,
    calibrate_convention,
    CostRow,
    compare,
    count_flops,
)
from uhrkit.graph import LayerGraph, Node, infer_shapes, resolution_level

from conftest import shaped_preset

CONV_ONLY = CostConvention(
    mac_factor=1,
    include_bn=False,
    include_relu=False,
    include_upsample=False,
    include_head=True,
    classifier_classes=0,
    unit_divisor=10**9,
)


def single_conv_graph(cin=1, cout=1, k=3, stride=1):
    nodes = (
        Node(id="input", kind="input", inputs=(), role="stem", attrs={"ch": cin}),
        Node(
            id="c",
            kind="conv",
            inputs=("input",),
            role="stage1.branch0",
            attrs={"k": k, "stride": stride, "pad": k // 2, "in_ch": cin, "out_ch": cout},
        ),
    )
    return LayerGraph(nodes, "c", {"family": "test"})


def test_single_conv_flops_formula():
    # a stride-1 3x3 conv with one input and output channel costs 9 MACs
    # per output position: 144 on a 4x4-equivalent map, scaled here to 64x64
    g = infer_shapes(single_conv_graph(), (1, 1, 64, 64))
    rep = count_flops(g, CONV_ONLY)
    assert rep.total_flops == 9 * 64 * 64
    assert 9 * 16 == 144


def test_doubling_batch_doubles_flops():
    conv = CONV_ONLY
    g1 = infer_shapes(presets.build("uhrnet-w18-small-va"), (1, 3, 128, 128))
    g2 = infer_shapes(presets.build("uhrnet-w18-small-va"), (2, 3, 128, 128))
    assert count_flops(g2, conv).total_flops == 2 * count_flops(g1, conv).total_flops


def test_half_resolution_quarters_flops():
    conv = CostConvention()
    g1 = shaped_preset("hrnetv2-w18-small-v2")
    g2 = infer_shapes(presets.build("hrnetv2-w18-small-v2"), (1, 3, 512, 1024))
    assert count_flops(g1, conv).total_flops == 4 * count_flops(g2, conv).total_flops


def test_params_formulas():
    rep = count_flops(shaped_preset("uhrnet-w18-small"), CostConvention())
    rows = {r.id: r for r in rep.rows}
    conv = rows["s2.m0.b0.blk0.c1.conv"]
    assert conv.params == 9 * 18 * 18 == 2916
    bn36 = rows["s2.m0.b1.blk0.c1.bn"]
    assert bn36.params == 4 * 36 == 144
    assert bn36.params_trainable == 72
    block = [r for r in rep.rows if r.id.startswith("s2.m0.b0.blk0.")]
    assert sum(r.params for r in block) == 2 * 2916 + 2 * 72  # level-0 block, width 18


def test_params_independent_of_input_shape():
    a = count_flops(shaped_preset("uhrnet-w18-small"), CostConvention()).total_params
    b = count_flops(
        infer_shapes(presets.build("uhrnet-w18-small"), (2, 3, 128, 256)), CostConvention()
    ).total_params
    assert a == b


def test_rollups_sum_to_total():
    rep = count_flops(shaped_preset("uhrnet-w18-small"), CostConvention())
    assert sum(f for f, _ in rep.by_group().values()) == rep.total_flops
    assert sum(rep.by_level().values()) == rep.total_flops


def test_toggles_monotonic():
    g = shaped_preset("hrnetv2-w18-small-v2")
    base = CostConvention(include_bn=False, include_relu=False, include_upsample=False)
    full = CostConvention(include_bn=True, include_relu=True, include_upsample=True)
    assert count_flops(g, base).total_flops < count_flops(g, full).total_flops
    assert (
        count_flops(g, base).total_flops
        < count_flops(g, CostConvention(include_bn=True)).total_flops
    )


def test_mac_factor_two_doubles_conv_cost():
    g = infer_shapes(single_conv_graph(), (1, 1, 64, 64))
    one = count_flops(g, CONV_ONLY).total_flops
    two = count_flops(
        g,
        CostConvention(
            mac_factor=2, include_bn=False, include_relu=False, include_upsample=False,
            include_head=True, classifier_classes=0, unit_divisor=10**9,
        ),
    ).total_flops
    assert two == 2 * one


def test_calibration_hits_anchor_within_one_percent(calibration):
    assert abs(calibration.residuals["hrnetv2-w18-small-v2"]) < 0.01
    assert calibration.within_tolerance


def test_calibrated_convention_reproduces_whole_table(convention):
    for name, target in presets.REFERENCE_GFLOPS.items():
        got = count_flops(shaped_preset(name), convention).gflops
        assert abs(got - target) / target < 0.03, f"{name}: {got:.2f} vs {target}"


@pytest.mark.parametrize(
    "name", ["hrnetv2-w18-small-v2", "hrnetv2-w48", "uhrnet-w18-small", "uhrnet-w18-small-va"]
)
def test_calibration_prices_like_count_flops(name):
    # both baselines, the paper's pair and one more U-HRNet variant
    g = shaped_preset(name)
    totals = analysis._base_totals(g)
    assert len(set(analysis._CONVENTIONS)) == 128
    for conv in analysis._CONVENTIONS:
        assert analysis._price(totals, conv) == count_flops(g, conv).total_flops, conv


@pytest.mark.parametrize(
    "targets",
    [presets.BASELINE_GFLOPS, {"uhrnet-w18-small": 73.1}, {"hrnetv2-w18-small-v1": 31.1}],
    ids=["baselines", "uhrnet-w18-small", "hrnetv2-w18-small-v1"],
)
def test_calibration_residuals_match_count_flops(targets):
    result = calibrate_convention([(shaped_preset(n), t) for n, t in targets.items()])
    conv = result.convention
    assert list(result.residuals) == list(targets)
    for name, target in targets.items():
        got = count_flops(shaped_preset(name), conv).total_flops / conv.unit_divisor
        assert result.residuals[name] == (got - target) / target
    assert result.max_abs_residual == max(abs(r) for r in result.residuals.values())


def test_calibration_requires_baseline():
    with pytest.raises(ValueError):
        calibrate_convention([])


def test_compare_self_is_zero(convention):
    rep = count_flops(shaped_preset("uhrnet-w18-small"), convention)
    diff = compare(rep, rep)
    assert diff.delta == 0
    assert all(r.delta == 0 for r in diff.rows)


def test_compare_published_deltas(convention):
    small = count_flops(shaped_preset("uhrnet-w18-small"), convention)
    base = count_flops(shaped_preset("hrnetv2-w18-small-v2"), convention)
    assert abs(compare(small, base).delta_gflops - (73.1 - 71.6)) < 0.5
    w48 = count_flops(shaped_preset("uhrnet-w48"), convention)
    w48_base = count_flops(shaped_preset("hrnetv2-w48"), convention)
    assert abs(compare(w48, w48_base).delta_gflops - (698.6 - 696.2)) < 0.6


def test_compare_convention_mismatch(convention):
    a = count_flops(shaped_preset("uhrnet-w18-small"), convention)
    other = CostConvention(mac_factor=2)
    b = count_flops(shaped_preset("uhrnet-w18-small"), other)
    with pytest.raises(ConventionMismatch):
        compare(a, b)


def test_low_resolution_reallocation(convention):
    small = count_flops(shaped_preset("uhrnet-w18-small"), convention)
    base = count_flops(shaped_preset("hrnetv2-w18-small-v2"), convention)
    assert small.flops_fraction_at_levels(2) > base.flops_fraction_at_levels(2)


def test_report_json_shape(convention):
    doc = count_flops(shaped_preset("uhrnet-w18-small"), convention).to_json_dict()
    assert set(doc) == {"convention", "input_shape", "rows", "total"}
    assert doc["input_shape"] == [1, 3, 1024, 2048]
    assert {r["role"] for r in doc["rows"]} >= {"stem", "stage1", "head"}
    assert doc["total"]["flops"] == sum(
        r["flops"] for r in doc["rows"]
    )


def test_gflops_display_one_decimal(convention):
    rep = count_flops(shaped_preset("uhrnet-w18-small"), convention)
    text = rep.to_text()
    assert f"{rep.gflops:.1f}" in text


# the calibrated convention, the same with the head off, and every term on
ROW_CONVENTIONS = (
    CostConvention(),
    CostConvention(include_head=False),
    CostConvention(2, True, True, True, True, classifier_classes=0, unit_divisor=10**9),
)


@pytest.mark.parametrize("conv", ROW_CONVENTIONS, ids=["calibrated", "head-off", "all-on"])
def test_count_flops_rows_price_each_node(conv):
    for name in presets.names():
        g = shaped_preset(name)
        in_h = g.nodes[0].out_shape[2]
        want = [
            CostRow(
                n.id,
                n.role,
                n.kind,
                resolution_level(n.out_shape[2], in_h),
                analysis._scale(n.role, n.kind, conv) * analysis._base_flops(n),
                *analysis._node_params(n),
            )
            for n in g.nodes
            if conv.include_head or n.role != "head"
        ]
        rows = count_flops(g, conv).rows
        assert list(rows[: len(want)]) == want, name
        extra = [(r.id, r.role, r.kind) for r in rows[len(want) :]]
        classifier = conv.include_head and conv.classifier_classes
        assert extra == ([("classifier.conv", "classifier", "conv")] if classifier else []), name


@pytest.mark.parametrize("conv", ROW_CONVENTIONS, ids=["calibrated", "head-off", "all-on"])
def test_report_rollups_agree_with_rows(conv):
    for name in presets.names():
        rep = count_flops(shaped_preset(name), conv)
        groups: dict[str, list[int]] = {}
        for r in rep.rows:
            acc = groups.setdefault(r.role.split(".")[0], [0, 0])
            acc[0] += r.flops
            acc[1] += r.params
        flops, params = sum(r.flops for r in rep.rows), sum(r.params for r in rep.rows)
        trainable = sum(r.params_trainable for r in rep.rows)
        assert rep.by_group() == {g: tuple(v) for g, v in groups.items()}, name
        assert (rep.total_flops, rep.total_params) == (flops, params)
        doc = rep.to_json_dict()
        assert doc["total"] == {
            "flops": flops,
            "gflops": round(flops / conv.unit_divisor, 3),
            "params": params,
            "params_trainable": trainable,
        }, name
        assert doc["rows"] == [
            {"role": g, "flops": f, "params": p}
            for g, (f, p) in sorted(rep.by_group().items(), key=analysis._group_key)
        ], name
        total_line = rep.to_text().splitlines()[-1].split()
        assert total_line == ["total", f"{flops / conv.unit_divisor:.1f}", f"{params:,}"], name
