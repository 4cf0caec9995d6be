"""Analytic FLOP and parameter accounting over shaped layer graphs.

Published cost figures for this model family never state their counting
convention, so the convention is a first-class value here
(:class:`CostConvention`) and :func:`calibrate_convention` searches the
small discrete space of plausible conventions for the one that best
reproduces a set of published baselines.  The winning convention on the
embedded baselines counts convolutions only (one FLOP per multiply-
accumulate), includes the representation head plus a 19-class 1x1
classifier, and divides by 2**30 rather than 10**9 for display — every
report records the convention it was produced under, so nothing is
implicit.

Per-node counting rules:

* conv: ``mac_factor * k * k * in_ch * out_ch * out_h * out_w * n``
* batchnorm: ``2 * elements`` when included
* relu: ``elements`` when included
* bilinear upsample: ``7 * output elements`` when included (4 mul + 3 add)
* channel pool: input elements;  add: elements;  concat: free

Each rule is a base cost (the unit convention: one FLOP per MAC, every
term on) times a per-kind scale the convention sets, so a convention's
total is a linear combination of per-kind base totals.  Calibration walks
each baseline graph once to get those totals, kept apart for body, head
and classifier, and prices all candidate conventions from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .graph import LayerGraph, Node, resolution_level


class ConventionMismatch(ValueError):
    pass


class ShapesMissing(ValueError):
    pass


@dataclass(frozen=True)
class CostConvention:
    """Counting rules for a cost report.

    ``classifier_classes`` adds a virtual 1x1 conv from the head output to
    that many classes (0 disables it); ``unit_divisor`` is the scale used
    when displaying totals as "GFLOPs" (10**9 or 2**30).
    """

    mac_factor: int = 1
    include_bn: bool = False
    include_relu: bool = False
    include_upsample: bool = False
    include_head: bool = True
    classifier_classes: int = 19
    unit_divisor: int = 2**30

    def describe(self) -> str:
        bits = [
            f"mac_factor={self.mac_factor}",
            f"bn={'on' if self.include_bn else 'off'}",
            f"relu={'on' if self.include_relu else 'off'}",
            f"upsample={'on' if self.include_upsample else 'off'}",
            f"head={'on' if self.include_head else 'off'}",
            f"classifier={self.classifier_classes}",
            f"unit={'2^30' if self.unit_divisor == 2**30 else '10^9'}",
        ]
        return ", ".join(bits)


class CostRow(NamedTuple):
    """One node's cost; a tuple, since a report builds one per node."""

    id: str
    role: str
    kind: str
    level: int
    flops: int
    params: int
    params_trainable: int


@dataclass(frozen=True)
class CostReport:
    """Per-node costs with rollups by role group and resolution level.

    ``total_flops`` is an exact integer; ``gflops`` applies the convention's
    display divisor.  Parameter counts are independent of the input shape.
    """

    convention: CostConvention
    input_shape: tuple[int, int, int, int]
    rows: tuple[CostRow, ...]

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def gflops(self) -> float:
        return self.total_flops / self.convention.unit_divisor

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    def by_group(self) -> dict[str, tuple[int, int]]:
        """(flops, params) keyed by role group: stem, stage1.., transition,
        fusion, head, classifier."""
        return self._rollup()[0]

    def _rollup(self) -> tuple[dict[str, tuple[int, int]], tuple[int, int, int]]:
        """:meth:`by_group` and the three totals (flops, params, trainable
        params) in one pass over the rows, summed per role before the few
        distinct roles are folded into groups."""
        by_role: dict[str, list[int]] = {}
        trainable = 0
        for r in self.rows:
            a = by_role.setdefault(r.role, [0, 0])
            a[0] += r.flops
            a[1] += r.params
            trainable += r.params_trainable
        acc: dict[str, list[int]] = {}
        for role, (flops, params) in by_role.items():
            a = acc.setdefault(role_group(role), [0, 0])
            a[0] += flops
            a[1] += params
        groups = {g: (a[0], a[1]) for g, a in acc.items()}
        return groups, (sum(a[0] for a in acc.values()), sum(a[1] for a in acc.values()), trainable)

    def by_level(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.rows:
            out[r.level] = out.get(r.level, 0) + r.flops
        return dict(sorted(out.items()))

    def flops_fraction_at_levels(self, min_level: int) -> float:
        total = self.total_flops
        if total == 0:
            return 0.0
        return sum(f for l, f in self.by_level().items() if l >= min_level) / total

    def to_json_dict(self) -> dict:
        groups, (flops, params, trainable) = self._rollup()
        return {
            "convention": vars(self.convention) | {},
            "input_shape": list(self.input_shape),
            "rows": [
                {"role": g, "flops": f, "params": p} for g, (f, p) in sorted(groups.items(), key=_group_key)
            ],
            "total": {
                "flops": flops,
                "gflops": round(flops / self.convention.unit_divisor, 3),
                "params": params,
                "params_trainable": trainable,
            },
        }

    def to_text(self) -> str:
        groups, (flops, params, _) = self._rollup()
        div = self.convention.unit_divisor
        width = max(len(g) for g in groups) + 2
        lines = [
            f"input {'x'.join(str(d) for d in self.input_shape)}   convention: {self.convention.describe()}",
            f"{'role':<{width}}{'GFLOPs':>12}{'params':>14}",
        ]
        for g, (f, p) in sorted(groups.items(), key=_group_key):
            lines.append(f"{g:<{width}}{f / div:>12.2f}{p:>14,}")
        lines.append(f"{'total':<{width}}{flops / div:>12.1f}{params:>14,}")
        return "\n".join(lines)


def role_group(role: str) -> str:
    return role.split(".", 1)[0]


def _group_key(item) -> tuple:
    order = {"stem": 0, "transition": 50, "fusion": 51, "head": 90, "classifier": 91}
    g = item[0]
    if g.startswith("stage"):
        return (10, int(g[5:]))
    return (order.get(g, 80), 0)


# per-element cost of the elementwise kinds under the unit convention;
# chpool counts input elements, and its input has twice the channels
_PER_ELEMENT = {"bn": 2, "relu": 1, "upsample": 7, "chpool": 2, "add": 1}


def _base_flops(node: Node) -> int:
    """A node's cost under the unit convention: one FLOP per MAC, every term on."""
    n, c, h, w = node.out_shape
    if node.kind == "conv":
        a = node.attrs
        return a["k"] * a["k"] * a["in_ch"] * a["out_ch"] * h * w * n
    return _PER_ELEMENT.get(node.kind, 0) * n * c * h * w  # input, concat: free


def _scale(role: str, kind: str, conv: CostConvention) -> int:
    """What ``conv`` charges per unit of base cost on a ``kind`` row of
    ``role``, where every role but head and classifier is priced as the body:
    the one pricing rule, shared by :func:`count_flops` and calibration."""
    if role in ("head", "classifier") and not conv.include_head:
        return 0
    if role == "classifier":
        return conv.mac_factor * conv.classifier_classes
    if kind == "conv":
        return conv.mac_factor
    if kind == "bn":
        return conv.include_bn
    if kind == "relu":
        return conv.include_relu
    if kind == "upsample":
        return conv.include_upsample
    return 1


def _node_params(node: Node) -> tuple[int, int]:
    if node.kind == "conv":
        a = node.attrs
        p = a["k"] * a["k"] * a["in_ch"] * a["out_ch"]
        return p, p
    if node.kind == "bn":
        c = node.attrs["ch"]
        return 4 * c, 2 * c  # stored: gamma/beta/mean/var; trainable: gamma/beta
    return 0, 0


def count_flops(graph: LayerGraph, conv: CostConvention) -> CostReport:
    """FLOPs and parameters per node under a convention; shapes required."""
    if not graph.shaped:
        raise ShapesMissing("count_flops needs a shaped graph; call infer_shapes first")
    input_shape = graph.nodes[0].out_shape
    in_h = input_shape[2]
    scales: dict[tuple[str, str], int] = {}  # few distinct keys, many nodes
    levels: dict[int, int] = {}
    rows = []
    for node in graph.nodes:
        role, kind, h = node.role, node.kind, node.out_shape[2]
        if role == "head" and not conv.include_head:
            continue
        scale = scales.get((role, kind))
        if scale is None:
            scale = scales[role, kind] = _scale(role, kind, conv)
        level = levels.get(h)
        if level is None:
            level = levels[h] = resolution_level(h, in_h)
        rows.append(CostRow(node.id, role, kind, level, scale * _base_flops(node), *_node_params(node)))
    if conv.classifier_classes and conv.include_head:
        n, _, _, _ = input_shape
        h0, w0 = in_h // 4, input_shape[3] // 4
        head_ch = graph.output_node().out_shape[1]
        rows.append(
            CostRow(
                id="classifier.conv",
                role="classifier",
                kind="conv",
                level=0,
                flops=_scale("classifier", "conv", conv) * head_ch * h0 * w0 * n,
                params=head_ch * conv.classifier_classes,
                params_trainable=head_ch * conv.classifier_classes,
            )
        )
    return CostReport(convention=conv, input_shape=tuple(input_shape), rows=tuple(rows))


@dataclass(frozen=True)
class CalibrationResult:
    convention: CostConvention
    residuals: dict[str, float]  # per-baseline signed relative error
    max_abs_residual: float
    within_tolerance: bool  # best residual <= CALIBRATION_WARN


# a calibration whose best convention misses a baseline by more than this
# relative error is flagged, not raised
CALIBRATION_WARN = 0.05

# the space calibration searches, in scoring order
_CONVENTIONS = tuple(
    CostConvention(*fields)
    for fields in itertools.product(
        (1, 2),  # mac_factor
        (False, True),  # include_bn
        (False, True),  # include_relu
        (False, True),  # include_upsample
        (True, False),  # include_head
        (19, 0),  # classifier_classes
        (2**30, 10**9),  # unit_divisor
    )
)


def calibrate_convention(baselines: list[tuple[LayerGraph, float]]) -> CalibrationResult:
    """Pick the convention that best reproduces published baseline costs.

    ``baselines`` pairs shaped graphs with their published GFLOPs.  The full
    discrete space of :class:`CostConvention` fields is enumerated and the
    convention minimizing the maximum relative error wins.  Published
    figures carry one decimal (about ±0.07% relative), so conventions
    within 0.25% of the best are treated as ties and resolved by parsimony:
    fewest non-convolution element terms, then the smaller MAC factor.
    When even the best exceeds ``CALIBRATION_WARN`` the result is flagged
    rather than raised, so callers can still inspect the residuals.
    """
    if not baselines:
        raise ValueError("calibration needs at least one baseline")
    for g, _ in baselines:
        if not g.shaped:
            raise ShapesMissing("calibration baselines must be shaped graphs")

    priced = [(_label(g), _base_totals(g), target) for g, target in baselines]
    scored: list[tuple[float, CostConvention]] = []
    for conv in _CONVENTIONS:
        worst = 0.0
        for _, totals, target in priced:
            got = _price(totals, conv) / conv.unit_divisor
            worst = max(worst, abs(got - target) / target)
        scored.append((worst, conv))
    best_err = min(err for err, _ in scored)
    ties = [(err, c) for err, c in scored if err <= best_err + 0.0025]
    worst, conv = min(
        ties,
        key=lambda ec: (
            ec[1].include_bn + ec[1].include_relu + ec[1].include_upsample,
            ec[1].mac_factor,
            0 if ec[1].classifier_classes else 1,
            0 if ec[1].unit_divisor == 2**30 else 1,
            ec[0],
        ),
    )
    residuals = {
        label: (_price(totals, conv) / conv.unit_divisor - target) / target
        for label, totals, target in priced
    }
    return CalibrationResult(
        convention=conv,
        residuals=residuals,
        max_abs_residual=worst,
        within_tolerance=worst <= CALIBRATION_WARN,
    )


# prices every node at its base cost: every term on, MAC factor, classes and divisor 1
_UNIT = CostConvention(1, True, True, True, True, classifier_classes=1, unit_divisor=1)


def _base_totals(graph: LayerGraph) -> dict[tuple[str, str], int]:
    """Unit-convention FLOPs of ``graph`` summed by (body, head or classifier; kind)."""
    totals: dict[tuple[str, str], int] = {}
    for r in count_flops(graph, _UNIT).rows:
        key = (r.role if r.role in ("head", "classifier") else "body", r.kind)
        totals[key] = totals.get(key, 0) + r.flops
    return totals


def _price(totals: dict[tuple[str, str], int], conv: CostConvention) -> int:
    """``count_flops(graph, conv).total_flops`` from ``graph``'s base totals."""
    return sum(_scale(role, kind, conv) * t for (role, kind), t in totals.items())


def _label(graph: LayerGraph) -> str:
    meta = graph.meta
    return meta.get("label") or meta.get("preset") or meta.get("structure") or "graph"


@dataclass(frozen=True)
class CostDiff:
    role: str
    a_flops: int
    b_flops: int

    @property
    def delta(self) -> int:
        return self.a_flops - self.b_flops

    @property
    def rel(self) -> float | None:
        """Delta relative to side b; None where b spends nothing."""
        return self.delta / self.b_flops if self.b_flops else None


@dataclass(frozen=True)
class Comparison:
    convention: CostConvention
    rows: tuple[CostDiff, ...]
    a_total: int
    b_total: int

    @property
    def delta(self) -> int:
        return self.a_total - self.b_total

    @property
    def delta_gflops(self) -> float:
        return self.delta / self.convention.unit_divisor

    def to_json_dict(self) -> dict:
        div = self.convention.unit_divisor
        return {
            "convention": vars(self.convention) | {},
            "rows": [
                {
                    "role": r.role,
                    "a_gflops": round(r.a_flops / div, 3),
                    "b_gflops": round(r.b_flops / div, 3),
                    "delta_gflops": round(r.delta / div, 3),
                    "delta_rel": round(r.rel, 4) if r.rel is not None else None,
                }
                for r in self.rows
            ],
            "total": {
                "a_gflops": round(self.a_total / div, 3),
                "b_gflops": round(self.b_total / div, 3),
                "delta_gflops": round(self.delta_gflops, 3),
            },
        }

    def to_text(self) -> str:
        div = self.convention.unit_divisor
        width = max([len(r.role) for r in self.rows] + [6]) + 2
        lines = [f"{'role':<{width}}{'a':>10}{'b':>10}{'delta':>10}{'rel':>9}   (GFLOPs)"]
        for r in self.rows:
            rel = f"{100 * r.rel:+8.1f}%" if r.rel is not None else "        -"
            lines.append(
                f"{r.role:<{width}}{r.a_flops / div:>10.2f}{r.b_flops / div:>10.2f}"
                f"{r.delta / div:>+10.2f}{rel}"
            )
        total_rel = f"{100 * (self.delta / self.b_total):+8.1f}%" if self.b_total else "        -"
        lines.append(
            f"{'total':<{width}}{self.a_total / div:>10.1f}{self.b_total / div:>10.1f}"
            f"{self.delta / div:>+10.1f}{total_rel}"
        )
        return "\n".join(lines)


def compare(a: CostReport, b: CostReport) -> Comparison:
    """Per-role cost deltas between two reports under one convention."""
    if a.convention != b.convention:
        raise ConventionMismatch("reports were produced under different conventions")
    ga, gb = a.by_group(), b.by_group()
    roles = sorted(set(ga) | set(gb), key=lambda g: _group_key((g, None)))
    rows = tuple(
        CostDiff(role=g, a_flops=ga.get(g, (0, 0))[0], b_flops=gb.get(g, (0, 0))[0]) for g in roles
    )
    return Comparison(convention=a.convention, rows=rows, a_total=a.total_flops, b_total=b.total_flops)
