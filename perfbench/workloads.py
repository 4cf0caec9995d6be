"""The benchmark's workloads.

Each is a closed loop with one client in one process, a researcher who
waits for every result: the next request starts when the previous one has
returned.  A workload prepares (repeatable set-up, timed several times),
warms up once, serves requests and finally runs a correctness check that
is too expensive to repeat per request.  Requests and their inputs derive
from the workload seed only.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import statistics
import time
from typing import NamedTuple

import numpy as np

import machine
import sweepgen


class Outcome(NamedTuple):
    seconds: float  # the program call alone, checks excluded
    ok: bool
    work: float  # MACs, compared coordinates or completed queries
    note: str = ""


class Workload:
    name = ""
    min_requests = 1
    # requests per round; a run is a whole number of rounds, so every run
    # serves the same mix of requests
    round = 1
    setup_repeats = 3
    # the host's speed: a fixed unit of work like the requests', timed
    # ref_units times around each request (see reference_time)
    reference = staticmethod(machine.reference_s)
    ref_units = 1
    work_metric = ("", "", 1.0)  # name, unit, divisor applied to work per second
    input_h = 0  # input height of the executed graphs, for resolution levels
    check_detail = ""  # what final_check compared, when it passed

    def __init__(self, uhrkit, seed: int, tmp):
        self.u = uhrkit
        self.seed = seed
        self.tmp = tmp
        self.context: dict = {"input_h": self.input_h}

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def request(self, i: int) -> Outcome:
        raise NotImplementedError

    def reference_time(self) -> float:
        """Median of ``ref_units`` timings of the reference unit, now."""
        return statistics.median(self.reference() for _ in range(self.ref_units))

    def final_check(self) -> str | None:
        """Error message, or None when the outputs hold."""
        return None

    def p50(self, latencies: list[float]) -> float:
        return statistics.median(latencies)

    def _cli(self, argv: list[str]) -> tuple[float, int, str]:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.u.cli.main(argv)
        return time.perf_counter() - start, rc, buf.getvalue()


# ---------------------------------------------------------------------------
# fwd-1024


class Forward1024(Workload):
    """float32 ``run_forward`` at the canonical cost input, alternating the
    paper's pair of presets."""

    name = "fwd-1024"
    min_requests = 4  # two passes per preset
    round = 2  # one pass per preset
    reference = staticmethod(machine.reference_numpy_s)
    ref_units = 10  # ~0.55 s before each ~7 s pass
    work_metric = ("fwd.gmac_per_s", "GMAC/s", 1e9)
    input_h = 1024

    PRESETS = ("uhrnet-w18-small", "hrnetv2-w18-small-v2")
    # head width: 15.5*C with a 1/64 stream (channel-pooled), 15*C without
    HEAD_CHANNELS = {"uhrnet-w18-small": 279, "hrnetv2-w18-small-v2": 270}
    N_INPUTS = 2
    # max-norm relative distance of the float32 output from a float64
    # forward of the same weights and input; float32 rounding through the
    # network stays orders of magnitude below this
    REF_TOL = 1e-4

    def conv_only(self):
        """Conv MACs only, head on, classifier 0: the classifier conv is
        counted by the convention but never executed."""
        return self.u.analysis.CostConvention(
            mac_factor=1,
            include_bn=False,
            include_relu=False,
            include_upsample=False,
            include_head=True,
            classifier_classes=0,
        )

    def prepare(self) -> None:
        u = self.u
        shape = u.presets.COST_INPUT_SHAPE
        rng = random.Random(self.seed)
        self.models = {}
        for p in self.PRESETS:
            g = u.graph.infer_shapes(u.presets.build(p), shape)
            store = u.runtime.init_weights(g, rng.randrange(2**32))
            path = self.tmp / f"{p}.hrws"
            u.runtime.save_weights(store, path)
            loaded = u.runtime.load_weights(path)
            if not loaded.allclose(store):
                raise RuntimeError(f"{p}: weights changed across the HRWS round trip")
            report = u.analysis.count_flops(g, self.conv_only())
            macs = sum(r.flops for r in report.rows if r.kind == "conv")
            self.models[p] = (g, loaded, macs, report)
        self.inputs = []
        for k in range(self.N_INPUTS):
            x = u.runtime.verification_input(shape, rng.randrange(2**32)).data
            path = self.tmp / f"x{k}.hrtf"
            u.ops.write_tensor(path, x)
            back = u.ops.read_tensor(path).data
            if not np.array_equal(back, x):
                raise RuntimeError("input changed across the HRTF round trip")
            self.inputs.append(back)
        self.last = None

    def warm_up(self) -> None:
        for p in self.PRESETS:
            g, store, _, _ = self.models[p]
            self.context["preset"] = p
            self.u.runtime.run_forward(g, store, self.inputs[0])

    def request(self, i: int) -> Outcome:
        p = self.PRESETS[i % len(self.PRESETS)]
        k = i % self.N_INPUTS
        g, store, macs, _ = self.models[p]
        self.context["preset"] = p
        self.last = None  # keep a single output alive, so it adds no peak
        start = time.perf_counter()
        out, _ = self.u.runtime.run_forward(g, store, self.inputs[k])
        seconds = time.perf_counter() - start
        want = (1, self.HEAD_CHANNELS[p], self.input_h // 4, 2048 // 4)
        ok = out.shape == want and out.dtype == np.float32 and bool(np.isfinite(out).all())
        self.last = (p, k, out)
        return Outcome(seconds, ok, macs, "" if ok else f"{p}: output {out.shape} {out.dtype}, want {want}, finite")

    def final_check(self) -> str | None:
        p, k, out = self.last
        g, store, _, _ = self.models[p]
        ref, _ = self.u.runtime.run_forward(g, store, self.inputs[k].astype(np.float64))
        err = float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
        self.check_detail = f"{p} input {k}: float32 vs float64 max-norm relative distance {err:.3e} (tolerance {self.REF_TOL:g})"
        return None if err <= self.REF_TOL else self.check_detail

    def p50(self, latencies: list[float]) -> float:
        """Mean over the presets of each preset's median pass: the pair's
        passes take different times, so a median over both would jump
        between them."""
        n = len(self.PRESETS)
        return statistics.fmean(statistics.median(latencies[k::n]) for k in range(n))

    def claim(self, conv_spans: list[tuple]) -> dict[str, float]:
        """Per preset and resolution level: share of measured conv time next
        to the analytic share (``by_level``, ``flops_fraction_at_levels(2)``)."""
        out = {}
        for p in self.PRESETS:
            report = self.models[p][3]
            total = report.total_flops
            flops = report.by_level()
            secs: dict[int, float] = {}
            for _sid, _name, start, end, _parent, _pid, attrs in conv_spans:
                if attrs and attrs.get("preset") == p:
                    secs[attrs["lv"]] = secs.get(attrs["lv"], 0.0) + end - start
            busy = sum(secs.values())
            for lv in range(-1, 5):
                out[f"claim.{p}.L{lv}.cpu_share"] = secs.get(lv, 0.0) / busy if busy else 0.0
                out[f"claim.{p}.L{lv}.flops_share"] = flops.get(lv, 0) / total
            out[f"claim.{p}.L2plus.cpu_share"] = (
                sum(s for lv, s in secs.items() if lv >= 2) / busy if busy else 0.0
            )
            out[f"claim.{p}.L2plus.flops_share"] = report.flops_fraction_at_levels(2)
        return out


# ---------------------------------------------------------------------------
# gradcheck-micro


class GradcheckMicro(Workload):
    """In-process ``uhrkit gradcheck --micro`` with the default workers."""

    name = "gradcheck-micro"
    work_metric = ("gc.coords_per_s", "coords/s", 1.0)
    input_h = 64
    # At 6 samples the replay lanes are wide enough for OpenBLAS to go
    # multi-threaded, so unlimited BLAS threads in two forked workers
    # oversubscribe the cores; at 4 they do not and the defect hides.
    SAMPLES = 6

    def prepare(self) -> None:
        # the work before the fork: graph, weights, float64 forward and
        # backward of the micro configuration
        u = self.u
        shape = u.presets.MICRO_INPUT_SHAPE
        g = u.graph.infer_shapes(u.presets.build_micro(), shape)
        store = u.runtime.init_weights(g, self.seed).astype(np.float64)
        x = u.runtime.verification_input(shape, self.seed).data.astype(np.float64)
        out, acts = u.runtime.run_forward(g, store, x, keep_activations=True)
        u.runtime.run_backward(g, store, acts, np.full(out.shape, 1.0 / out.size))

    def request(self, i: int) -> Outcome:
        seed = random.Random(self.seed * 1_000_003 + i).randrange(1, 2**31)
        argv = ["gradcheck", "--micro", "--seed", str(seed), "--samples", str(self.SAMPLES), "--json"]
        seconds, rc, text = self._cli(argv)
        doc = json.loads(text)
        errs = [p["max_rel_err"] for p in doc["params"]]
        problems = [
            msg
            for bad, msg in (
                (rc != 0, f"exit {rc}"),
                (doc["passed"] is not True, "not passed"),
                (doc["fully_sampled"] is not True, "not fully sampled"),
                (not doc["checked"] > 0, "nothing compared"),
                (not errs or not all(math.isfinite(e) for e in errs), "non-finite max_rel_err"),
            )
            if bad
        ]
        note = f"seed {seed}: " + ", ".join(problems) if problems else ""
        return Outcome(seconds, not problems, doc["checked"], note)


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    """In-process cost queries over generated structures and presets, each
    with an explicit convention."""

    name = "sweep"
    mode = "explicit"
    work_metric = ("sweep.queries_per_s", "1/s", 1.0)
    round = len(sweepgen.CYCLE)
    # a prepare takes ~0.1 s; the machine's speed drifts over
    # seconds, so spread the repeats over a few seconds before taking the
    # median
    setup_repeats = 15

    def prepare(self) -> None:
        # one round of queries, the same for every workload seed so that
        # set-up time does not depend on it
        warm = sweepgen.requests(0, self.mode)
        for req in itertools.islice(warm, len(sweepgen.CYCLE)):
            out = self._query(req)
            if not out.ok:
                raise RuntimeError(f"warm-up query failed: {out.note}")
        self.stream = sweepgen.requests(self.seed, self.mode)
        self.queue: list[dict] = []

    def request(self, i: int) -> Outcome:
        while len(self.queue) <= i:
            self.queue.append(next(self.stream))
        return self._query(self.queue[i])

    def _query(self, req: dict) -> Outcome:
        argv = list(req["argv"])
        out_path = self.tmp / "graph.json"
        if req["kind"] == "export":
            argv += ["--out", str(out_path)]
        seconds, rc, text = self._cli(argv)
        note = f"exit {rc}" if rc != 0 else self._check(req["kind"], argv, json.loads(text), out_path)
        return Outcome(seconds, not note, 1.0, f"{' '.join(argv)}: {note}" if note else "")

    def _check(self, kind: str, argv: list[str], doc: dict, out_path) -> str:
        u = self.u
        auto = "--convention" in argv and argv[argv.index("--convention") + 1] == "auto"
        if auto and not self._calibrated(doc["convention"]):
            return f"auto calibrated to {doc['convention']}"
        if kind in ("structure", "preset"):
            rows = sum(r["flops"] for r in doc["rows"])
            if rows != doc["total"]["flops"]:
                return f"role rows sum to {rows}, total says {doc['total']['flops']}"
            if kind == "preset" and self._calibrated(doc["convention"]):
                name = argv[argv.index("--preset") + 1]
                ref = u.presets.REFERENCE_GFLOPS[name]
                got = doc["total"]["flops"] / doc["convention"]["unit_divisor"]
                if abs(got - ref) > 0.0025 * ref:
                    return f"{name}: {got:.3f} GFLOPs vs published {ref}"
            if auto and not doc["calibration"]["within_tolerance"]:
                return "auto calibration outside its tolerance"
            return ""
        if kind == "compare":
            total = doc["total"]
            slack = 0.0005 * (len(doc["rows"]) + 1)
            for side in ("a", "b"):
                rows = sum(r[f"{side}_gflops"] for r in doc["rows"])
                if abs(rows - total[f"{side}_gflops"]) > slack:
                    return f"side {side}: role rows sum to {rows}, total says {total[side + '_gflops']}"
                if self._calibrated(doc["convention"]):
                    name = argv[argv.index("--" + side) + 1]
                    ref = u.presets.REFERENCE_GFLOPS[name]
                    if abs(total[f"{side}_gflops"] - ref) > 0.0025 * ref + 0.0005:
                        return f"{name}: {total[side + '_gflops']} GFLOPs vs published {ref}"
            if abs(total["a_gflops"] - total["b_gflops"] - total["delta_gflops"]) > 0.0015:
                return "delta is not a - b"
            return ""
        # export
        text = out_path.read_text(encoding="utf-8")
        graph = u.graph.import_graph(text)
        nodes = json.loads(text)["nodes"]
        if len(graph.nodes) != doc["nodes"] or len(nodes) != doc["nodes"]:
            return f"{len(graph.nodes)} nodes imported, {doc['nodes']} exported"
        for node, raw in zip(graph.nodes, nodes):
            if node.id != raw["id"] or list(node.out_shape) != raw["out_shape"]:
                return f"node {raw['id']} changed on import"
        shape = argv[argv.index("--input") + 1] if "--input" in argv else "1x3x1024x2048"
        n, _, h, w = (int(v) for v in shape.split("x"))
        out_shape = graph.output_node().out_shape
        if (out_shape[0], out_shape[2], out_shape[3]) != (n, h // 4, w // 4):
            return f"output shape {out_shape} for input {shape}"
        return ""

    @staticmethod
    def _calibrated(conv: dict) -> bool:
        return conv == {
            "mac_factor": 1,
            "include_bn": False,
            "include_relu": False,
            "include_upsample": False,
            "include_head": True,
            "classifier_classes": 19,
            "unit_divisor": 2**30,
        }


class SweepAuto(Sweep):
    """The same queries with ``--convention auto``: every summarize and
    compare calibrates the convention first."""

    name = "sweep-auto"
    mode = "auto"
    setup_repeats = 7  # a prepare calibrates six times, ~0.8 s


WORKLOADS = {w.name: w for w in (Forward1024, GradcheckMicro, Sweep, SweepAuto)}
