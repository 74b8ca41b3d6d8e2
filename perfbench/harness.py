"""Workloads, output checks and metrics of the hamforge benchmark.

Every workload drives the library through the calls the CLI makes:
``config.load_config`` -> ``build_algebra`` / ``build_subspaces`` ->
``build_pipeline`` -> ``optimizer.gsa_minimize`` for the anneal workloads,
and ``reach.find_scale_range`` plus ``evaluate.evaluation_report`` for the
design workload.  Load is a closed loop with one client: the annealer
proposes its next point only after the previous cost evaluation returns.

Timings are taken in segments between runs of a calibration kernel
(see ``calib``); gated metrics use the scaled times, and the report lines
show the measured ones beside them.

The caller must put hamforge on ``sys.path`` before importing this module.
"""
from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hamforge import config, controlsys, evaluate, objectives, optimizer, reach, toggling

from calib import NOMINAL, Kernel, SegmentClock
from spans import Tracer

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
REFS = HERE / "refs"

ANNEAL = ("anneal-1q-hadamard", "anneal-2q-cnot-r3", "anneal-1q-circuit")
DESIGN = "design-2q-scale-evaluate"
WORKLOADS = ANNEAL + (DESIGN,)

REF_SEED = 2506                    # seeds the control vectors of the reference checks
N_REF = 8
DESIGN_SEEDS = tuple(range(100, 124))
REL_TOL = 1e-9
# robustness_second terms of model parameters are second central differences
# of the field; one ulp of relative noise in the field moves them by ~1e-8.
SECOND_DIFF_TOL = 1e-6
MOVED_TOL = 1e-12

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 1000
SETUP_MIN_SECONDS = 1.0
UNTRACED_SHARE = 0.25              # share of a traced run spent measuring untraced


def fixture_path(workload: str) -> Path:
    return FIXTURES / f"{workload}.json"


def close(got: float, ref: float, tol: float = REL_TOL) -> bool:
    return math.isfinite(got) and abs(got - ref) <= tol * abs(ref)


def term_tol(label: str) -> float:
    return SECOND_DIFF_TOL if label.startswith("robustness_second") else REL_TOL


@dataclass
class Tally:
    """Operations attempted and failed; a failure is a mismatch against the
    stored references, an exception, or a non-finite cost."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


# ---------------------------------------------------------------------------
# set-up

@dataclass
class Design:
    cfg: config.ProblemConfig
    algebra: object
    components: list
    setup: evaluate.EvaluationSetup
    u0: object


def setup_anneal(workload: str):
    cfg = config.load_config(fixture_path(workload))
    g = config.build_algebra(cfg)
    subspaces = config.build_subspaces(cfg, g)
    return cfg, config.build_pipeline(cfg, g, subspaces)


def setup_design(workload: str) -> Design:
    cfg = config.load_config(fixture_path(workload))
    g = config.build_algebra(cfg)
    subspaces = config.build_subspaces(cfg, g)
    return Design(
        cfg,
        g,
        config.scale_components(cfg, subspaces),
        config.build_evaluation_setup(cfg),
        config.total_target_unitary(cfg, subspaces),
    )


def timed_setups(workload: str, kernel: Kernel):
    """Repeat the set-up; returns (clock holding one op per set-up, last result)."""
    build = setup_design if workload == DESIGN else setup_anneal
    build(workload)  # warm-up: first-call costs are not set-up time
    clock = SegmentClock(kernel)
    start = time.perf_counter()
    n = 0
    clock.start()
    while n < SETUP_MIN_REPS or (
        time.perf_counter() - start < SETUP_MIN_SECONDS and n < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        built = build(workload)
        clock.op(time.perf_counter() - t0)
        n += 1
        if clock.due():
            clock.pause()
            clock.start()
    clock.pause()
    return clock, built


# ---------------------------------------------------------------------------
# generated inputs

def reference_controls(dimension: int):
    return [
        optimizer.restart_rng(REF_SEED, k).uniform(-1.0, 1.0, dimension) for k in range(N_REF)
    ]


def design_sequence(cfg, design_seed: int) -> controlsys.ControlSequence:
    x = optimizer.restart_rng(design_seed, 0).uniform(-1.0, 1.0, cfg.gsa.dimension)
    return controlsys.ControlSequence(
        x.reshape(len(cfg.channels), cfg.intervals), cfg.dt, cfg.channels
    )


def design_scale(d: Design, design_seed: int):
    """One ``find_scale_range`` call with the CLI's settings and RNG stream."""
    evs = d.cfg.evaluation
    rng = np.random.default_rng(np.random.SeedSequence(design_seed, spawn_key=(11,)))
    return reach.find_scale_range(
        d.algebra,
        d.components,
        int(evs.get("scale_samples", 1000)),
        sampler=evs.get("sampler", "auto"),
        rng=rng,
        batch=int(evs.get("scale_batch", 200)),
    )


def design_evaluate(d: Design, design_seed: int) -> dict:
    return evaluate.evaluation_report(
        design_sequence(d.cfg, design_seed),
        d.setup,
        d.u0,
        int(d.cfg.evaluation.get("n_mc", 1000)),
        design_seed,
    )


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# measured windows

@dataclass
class Window:
    """Operations of one measured window, as measured and as scaled."""

    raw: list               # seconds per operation
    scaled: list
    busy_raw: float         # seconds of workload time, kernel runs excluded
    busy_scaled: float
    detail: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.raw)

    def rate(self, scaled: bool = True) -> float:
        return self.ops / (self.busy_scaled if scaled else self.busy_raw)

    @property
    def scale(self) -> float:
        """Mean factor from measured to scaled time."""
        return self.busy_scaled / self.busy_raw


def _ms(seconds, q):
    return float(np.percentile(seconds, q)) * 1e3


# ---------------------------------------------------------------------------
# anneal workloads

class Energy:
    """The annealer's cost callable: times each ``pipe(x)`` and watches the
    proposals it is given."""

    def __init__(self, pipe, clock: SegmentClock):
        self.pipe = pipe
        self.clock = clock
        self.latencies: list[float] = []
        self.nonfinite = 0
        self.moved = 0
        self.compared = 0
        self.improvements = 0
        self._prev = None
        self._best = math.inf

    def new_stage(self):
        self._prev = None
        self._best = math.inf

    def __call__(self, x):
        t0 = time.perf_counter()
        e = self.pipe(x)
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.clock.op(dt)
        if not math.isfinite(e):
            self.nonfinite += 1
        if self._prev is not None:
            self.compared += 1
            if np.max(np.abs(x - self._prev)) > MOVED_TOL:
                self.moved += 1
        self._prev = np.array(x, copy=True)
        if e < self._best:
            if self._best < math.inf:
                self.improvements += 1
            self._best = e
        if self.clock.due():
            self.clock.pause()
            self.clock.start()
        return e


def check_anneal_refs(cfg, pipe, refs: dict, tally: Tally) -> None:
    controls = reference_controls(cfg.gsa.dimension)
    for k, (x, ref) in enumerate(zip(controls, refs["reports"])):
        try:
            rep = pipe.evaluate(x)
            ok = list(rep.labels) == ref["labels"] and all(
                close(float(v), r, term_tol(label))
                for label, v, r in zip(rep.labels, rep.values, ref["values"])
            )
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            ok = False
            tally.notes.append(f"reference control {k}: {exc!r}")
        tally.check(ok, f"reference control {k} differs from the stored CostReport")


class AnnealRun:
    """Chained annealing stages from one seed.  Stage k starts at the best
    point of stage k-1 and draws from substream k+1 of the seed; x0 comes
    from substream 0.  Stages run until the time budget is spent."""

    def __init__(self, cfg, pipe, seed: int, tally: Tally, kernel: Kernel):
        self.cfg, self.pipe, self.seed, self.tally, self.kernel = cfg, pipe, seed, tally, kernel
        self.x = optimizer.restart_rng(seed, 0).uniform(-1.0, 1.0, cfg.gsa.dimension)
        self.stage = 0

    def run(self, seconds: float) -> Window:
        clock = SegmentClock(self.kernel)
        energy = Energy(self.pipe, clock)
        deadline = time.perf_counter() + seconds
        while True:
            t_max, t0 = self.cfg.stages[self.stage % len(self.cfg.stages)]
            stage_cfg = replace(self.cfg.gsa, t_max=t_max, t0=t0, master_seed=self.seed)
            rng = optimizer.restart_rng(self.seed, self.stage + 1)
            energy.new_stage()
            clock.start()
            try:
                res = optimizer.gsa_minimize(energy, self.x, stage_cfg, rng)
            except RuntimeError as exc:
                self.tally.check(False, f"annealing stage {self.stage}: {exc}")
                break
            finally:
                clock.pause()
            self.stage += 1
            try:
                ok = close(self.pipe(res.best_x), res.best_e)
            except Exception as exc:  # counted, see check_anneal_refs
                ok = False
                self.tally.notes.append(repr(exc))
            self.tally.check(ok, f"stage {self.stage}: best_e != pipe(best_x)")
            self.x = res.best_x
            if time.perf_counter() >= deadline:
                break
        self.tally.attempted += len(energy.latencies)
        self.tally.failed += energy.nonfinite
        return Window(
            clock.times(scaled=False),
            clock.times(scaled=True),
            clock.busy(scaled=False),
            clock.busy(scaled=True),
            {"energy": energy},
        )


# ---------------------------------------------------------------------------
# design workload

class DesignRun:
    """Design steps (one ``find_scale_range`` then one ``evaluation_report``)
    over the stored design seeds, in an order drawn from the run seed.  One
    design step is one operation."""

    def __init__(self, design: Design, seed: int, refs: dict, tally: Tally, kernel: Kernel):
        self.design, self.refs, self.tally, self.kernel = design, refs, tally, kernel
        self.order = np.random.default_rng(seed).permutation(len(DESIGN_SEEDS))
        self.i = 0

    @staticmethod
    def _timed(clock, fn, *args):
        """(result, measured seconds, scaled seconds) of one call."""
        clock.start()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = time.perf_counter() - t0
            clock.op(dt)
            factor = clock.pause()
        return out, dt, dt * factor

    def run(self, seconds: float) -> Window:
        clock = SegmentClock(self.kernel)
        scale_t, eval_t, batches = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            ds = DESIGN_SEEDS[self.order[self.i % len(DESIGN_SEEDS)]]
            ref = self.refs["seeds"][str(ds)]
            self.i += 1
            try:
                sr, raw, scaled = self._timed(clock, design_scale, self.design, ds)
                scale_t.append((raw, scaled))
                batches.append(len(sr.convergence_history))
                ok = sr.achievable and close(sr.s_minus, ref["s_minus"]) and close(sr.s_plus, ref["s_plus"])
            except Exception as exc:  # counted, see check_anneal_refs
                ok = False
                self.tally.notes.append(repr(exc))
            self.tally.check(ok, f"design seed {ds}: scale range differs from reference")
            try:
                rep, raw, scaled = self._timed(clock, design_evaluate, self.design, ds)
                eval_t.append((raw, scaled))
                ok = close(rep["fom"], ref["fom"])
            except Exception as exc:  # counted, see check_anneal_refs
                ok = False
                self.tally.notes.append(repr(exc))
            self.tally.check(ok, f"design seed {ds}: fom differs from reference")
            if self.tally.failed or time.perf_counter() >= deadline:
                break
        raw = [s[0] + e[0] for s, e in zip(scale_t, eval_t)]
        scaled = [s[1] + e[1] for s, e in zip(scale_t, eval_t)]
        return Window(
            raw,
            scaled,
            sum(raw),
            sum(scaled),
            {"scale": scale_t, "evaluate": eval_t, "batches": statistics.mean(batches) if batches else 0.0},
        )


# ---------------------------------------------------------------------------
# tracing

def _r_max(args, kwargs):
    return kwargs["r_max"] if "r_max" in kwargs else args[4]


def _cints_label(args, kwargs):
    return f"toggling.batch_step_cints.r{_r_max(args, kwargs)}"


def _count_r3_entries(counts, args, kwargs, result):
    if _r_max(args, kwargs) >= 3:
        q, m = np.shape(args[0])
        counts["r3_entries"] += q * m ** 3


def _count_matrices(counts, args, kwargs, result):
    counts["expm_matrices"] += result.size // (result.shape[-1] * result.shape[-2])


def _count_nonoptimal(counts, args, kwargs, result):
    if result.status != "optimal":
        counts["lp_nonoptimal"] += 1


def trace_targets():
    """(owner, attribute, span name, observer) for every wrapped call site."""
    targets = [
        (cls, "field", "controlsys.field", None)
        for cls in (controlsys.IdealModel, controlsys.CircuitModel)
    ]
    targets.append((toggling, "batch_step_cints", _cints_label, _count_r3_entries))
    for name in (
        "batch_step_cross",
        "compose_batch",
        "compose_cross_batch",
        "adjoint_matrix_batch",
        "prefix_toggles",
    ):
        targets.append((toggling, name, f"toggling.{name}", None))
    targets += [
        (toggling, "expm_batch", "toggling.expm_batch", _count_matrices),
        (objectives.CostPipeline, "evaluate", "objectives.evaluate", None),
        (reach, "find_scale_range", "reach.find_scale_range", None),
        (reach, "sample_vertices", "reach.sample_vertices", None),
        (reach, "lp_solve", "reach.lp_solve", _count_nonoptimal),
        (evaluate, "evaluation_report", "evaluate.report", None),
        (evaluate, "ptm", "evaluate.ptm", None),
        (config, "find_lie_algebra", "liealg.find_lie_algebra", None),
        (config, "find_c_subspace", "liealg.find_c_subspace", None),
        (config, "build_pipeline", "config.build_pipeline", None),
    ]
    return targets


# ---------------------------------------------------------------------------
# metrics

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setups: SegmentClock, window: Window) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups.times(scaled=True)), "unit": "s"},
        "norm_ops_per_s": {"value": window.rate(scaled=True), "unit": "1/s"},
        "norm_op_ms_p50": {"value": _ms(window.scaled, 50), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def report_lines(workload: str, setups: SegmentClock, window: Window) -> list[str]:
    """Per-workload figures with their sample counts, measured and scaled."""
    n = window.ops
    lines = [
        f"setup_s: measured median {statistics.median(setups.times(scaled=False)):.6g} s, "
        f"scaled {statistics.median(setups.times(scaled=True)):.6g} s (n={setups.ops} set-ups)",
    ]
    if workload == DESIGN:
        for name in ("scale", "evaluate"):
            calls = window.detail[name]
            lines.append(
                f"{name}_s_p50: measured {statistics.median(c[0] for c in calls):.6g} s, "
                f"scaled {statistics.median(c[1] for c in calls):.6g} s (n={len(calls)} calls)"
            )
        prefix, label = "op", "design steps"
    else:
        lines.append(
            f"evals_per_s: measured {window.rate(scaled=False):.6g} 1/s, "
            f"scaled {window.rate(scaled=True):.6g} 1/s (n={n} cost evaluations)"
        )
        prefix, label = "eval", "cost evaluations"
    for q in (50, 90):
        lines.append(
            f"{prefix}_ms_p{q}: measured {_ms(window.raw, q):.6g} ms, "
            f"scaled {_ms(window.scaled, q):.6g} ms (n={n} {label})"
        )
    return lines


def per_layer_metrics(setups: SegmentClock, setup_tracer, tracer, window: Window, untraced: Window, workload):
    """Span totals per operation (per set-up for the set-up layers), scaled
    by the window's mean calibration factor."""
    spans, counts = tracer.spans, tracer.counts

    def total_ms(name):
        return spans[name].total * 1e3 * window.scale if name in spans else 0.0

    def calls(name):
        return spans[name].calls if name in spans else 0

    n = max(calls("objectives.evaluate") if workload in ANNEAL else window.ops, 1)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("controlsys.field.ms", total_ms("controlsys.field") / n, "ms/op")
    put("controlsys.field.calls_per_eval", calls("controlsys.field") / n, "calls/op")
    for r in (1, 2, 3):
        put(f"toggling.batch_step_cints.r{r}.ms", total_ms(f"toggling.batch_step_cints.r{r}") / n, "ms/op")
    put("toggling.batch_step_cints.r3.entries", counts["r3_entries"] / n, "entries/op")
    for name in (
        "batch_step_cross",
        "compose_batch",
        "compose_cross_batch",
        "adjoint_matrix_batch",
        "prefix_toggles",
        "expm_batch",
    ):
        put(f"toggling.{name}.ms", total_ms(f"toggling.{name}") / n, "ms/op")
    put(
        "toggling.expm_batch.matrices_per_call",
        counts["expm_matrices"] / max(calls("toggling.expm_batch"), 1),
        "matrices",
    )
    ev = spans.get("objectives.evaluate")
    put("objectives.evaluate.self_ms", (ev.self_time * 1e3 * window.scale if ev else 0.0) / n, "ms/op")

    energy = window.detail.get("energy")
    if energy is not None:
        iters = len(energy.latencies)
        self_s = window.busy_raw - sum(energy.latencies)
        put("optimizer.self_ms_per_iter", self_s * 1e3 * window.scale / iters, "ms/iter")
        put("optimizer.moved_frac", energy.moved / max(energy.compared, 1), "fraction")
        put("optimizer.improvements", energy.improvements, "count")
    else:
        put("optimizer.self_ms_per_iter", 0.0, "ms/iter")
        put("optimizer.moved_frac", 0.0, "fraction")
        put("optimizer.improvements", 0, "count")

    put("reach.find_scale_range.ms", total_ms("reach.find_scale_range") / n, "ms/op")
    put("reach.sample_vertices.ms", total_ms("reach.sample_vertices") / n, "ms/op")
    put("reach.lp_solve.ms_per_call", total_ms("reach.lp_solve") / max(calls("reach.lp_solve"), 1), "ms")
    put("reach.lp_solve.calls", calls("reach.lp_solve") / n, "calls/op")
    put("reach.lp_solve.nonoptimal", counts["lp_nonoptimal"], "count")
    put("reach.batches", window.detail.get("batches", 0.0), "batches/call")

    rep = spans.get("evaluate.report")
    put("evaluate.report.ms", total_ms("evaluate.report") / n, "ms/op")
    put("evaluate.report.self_ms", (rep.self_time * 1e3 * window.scale if rep else 0.0) / n, "ms/op")
    put("evaluate.ptm.ms", total_ms("evaluate.ptm") / n, "ms/op")
    put("evaluate.ptm.calls", calls("evaluate.ptm") / n, "calls/op")

    s = setup_tracer.spans
    setup_scale = setups.busy(scaled=True) / setups.busy(scaled=False)
    for name in ("liealg.find_lie_algebra", "liealg.find_c_subspace", "config.build_pipeline"):
        value = s[name].total * 1e3 * setup_scale / setups.ops if name in s else 0.0
        put(f"{name}.ms", value, "ms/setup")

    put("trace.overhead_pct", (untraced.rate() / window.rate() - 1.0) * 100.0, "%")
    return m


# ---------------------------------------------------------------------------
# one run

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, check against the stored references, measure; returns the
    result object plus report lines for a human reader."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    tally = Tally()
    refs = load_refs(workload)
    kernel = Kernel()

    setup_tracer = Tracer(trace_targets())
    if trace:
        with setup_tracer:
            setups, built = timed_setups(workload, kernel)
    else:
        setups, built = timed_setups(workload, kernel)

    if workload == DESIGN:
        runner = DesignRun(built, seed, refs, tally, kernel)
    else:
        cfg, pipe = built
        check_anneal_refs(cfg, pipe, refs, tally)
        runner = AnnealRun(cfg, pipe, seed, tally, kernel)

    windows = []
    if trace:
        windows.append(runner.run(seconds * UNTRACED_SHARE))
        tracer = Tracer(trace_targets())
        with tracer:
            windows.append(runner.run(seconds * (1.0 - UNTRACED_SHARE)))
    else:
        windows.append(runner.run(seconds))
    if not all(w.ops for w in windows):
        raise RuntimeError("no operation completed: " + "; ".join(tally.notes))
    window = windows[-1]
    if trace:
        untraced = windows[0]
        metrics = per_layer_metrics(setups, setup_tracer, tracer, window, untraced, workload)
        lines = [
            f"tracing overhead: untraced {untraced.rate():.6g} ops/s (n={untraced.ops}), "
            f"traced {window.rate():.6g} ops/s (n={window.ops}), both scaled"
        ]
    else:
        metrics = end_to_end_metrics(setups, window)
        lines = report_lines(workload, setups, window)
    kernel_ms = [1e3 * k for k in setups.kernel_times]
    lines.append(
        f"calibration kernel: median {statistics.median(kernel_ms):.4g} ms during set-up "
        f"(nominal {1e3 * NOMINAL:.4g} ms); mean measured-to-scaled factor {window.scale:.4g}"
    )
    lines += [f"FAILED: {note}" for note in tally.notes]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return {"result": result, "lines": lines, "ops": window.ops, "setups": setups.ops}
