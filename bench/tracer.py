"""Spans and counters for the traced benchmark run, installed from outside.

The program has no timers of its own, so the traced repetition replaces the
module attributes that callers look up at call time (``f3ornits.master.
step_to``, ``f3ornits.report.run_f3ornits``, ...) with wrappers that record
one span per call: name, start, end and the span that was open when it
started.  Spans stay in memory and are written out after the run.  A span's
self time is its duration minus the time its child spans cover.

The subsystems' f and g and the monolithic right-hand side are counted, not
spanned (there are millions of calls), by swapping them for counting
closures through ``dataclasses.replace``.

A target that no longer exists, or one that a workload should reach but did
not, raises ``StaleTracer``: after a rename a layer must not be reported
as taking 0 s.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from dataclasses import replace

ALL = None

# (span name, module, attribute as its callers look it up, workloads that
# must reach it -- ALL for every workload)
TARGETS = (
    ("config.materialize", "f3ornits.config", "materialize", ALL),
    ("master.run_f3ornits", "f3ornits.master", "run_f3ornits",
     ("two_mass_default", "car_long")),
    ("master.run_f3ornits", "f3ornits.report", "run_f3ornits", ("compare_t20",)),
    ("master.run_jacobi", "f3ornits.report", "run_jacobi", ("compare_t20",)),
    ("master.reconcile", "f3ornits.master", "reconcile", ALL),
    ("coupling.producers_of", "f3ornits.coupling", "CouplingGraph.producers_of", ALL),
    ("subsystem.step_to", "f3ornits.master", "step_to", ALL),
    ("inputs.build_plan", "f3ornits.master", "build_plan", ALL),
    ("inputs.cap_degree", "f3ornits.inputs", "cap_degree", ALL),
    ("orders.select_order", "f3ornits.master", "select_order", ALL),
    ("orders.estimate_output", "f3ornits.master", "estimate_output", ALL),
    ("poly.fit_extrapolation", "f3ornits.orders", "fit_extrapolation", ALL),
    ("poly.fit_constrained_least_squares", "f3ornits.orders",
     "fit_constrained_least_squares", ("compare_t20",)),
    ("poly.fit_hermite", "f3ornits.inputs", "fit_hermite", ("compare_t20",)),
    ("stepper.normalized_error", "f3ornits.master", "normalized_error", ALL),
    ("stepper.update_damped_bounds", "f3ornits.master", "update_damped_bounds", ALL),
    ("stepper.propose", "f3ornits.master", "propose", ALL),
    ("models.monolithic_reference", "f3ornits.report", "monolithic_reference",
     ("compare_t20",)),
    ("report.score_trace", "f3ornits.report", "score_trace", ("compare_t20",)),
    ("trace.write_csv", "f3ornits.trace", "RunTrace.write_csv",
     ("two_mass_default", "car_long")),
)

#: the fixed RK4 micro-integrator evaluates f four times per micro step
F_EVALS_PER_MICRO_STEP = 4


class StaleTracer(RuntimeError):
    """A wrapped name is gone, a workload no longer reaches it, or the
    counts no longer fit the program's micro-integrator."""


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise StaleTracer(f"{module}.{attr}: {part!r} no longer exists")
    fn = getattr(owner, leaf, None)
    if not callable(fn):
        raise StaleTracer(f"{module}.{attr} no longer exists")
    return owner, leaf, fn


class Tracer:
    """In-memory span recorder plus the counters kept at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._cells: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self._schedule = None          # (entries, effective) of the last reconcile
        self._labels: dict[str, int] = {}
        self._rhs_seen = 0
        self._hooks = {
            "master.reconcile": self._after_reconcile,
            "subsystem.step_to": self._after_step_to,
            "inputs.build_plan": self._after_build_plan,
            "inputs.cap_degree": self._after_cap_degree,
            "stepper.propose": self._after_propose,
            "models.monolithic_reference": self._after_reference,
            "master.run_f3ornits": self._after_master,
            "master.run_jacobi": self._after_master,
            "trace.write_csv": self._after_write_csv,
        }

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        """Wrap every target; raises StaleTracer before changing anything."""
        resolved = [(span, *_resolve(module, attr)) for span, module, attr, _ in TARGETS]
        for span, owner, leaf, fn in resolved:
            setattr(owner, leaf, self._wrap(span, fn, self._hooks.get(span)))

    def _wrap(self, span, fn, hook):
        clock = time.perf_counter
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, i)
            return result

        return traced

    def _counted(self, key: str, fn):
        cell = self._cells.setdefault(key, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def instrument(self, model):
        """The model with f, g and the monolithic rhs counted."""
        specs = tuple(
            replace(s, f=self._counted("f", s.f), g=self._counted("g", s.g))
            for s in model.problem.subsystems
        )
        self._labels = {s.label: k for k, s in enumerate(specs)}
        return replace(
            model,
            problem=replace(model.problem, subsystems=specs),
            monolith_rhs=self._counted("rhs", model.monolith_rhs),
        )

    def _parent_name(self, i: int) -> str:
        p = self.parents[i]
        return self.names[p] if p >= 0 else ""

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def evals(self, key: str) -> int:
        return self._cells.get(key, [0])[0]

    # ----------------------------------------------------------------- hooks

    def _after_reconcile(self, args, effective, i):
        self._schedule = (args[0], effective)

    def _after_step_to(self, args, result, i):
        # a wake-up of the asynchronous master: was it pulled in before the
        # subsystem's own estimate by the reconcile that scheduled it?
        if self._parent_name(i) != "master.run_f3ornits":
            return
        entries, effective = self._schedule
        k = self._labels[args[0].label]
        self._count("wakeups")
        if effective[k] < entries[k].estimated:
            self._count("pulled_in")

    def _after_build_plan(self, args, result, i):
        if result[0].smoothed:
            self._count("smoothed_plans")

    def _after_cap_degree(self, args, result, i):
        if result is not args[0]:
            self._count("capped_plans")

    def _after_propose(self, args, result, i):
        if result.rho < 1.0:
            self._count("shrinks")

    def _after_reference(self, args, result, i):
        seen = self.evals("rhs")
        if seen > self._rhs_seen:
            self._count("reference_misses")
        self._rhs_seen = seen

    def _after_master(self, args, trace, i):
        self._count("trace_rows", sum(st.n_rows for st in trace.subsystems.values()))

    def _after_write_csv(self, args, paths, i):
        # the summary's wall_time_s line changes length from run to run
        self._count("csv_bytes", sum(
            len(line)
            for p in paths
            for line in p.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"wall_time_s,")
        ))

    # ------------------------------------------------------------- reporting

    def check_reached(self, workload: str) -> None:
        called = set(self.names)
        for span, module, attr, where in TARGETS:
            if (where is ALL or workload in where) and span not in called:
                raise StaleTracer(
                    f"{module}.{attr} was never called on {workload}"
                )

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start", "end", "parent"])
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                w.writerow([i, *row])

    def totals(self):
        """Per span name: call count, inclusive seconds, self seconds."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + d - child[i]
        return calls, total, own

    def layer_metrics(self, run_wall_s: float, rows) -> dict[str, float]:
        """Per-layer metrics of one traced repetition.

        run_wall_s is the repetition's timed wall time; rows are the
        comparison rows (empty for single runs).
        """
        calls, total, own = self.totals()
        c = lambda name: calls.get(name, 0)
        t = lambda name: total.get(name, 0.0)
        n = self.counts.get
        f_evals = self.evals("f")
        if f_evals % F_EVALS_PER_MICRO_STEP:
            raise StaleTracer(
                f"{f_evals} f evaluations is not a whole number of RK4 micro "
                "steps; the micro-integrator changed, update the tracer"
            )
        micro = f_evals // F_EVALS_PER_MICRO_STEP
        fits = [name for name in calls if name.startswith("poly.")]
        candidate_fits = sum(
            1 for i, name in enumerate(self.names)
            if name == "poly.fit_extrapolation"
            and self._parent_name(i) == "orders.select_order"
        )
        stepper = [name for name in calls if name.startswith("stepper.")]
        reference_s = t("models.monolithic_reference")
        rmse_s = own.get("report.score_trace", 0.0)
        share = lambda seconds: 100.0 * seconds / run_wall_s
        return {
            "subsystem.step_to_s": t("subsystem.step_to"),
            "subsystem.step_to_calls": c("subsystem.step_to"),
            "subsystem.micro_steps": micro,
            "subsystem.f_evals": f_evals,
            "subsystem.g_evals": self.evals("g"),
            "subsystem.micro_per_macro": micro / c("subsystem.step_to"),
            "subsystem.us_per_micro_step": 1e6 * t("subsystem.step_to") / micro,
            "orders.select_order_s": t("orders.select_order"),
            "orders.estimate_output_s": t("orders.estimate_output"),
            "orders.candidate_fits_per_decision": candidate_fits / c("orders.select_order"),
            "poly.fits": sum(c(name) for name in fits),
            "poly.fit_s": sum(t(name) for name in fits),
            "master.loop_self_s": own.get("master.run_f3ornits", 0.0),
            "master.reconcile_s": t("master.reconcile"),
            "master.reconcile_calls": c("master.reconcile"),
            "master.pulled_in_share": n("pulled_in", 0) / n("wakeups", 1),
            "master.jacobi_s": t("master.run_jacobi"),
            "master.jacobi_share_pct": share(t("master.run_jacobi")),
            "coupling.producers_of_calls": c("coupling.producers_of"),
            "inputs.build_plan_s": t("inputs.build_plan"),
            "inputs.smoothed_plans": n("smoothed_plans", 0),
            "inputs.capped_plans": n("capped_plans", 0),
            "stepper.stepper_s": sum(t(name) for name in stepper),
            "stepper.shrink_share": n("shrinks", 0) / c("stepper.propose"),
            "models.reference_s": reference_s,
            "models.reference_share_pct": share(reference_s),
            "models.reference_rhs_evals": self.evals("rhs"),
            "models.reference_misses": n("reference_misses", 0),
            "report.rmse_s": rmse_s,
            "report.rmse_share_pct": share(rmse_s),
            "report.rows": len(rows),
            "report.diverged_rows": sum(1 for r in rows if r.status != "ok"),
            "trace.write_csv_s": t("trace.write_csv"),
            "trace.write_csv_share_pct": share(t("trace.write_csv")),
            "trace.csv_bytes": n("csv_bytes", 0),
            "trace.rows": n("trace_rows", 0),
            "config.materialize_s": t("config.materialize"),
        }
