"""The co-simulation masters: asynchronous variable-step loop and Jacobi.

run_f3ornits drives the full method: per-output order selection with a
one-step delay, polynomial estimated outputs, degree-capped and optionally
C1-smoothed input plans, normalized-error step control, and a scheduler that
reconciles every subsystem's wish with what its producers can promise.

run_jacobi is the fixed-step non-iterative baseline: all subsystems exchange
at a shared grid and integrate against held constants.  With order forced to
zero, a frozen step (rho_min = rho_max = 1, dt_min = dt_max = dt0) and
smoothing off, run_f3ornits degenerates to exactly this loop — the
equivalence is pinned down to float identity by the tests.

Scheduling is reconciled after every event by five rules applied in order:

(a) subsystems with an imposed step stay locked to their grid;
(b) consumers that publish outputs never plan past the earliest estimated
    refresh among their producers, so fresh data is awaited rather than
    extrapolated over when the schedule allows it;
(c) a subsystem with no outputs has no error control of its own: it aims
    for the horizon, and wakes whenever one of its producers does, unless
    all its producers are pure sources (no inputs) whose orders did not
    change, in which case it may coast — which is why rule (b) leaves these
    subsystems alone;
(d) nothing is scheduled past the simulation horizon, which is where a
    subsystem with no outputs aims;
(e) every effective time stays strictly ahead of the subsystem's reached
    time by at least dt_epsilon, so the run always makes progress.

The rules only ever pull an effective time earlier than the estimate (rule
(e) restores strict progress but never exceeds the estimate, because
estimates are always at least dt_min ahead).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from .coupling import CouplingGraph, SampleHistory
from .errors import ConfigError
from .inputs import InputPlan, SmoothingContext, build_plan, prune_published
from .orders import CALIBRATION_MODES, estimate_output, select_order
from .poly import MAX_ORDER, Polynomial, shift_coeffs
from .stepper import (
    ERROR_NORMS,
    DampedBounds,
    Tolerances,
    normalized_error,
    propose,
    update_damped_bounds,
)
from .subsystem import (
    Capabilities,
    SubsystemSpec,
    effective_max_degree,
    evaluate_outputs,
    step_to,
)
from .trace import RunTrace, SubsystemTrace


@dataclass(frozen=True)
class CosimProblem:
    """A set of subsystems, their capabilities and coupling, and the horizon."""

    subsystems: tuple[SubsystemSpec, ...]
    capabilities: tuple[Capabilities, ...]
    graph: CouplingGraph
    t_init: float
    t_end: float
    dt0: tuple[float, ...]

    def validate(self) -> None:
        if not (len(self.capabilities) == len(self.dt0) == len(self.subsystems)):
            raise ConfigError("subsystems, capabilities and dt0 must agree in length")
        errs = self.graph.validate([(s.n_in, s.n_out) for s in self.subsystems])
        if errs:
            raise ConfigError("coupling graph invalid: " + "; ".join(errs))
        if not self.t_end > self.t_init:
            raise ConfigError("t_end must exceed t_init")
        for d in self.dt0:
            if not (math.isfinite(d) and d > 0):
                raise ConfigError(f"dt0 must be finite and positive, got {d!r}")
        budget = MasterOptions.max_events
        for s in self.subsystems:
            bound = s.max_micro_step
            if bound is not None and (self.t_end - self.t_init) / bound > budget:
                raise ConfigError(
                    f"{s.label}: its parameters bound the micro step to "
                    f"{bound!r}, which needs more than {budget} micro steps "
                    f"to reach t_end = {self.t_end!r}"
                )


@dataclass(frozen=True)
class MasterOptions:
    calibration: str = "extrapolation"
    error_norm: str = "damped"
    tolerances: Tolerances = field(default_factory=Tolerances)
    smoothing: bool = False
    force_order: int | None = None
    dt_epsilon: float = 1e-9     # rule (e) minimum separation
    max_events: int = 5_000_000  # hard safety valve for the event loop
    due_order: Callable[[list[int]], list[int]] | None = None  # test hook

    def validate(self) -> None:
        for key, value, choices in (
            ("calibration", self.calibration, CALIBRATION_MODES),
            ("error_norm", self.error_norm, ERROR_NORMS),
        ):
            if value not in choices:
                raise ConfigError(
                    f"key {key!r}: {value!r} not one of {', '.join(choices)}"
                )
        if not (math.isfinite(self.dt_epsilon) and self.dt_epsilon > 0):
            raise ConfigError(
                f"dt_epsilon must be finite and positive, got {self.dt_epsilon!r}"
            )
        q = self.force_order
        if q is not None and not 0 <= q <= MAX_ORDER:
            raise ConfigError(f"key 'force_order': {q!r} not in 0..{MAX_ORDER}")


# --------------------------------------------------------------- scheduling

@dataclass(eq=False)
class ScheduleEntry:
    """Everything the reconciliation rules need to know about one subsystem.

    A pure source is an entry without producers: on a validated graph every
    input is fed, so it has no inputs.
    """

    reached: float
    estimated: float
    has_outputs: bool
    producers: tuple[int, ...]
    imposed_step: float | None = None
    orders_changed: bool = True
    finished: bool = False


def reconcile(
    entries: list[ScheduleEntry], t_end: float, dt_epsilon: float
) -> list[float]:
    """Apply the five scheduling rules; returns effective next times.

    Entries marked finished keep their estimate untouched (they are never
    picked again).  See the module docstring for the rules.
    """
    if not entries:
        raise ValueError("reconcile needs at least one schedule entry")
    eff = [e.estimated for e in entries]
    # (a) imposed-grid subsystems are locked, whatever their estimate says;
    #     rules (b) and (c) skip them
    for k, e in enumerate(entries):
        if not e.finished and e.imposed_step is not None:
            eff[k] = e.reached + e.imposed_step
    # (b) consumer clamp against producers' estimates.  Subsystems without
    #     outputs are exempt: nobody depends on them, so their wake policy is
    #     rule (c) alone — otherwise the coast exception there could never
    #     apply.
    for k, e in enumerate(entries):
        if e.finished or e.imposed_step is not None or not e.has_outputs:
            continue
        ests = [
            entries[l].estimated for l in e.producers if not entries[l].finished
        ]
        if ests:
            cand = min(ests)
            if cand < eff[k]:
                eff[k] = cand
    # (c) no-output subsystems aim for the horizon; pull them in to their
    #     producers' effective wake-ups
    for k, e in enumerate(entries):
        if e.finished or e.imposed_step is not None or e.has_outputs:
            continue
        prods = [l for l in e.producers if not entries[l].finished]
        if prods:
            coast = all(
                not entries[l].producers and not entries[l].orders_changed
                for l in prods
            )
            if not coast:
                cand = min(eff[l] for l in prods)
                if cand < eff[k]:
                    eff[k] = cand
    # (d) horizon clamp (where no-output subsystems aim) and (e) the
    #     strict-progress floor
    for k, e in enumerate(entries):
        if e.finished:
            continue
        if eff[k] > t_end:
            eff[k] = t_end
        floor = e.reached + dt_epsilon
        if eff[k] < floor:
            eff[k] = min(floor, t_end)
    return eff


# ------------------------------------------------------------ shared pieces

def _initial_exchange(problem: CosimProblem) -> list[tuple[float, ...]]:
    """Outputs at t_init, by fixed-point passes over the output maps.

    Inputs start at zero; one sweep more than there are subsystems settles
    any feed-through cascade (cyclic algebraic feed-through would need an
    implicit solve and is out of scope — the passes are still deterministic
    in that case).
    """
    t0 = problem.t_init
    n = len(problem.subsystems)
    u_vals: dict[tuple[int, int], float] = {}
    for k, spec in enumerate(problem.subsystems):
        for i in range(spec.n_in):
            u_vals[(k, i)] = 0.0
    y: list[tuple[float, ...]] = [() for _ in range(n)]
    for _ in range(n + 1):
        for k, spec in enumerate(problem.subsystems):
            u = [u_vals[(k, i)] for i in range(spec.n_in)]
            y[k] = evaluate_outputs(spec, spec.x_init, u, t0)
        for (k, i), (l, j) in problem.graph.links.items():
            u_vals[(k, i)] = y[l][j]
    return y


def _empty_trace(problem: CosimProblem, method: str) -> RunTrace:
    subs = {
        spec.label: SubsystemTrace(spec.label, spec.n_out, spec.n_in)
        for spec in problem.subsystems
    }
    if len(subs) != len(problem.subsystems):
        raise ConfigError("subsystem labels must be unique")
    return RunTrace(subsystems=subs, method=method)


def _record(
    st: SubsystemTrace,
    t: float,
    outputs: tuple[float, ...],
    errors: tuple[float, ...],
    orders: tuple[int, ...],
    rho: float,
    plans,
) -> None:
    st.t.append(t)
    st.outputs.append(outputs)
    st.errors.append(errors)
    st.orders.append(orders)
    st.rho.append(rho)
    packed = []
    for plan in plans:
        if plan is None:
            packed.append((0.0, 0.0, 0.0, 0.0, 0))
        else:
            # about the window start, as Polynomial.shifted would give them
            cs = shift_coeffs(plan.poly.coeffs, plan.window_start - plan.poly.t_ref)
            packed.append(cs + (0.0,) * (4 - len(cs)) + (int(plan.smoothed),))
    st.input_coeffs.append(tuple(packed))


# --------------------------------------------------------------- the master

class _SubRuntime(ScheduleEntry):
    """Mutable per-subsystem state while the event loop runs.

    A runtime is its own schedule entry: reconcile reads the runtimes.
    """

    def __init__(
        self,
        spec: SubsystemSpec,
        caps: Capabilities,
        producers: tuple[int, ...],
        t0: float,
    ):
        super().__init__(t0, t0, spec.n_out > 0, producers, caps.imposed_step)
        self.spec = spec
        self.caps = caps
        self.state = list(spec.x_init)
        self.histories = [SampleHistory() for _ in range(spec.n_out)]
        # per output, the published polynomials a reader may still resolve,
        # oldest first
        self.published: list[list[Polynomial]] = [[] for _ in range(spec.n_out)]
        self.bounds: list[DampedBounds] = []
        self.smooth_ctx: list[SmoothingContext | None] = [None] * spec.n_in


def run_f3ornits(problem: CosimProblem, options: MasterOptions) -> RunTrace:
    """Asynchronous variable-step co-simulation over the full horizon."""
    problem.validate()
    options.validate()
    t_start_wall = time.perf_counter()
    tol = options.tolerances
    t0, t_end = problem.t_init, problem.t_end
    graph = problem.graph

    runtimes = [
        _SubRuntime(spec, caps, graph.producers_of(k), t0)
        for k, (spec, caps) in enumerate(
            zip(problem.subsystems, problem.capabilities)
        )
    ]
    # per output (producer, slot): the subsystems whose inputs read it
    readers: dict[tuple[int, int], list[int]] = {
        (l, j): [] for l, rt in enumerate(runtimes) for j in range(rt.spec.n_out)
    }
    for (k, _), src in graph.links.items():
        readers[src].append(k)
    trace = _empty_trace(problem, "f3ornits")

    # ---- initial exchange at t0: samples, order-0 estimates, startup times
    y0 = _initial_exchange(problem)
    for k, rt in enumerate(runtimes):
        for j in range(rt.spec.n_out):
            rt.histories[j].push(t0, y0[k][j])
            rt.published[j].append(Polynomial(t0, (y0[k][j],)))
            rt.bounds.append(DampedBounds.from_first_sample(y0[k][j]))
        if rt.imposed_step is not None:
            rt.estimated = t0 + rt.imposed_step
        elif not (rt.producers or rt.has_outputs):
            # nothing to give and nothing to receive: one step to the horizon
            rt.estimated = t_end
        else:
            rt.estimated = t0 + problem.dt0[k]
        _record(
            trace.subsystems[rt.spec.label], t0, y0[k],
            (0.0,) * rt.spec.n_out, (0,) * rt.spec.n_out, 1.0,
            [None] * rt.spec.n_in,
        )

    effective = reconcile(runtimes, t_end, options.dt_epsilon)

    events = 0
    while True:
        active = [k for k, rt in enumerate(runtimes) if not rt.finished]
        if not active:
            break
        if events >= options.max_events:
            raise RuntimeError(
                f"event budget exceeded ({options.max_events} events)"
            )
        t_event = min(effective[k] for k in active)
        tie = 1e-12 * (1.0 + abs(t_event))
        due = [k for k in active if effective[k] - t_event <= tie]
        if options.due_order is not None:
            due = options.due_order(due)

        # phase 1: build every due subsystem's input plans from what was
        # published before this event
        plans_by_k: dict[int, list] = {}
        for k in due:
            rt = runtimes[k]
            deg_cap = effective_max_degree(rt.caps)
            plans = []
            for i in range(rt.spec.n_in):
                l, j = graph.links[(k, i)]
                src = runtimes[l]
                plan, new_ctx = build_plan(
                    src.published[j],
                    rt.reached,
                    t_event,
                    deg_cap,
                    options.smoothing,
                    rt.caps.smoothing_capable,
                    rt.smooth_ctx[i],
                )
                rt.smooth_ctx[i] = new_ctx
                plans.append(plan)
            plans_by_k[k] = plans

        # phase 2: integrate all due subsystems to the event time
        outputs = {}
        for k in due:
            rt = runtimes[k]
            rt.state, outputs[k] = step_to(
                rt.spec, rt.caps, rt.state,
                [p.poly for p in plans_by_k[k]],
                rt.reached, t_event,
            )

        # phase 3: exchange, order selection, estimates, step proposals
        for k in due:
            rt = runtimes[k]
            dt_prev = t_event - rt.reached
            errs, orders_now, p_used = [], [], []
            for j in range(rt.spec.n_out):
                y_new = outputs[k][j]
                last_pub = rt.published[j][-1]
                y_pred = last_pub(t_event)
                p_used.append(last_pub.degree)
                rt.bounds[j] = update_damped_bounds(
                    rt.bounds[j], y_new, dt_prev, tol.nu
                )
                errs.append(
                    normalized_error(
                        y_new, y_pred, options.error_norm, rt.bounds[j], tol
                    )
                )
                decision = select_order(
                    rt.histories[j], t_event, y_new, force=options.force_order
                )
                rt.histories[j].push(t_event, y_new)
                rt.published[j].append(
                    estimate_output(rt.histories[j], decision, options.calibration)
                )
                orders_now.append(decision.order)
            rt.orders_changed = orders_now != p_used
            rt.reached = t_event

            rho = 1.0
            if rt.imposed_step is not None:
                rt.estimated = t_event + rt.imposed_step
            elif not rt.has_outputs:
                # nothing published, so no error to control: aim for the
                # horizon and let rule (c) pull the subsystem in
                rt.estimated = t_end
            else:
                prop = propose(errs, p_used, dt_prev, t_event, t_end, tol)
                rho = prop.rho
                rt.estimated = prop.t_next_estimated
            if t_end - rt.reached <= options.dt_epsilon:
                rt.finished = True
            _record(
                trace.subsystems[rt.spec.label], t_event, outputs[k],
                tuple(errs), tuple(orders_now), rho, plans_by_k[k],
            )

        # a reader resolves its next window at its reached time, which
        # never decreases: the slowest reader bounds what each log must keep
        for (l, j), ks in readers.items():
            prune_published(
                runtimes[l].published[j],
                min((runtimes[k].reached for k in ks), default=None),
            )

        effective = reconcile(runtimes, t_end, options.dt_epsilon)
        events += 1

    trace.total_events = events
    trace.wall_time_s = time.perf_counter() - t_start_wall
    return trace


# -------------------------------------------------------------- the baseline

def run_jacobi(problem: CosimProblem, dt: float) -> RunTrace:
    """Fixed-step parallel zero-order-hold co-simulation baseline.

    A grid that needs more than MasterOptions.max_events windows is a
    ConfigError, raised before the first window.
    """
    problem.validate()
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"jacobi step must be finite and positive, got {dt!r}")
    budget = MasterOptions.max_events
    if (problem.t_end - problem.t_init) / dt > budget:
        raise ConfigError(
            f"key 'dt': {dt!r} needs more than {budget} windows to reach "
            f"t_end = {problem.t_end!r}"
        )
    t_start_wall = time.perf_counter()
    t0, t_end = problem.t_init, problem.t_end
    graph = problem.graph
    specs = problem.subsystems
    trace = _empty_trace(problem, "jacobi")

    y = _initial_exchange(problem)
    states = [list(s.x_init) for s in specs]
    for k, spec in enumerate(specs):
        _record(
            trace.subsystems[spec.label], t0, y[k],
            (0.0,) * spec.n_out, (0,) * spec.n_out, 1.0, [None] * spec.n_in,
        )

    t = t0
    events = 0
    while t < t_end:
        t_next = t + dt
        if t_next > t_end or t_end - t_next < 1e-6 * dt:
            t_next = t_end
        held: dict[int, list[Polynomial]] = {}
        for k, spec in enumerate(specs):
            held[k] = [
                Polynomial(t, (y[graph.links[(k, i)][0]][graph.links[(k, i)][1]],))
                for i in range(spec.n_in)
            ]
        new_y = list(y)
        for k, spec in enumerate(specs):
            states[k], new_y[k] = step_to(
                spec, problem.capabilities[k], states[k], held[k], t, t_next
            )
        y = new_y
        t_prev, t = t, t_next
        events += 1
        for k, spec in enumerate(specs):
            plans = [InputPlan(p, t_prev, False) for p in held[k]]
            _record(
                trace.subsystems[spec.label], t, y[k],
                (0.0,) * spec.n_out, (0,) * spec.n_out, 1.0, plans,
            )

    trace.total_events = events
    trace.wall_time_s = time.perf_counter() - t_start_wall
    return trace
