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

(a) subsystems with an imposed step stay locked to their grid, counted
    from t_init, not summed: its n-th point is fl(t_init + n * imposed_step);
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
    time by at least DT_EPSILON, so the run always makes progress.

The rules only ever pull an effective time earlier than the estimate (rule
(e) restores strict progress but never exceeds the estimate, because
estimates are always at least dt_min ahead).

Each event takes three passes over its due subsystems.  The first builds
each one's input plans over its window to the event time from what was
published before the event, the second integrates it on them, which changes
only the subsystem's own state, and the third publishes, which touches only
the subsystem's own records.  Each runtime holds the producer logs its
inputs read, wired once before the first event.  Both masters run in one
process; compare spreads its rows over the CPUs (report.py).

The benchmark's tracer (bench/tracer.py) times each layer by replacing the
module global its caller looks up, so step_to, build_plan, select_order,
estimate_output, normalized_error, update_damped_bounds, propose and
reconcile stay calls through this module's globals, once per use, as do
inputs.cap_degree and orders.fit_extrapolation in theirs.  Around them a
window costs little else: its plans hand step_to their polynomials, and its
publishing writes each output's error and order in place and one trace row.
Fusing the traced calls waits until the run counts itself (ROADMAP item 9).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import attrgetter

from .coupling import CouplingGraph, SampleHistory
from .errors import CalibrationError, ConfigError, DivergenceError, check_step
from .inputs import InputPlan, build_plan, prune_published
from .orders import CALIBRATION_MODES, estimate_output, select_order
from .poly import MAX_DEGREE, MAX_ORDER, Polynomial
from .stepper import (
    ERROR_NORMS,
    DampedBounds,
    Tolerances,
    normalized_error,
    propose,
    update_damped_bounds,
)
from .subsystem import SubsystemSpec, evaluate_outputs, step_to
from .trace import RunTrace, SubsystemTrace


@dataclass(frozen=True)
class CosimProblem:
    """A set of subsystems, their coupling and the horizon; each subsystem
    starts at its spec's dt0.  `validate` refuses a subsystem without a
    startup step, and a micro-step bound or an imposed step that would take
    more than MAX_EVENTS pieces to reach t_end."""

    subsystems: tuple[SubsystemSpec, ...]
    graph: CouplingGraph
    t_init: float
    t_end: float

    def validate(self) -> None:
        if len({s.label for s in self.subsystems}) != len(self.subsystems):
            raise ConfigError("subsystem labels must be unique")
        errs = self.graph.validate([(s.n_in, s.n_out) for s in self.subsystems])
        if errs:
            raise ConfigError("coupling graph invalid: " + "; ".join(errs))
        t_init, t_end = self.t_init, self.t_end
        check_horizon(t_init, t_end)
        for s in self.subsystems:
            if s.dt0 is None:
                raise ConfigError(f"{s.label}: no startup step dt0")
            for what, step, noun in (
                ("micro-step bound", s.max_micro_step, "micro steps"),
                ("imposed step", s.imposed_step, "events"),
            ):
                if step is not None:
                    check_event_budget(f"{s.label}'s {what}", step, noun, t_init, t_end)


#: rule (e): the least separation between a reached and an effective time
DT_EPSILON = 1e-9

#: hard safety valve: the most events (or windows, or steps) one run may take
MAX_EVENTS = 5_000_000


@dataclass(frozen=True)
class MasterOptions:
    """What a user chooses for a run.  What a subsystem can take is declared
    on its SubsystemSpec.  `validate` also refuses a dt_max that would take
    more than MAX_EVENTS windows to reach t_end, where some subsystem has
    outputs and no imposed step: only its windows are bounded by dt_max."""

    calibration: str = "extrapolation"
    error_norm: str = "damped"
    tolerances: Tolerances = field(default_factory=Tolerances)
    smoothing: bool = False
    force_order: int | None = None

    def validate(self, problem: CosimProblem) -> None:
        for key, value, choices in (
            ("calibration", self.calibration, CALIBRATION_MODES),
            ("error_norm", self.error_norm, ERROR_NORMS),
        ):
            if value not in choices:
                raise ConfigError(
                    f"key {key!r}: {value!r} not one of {', '.join(choices)}"
                )
        q = self.force_order
        if q is not None and not 0 <= q <= MAX_ORDER:
            raise ConfigError(f"key 'force_order': {q!r} not in 0..{MAX_ORDER}")
        if any(s.n_out and s.imposed_step is None for s in problem.subsystems):
            check_event_budget("key 'dt_max'", self.tolerances.dt_max, "events",
                               problem.t_init, problem.t_end)


def check_horizon(t_init: float, t_end: float) -> None:
    """Refuse, naming 't_end', a horizon not finite or not after its start."""
    if not (math.isfinite(t_init) and math.isfinite(t_end) and t_end > t_init):
        raise ConfigError(
            f"key 't_end': t_init and t_end must be finite and t_end must "
            f"exceed t_init, got {t_init!r} and {t_end!r}"
        )


def check_event_budget(
    what: str, step: float, noun: str, t_init: float, t_end: float
) -> None:
    """The one event-budget rule: covering [t_init, t_end] in pieces of
    `step` may take at most MAX_EVENTS of them, the budget the event loop
    itself stops at.  Over it is a ConfigError that opens with `what` and
    counts the pieces as `noun`."""
    if (t_end - t_init) / step > MAX_EVENTS:
        raise ConfigError(
            f"{what}: {step!r} needs more than {MAX_EVENTS} {noun} to reach "
            f"t_end = {t_end!r}"
        )


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
    t_init: float = 0.0  # where an imposed grid starts
    grid_steps: int = 0  # the steps walked on it

    @property
    def grid_point(self) -> float:
        """Rule (a)'s next time, fl(t_init + (grid_steps + 1) * imposed_step)."""
        return self.t_init + (self.grid_steps + 1) * self.imposed_step


def reconcile(
    entries: list[ScheduleEntry], t_end: float, dt_epsilon: float
) -> list[float]:
    """Apply the five scheduling rules; returns effective next times.

    Entries marked finished keep their estimate untouched (they are never
    picked again).  See the module docstring for the rules.
    """
    if not entries:
        raise ValueError("reconcile needs at least one schedule entry")
    # (a) imposed-grid subsystems are locked to their next grid point,
    #     whatever their estimate says;
    #     (b) the others with outputs clamp to their producers' estimates,
    #     which (a) leaves as they are.  Subsystems without outputs are
    #     exempt: nobody depends on them, so their wake policy is rule (c)
    #     alone — otherwise the coast exception there could never apply.
    eff, silent = [], False  # silent: whether rule (c) has a subsystem to wake
    for e in entries:
        t = e.estimated
        if e.finished:
            pass
        elif e.imposed_step is not None:
            t = e.grid_point
        elif e.has_outputs:
            for l in e.producers:
                p = entries[l]
                if p.estimated < t and not p.finished:
                    t = p.estimated
        else:
            silent = True
        eff.append(t)
    # (c) no-output subsystems aim for the horizon; pull them in to their
    #     producers' effective wake-ups
    if silent:
        for k, e in enumerate(entries):
            if e.finished or e.imposed_step is not None or e.has_outputs:
                continue
            prods = [l for l in e.producers if not entries[l].finished]
            coast = all(not entries[l].producers and not entries[l].orders_changed
                        for l in prods)
            if prods and not coast and (cand := min(eff[l] for l in prods)) < eff[k]:
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
            eff[k] = t_end if t_end < floor else floor
    return eff


# ------------------------------------------------------------ shared pieces

def _initial_exchange(problem: CosimProblem) -> list[tuple[float, ...]]:
    """Outputs at t_init, by fixed-point passes over the output maps.

    Inputs start at zero; one sweep more than there are subsystems settles
    any feed-through cascade (cyclic algebraic feed-through would need an
    implicit solve and is out of scope — the passes are still deterministic
    in that case).  An output that is not finite once the passes have
    settled raises DivergenceError at t_init, as a window's does at its
    start.
    """
    t0 = problem.t_init
    n = len(problem.subsystems)
    links = problem.graph.links  # validated: it feeds every input
    u_vals = dict.fromkeys(links, 0.0)
    y: list[tuple[float, ...]] = [() for _ in range(n)]
    for _ in range(n + 1):
        for k, spec in enumerate(problem.subsystems):
            u = [u_vals[(k, i)] for i in range(spec.n_in)]
            y[k] = evaluate_outputs(spec, spec.x_init, u, t0)
        for slot, (l, j) in links.items():
            u_vals[slot] = y[l][j]
    for spec, outputs in zip(problem.subsystems, y):
        if not all(map(math.isfinite, outputs)):
            raise DivergenceError(spec.label, t0)
    return y


def _start_trace(problem: CosimProblem, y0) -> RunTrace:
    """A trace holding each subsystem's row at t_init: its outputs y0, no
    errors, order 0, rho 1 and no input plans."""
    trace = RunTrace(subsystems={})
    for spec, y in zip(problem.subsystems, y0):
        st = trace.subsystems[spec.label] = SubsystemTrace(
            spec.label, spec.n_out, spec.n_in
        )
        st.record(problem.t_init, y, (0.0,) * spec.n_out, (0,) * spec.n_out, 1.0,
                  [None] * spec.n_in)
    return trace


# --------------------------------------------------------------- the master

class _SubRuntime(ScheduleEntry):
    """Mutable per-subsystem state while the event loop runs.

    A runtime is its own schedule entry: reconcile reads the runtimes.
    """

    def __init__(
        self,
        spec: SubsystemSpec,
        producers: tuple[int, ...],
        t0: float,
        smoothing: bool,
    ):
        super().__init__(t0, t0, spec.n_out > 0, producers, spec.imposed_step,
                         t_init=t0)
        self.spec = spec
        # un-smoothed plans are capped at the method's order and at what the
        # subsystem takes; smoothing needs the cubics of MAX_DEGREE
        self.deg_cap = min(MAX_ORDER, spec.max_input_degree)
        self.smooths = smoothing and spec.max_input_degree >= MAX_DEGREE
        self.state = list(spec.x_init)
        self.histories = [SampleHistory() for _ in range(spec.n_out)]
        # per output, the published polynomials a reader may still resolve,
        # oldest first
        self.published: list[list[Polynomial]] = [[] for _ in range(spec.n_out)]
        self.bounds: list[DampedBounds] = []
        # per input: the producer's log it reads (wired before the loop), the
        # latest window's plan, its polynomial and, if the subsystem smooths,
        # the polynomial delivered over it
        self.sources: list[list[Polynomial]] = []
        self.plans: list[InputPlan | None] = [None] * spec.n_in
        self.polys: list[Polynomial | None] = [None] * spec.n_in
        self.delivered: list[Polynomial | None] = [None] * spec.n_in
        # per output, the latest window's errors, orders and prior degrees
        self.errs = [0.0] * spec.n_out
        self.orders = [0] * spec.n_out
        self.p_used = [0] * spec.n_out
        self.y: tuple[float, ...] = ()  # outputs at the reached time
        self.record = None  # its trace's record


def run_f3ornits(problem: CosimProblem, options: MasterOptions) -> RunTrace:
    """Asynchronous variable-step co-simulation over the full horizon."""
    problem.validate()
    options.validate(problem)
    t_start_wall = time.perf_counter()
    t0, t_end = problem.t_init, problem.t_end
    graph = problem.graph

    runtimes = [
        _SubRuntime(spec, graph.producers_of(k), t0, options.smoothing)
        for k, spec in enumerate(problem.subsystems)
    ]
    # each input reads one producer log; a validated graph feeds them all
    for (k, _), (l, j) in sorted(graph.links.items()):
        runtimes[k].sources.append(runtimes[l].published[j])
    # per log, the runtimes whose inputs read it, and how to read their times
    reached = attrgetter("reached")
    readers = [
        (log, [rt for rt in runtimes if any(s is log for s in rt.sources)])
        for src in runtimes
        for log in src.published
    ]

    # ---- initial exchange at t0: samples, order-0 estimates, startup times
    y0 = _initial_exchange(problem)
    trace = _start_trace(problem, y0)
    for k, rt in enumerate(runtimes):
        rt.record = trace.subsystems[rt.spec.label].record
        for j in range(rt.spec.n_out):
            rt.histories[j].push(t0, y0[k][j])
            rt.published[j].append(Polynomial(t0, (y0[k][j],)))
            rt.bounds.append(DampedBounds.from_first_sample(y0[k][j]))
        if rt.imposed_step is not None:
            rt.estimated = rt.grid_point
        elif not (rt.producers or rt.has_outputs):
            # nothing to give and nothing to receive: one step to the horizon
            rt.estimated = t_end
        else:
            rt.estimated = t0 + rt.spec.dt0

    effective = reconcile(runtimes, t_end, DT_EPSILON)

    # what every event reads, bound once
    publishing = (options.tolerances, options.error_norm, options.force_order,
                  options.calibration)
    active = [k for k, rt in enumerate(runtimes) if not rt.finished]
    events = 0
    while active:
        if events >= MAX_EVENTS:
            raise RuntimeError(f"event budget exceeded ({MAX_EVENTS} events)")
        t_event = min(map(effective.__getitem__, active))
        finished = _step(runtimes, active, effective, t_event, t_end, publishing)

        # a reader resolves its next window at its reached time, which
        # never decreases: the slowest reader bounds what each log must keep
        for log, rts in readers:
            if len(log) > 1:
                prune_published(log, min(map(reached, rts)) if rts else None)

        effective = reconcile(runtimes, t_end, DT_EPSILON)
        events += 1
        if finished:
            active = [k for k in active if not runtimes[k].finished]

    trace.total_events = events
    trace.wall_time_s = time.perf_counter() - t_start_wall
    return trace


def _publish(
    rt: _SubRuntime, t_event: float, t_end: float, publishing: tuple
) -> bool:
    """Pass 3 for one subsystem walked to t_event: its outputs' errors,
    orders and published estimates, its next estimated time and its trace
    row; whether it has reached the horizon.  `publishing` is the run's
    (tolerances, error norm, forced order, calibration).  It reads and
    writes only the subsystem's own records."""
    tol, norm, force, calibration = publishing
    nu = tol.nu
    dt_prev = t_event - rt.reached
    bounds, histories, published = rt.bounds, rt.histories, rt.published
    errs, orders_now, p_used = rt.errs, rt.orders, rt.p_used
    changed = False
    for j, y_new in enumerate(rt.y):
        history, log = histories[j], published[j]
        last_pub = log[-1]
        p_used[j] = p = len(last_pub.coeffs) - 1
        bounds[j] = b = update_damped_bounds(bounds[j], y_new, dt_prev, nu)
        errs[j] = normalized_error(
            y_new, Polynomial.__call__(last_pub, t_event), norm, b, tol
        )
        decision = select_order(history, t_event, y_new, force)
        try:
            history.push(t_event, y_new)
            log.append(estimate_output(history, decision, calibration))
        except CalibrationError:
            raise
        except ValueError as exc:
            raise DivergenceError(rt.spec.label, rt.reached) from exc
        orders_now[j] = q = decision.order
        changed |= q != p
    rt.orders_changed = changed
    rt.reached = t_event

    rho = 1.0
    if rt.imposed_step is not None:
        rt.grid_steps += 1
        rt.estimated = rt.grid_point
    elif not rt.has_outputs:
        # nothing published, so no error to control: aim for the horizon
        # and let rule (c) pull the subsystem in
        rt.estimated = t_end
    else:
        prop = propose(errs, p_used, dt_prev, t_event, t_end, tol)
        rho = prop.rho
        rt.estimated = prop.t_next_estimated
    rt.record(t_event, rt.y, errs, orders_now, rho, rt.plans)
    if t_end - t_event <= DT_EPSILON:
        rt.finished = True
    return rt.finished


def _plan(rt: _SubRuntime, t_event: float) -> None:
    """rt's input plans over its window to t_event, built from what was
    published, and their polynomials; overflowing data is a DivergenceError."""
    plans, polys, delivered, reached = rt.plans, rt.polys, rt.delivered, rt.reached
    try:
        for i, log in enumerate(rt.sources):
            plan, delivered[i] = build_plan(
                log, reached, t_event, rt.deg_cap, rt.smooths, delivered[i]
            )
            plans[i], polys[i] = plan, plan[0]
    except CalibrationError:
        raise
    except ValueError as exc:
        raise DivergenceError(rt.spec.label, reached) from exc


def _step(
    runtimes: list[_SubRuntime], active: list[int], effective: list[float],
    t_event: float, t_end: float, publishing: tuple,
) -> bool:
    """The three passes, plan, walk and publish, over the active subsystems
    due at t_event (within a tie of it); whether one reached the horizon.

    Every window is planned before any is walked: walking each right after
    its plans read 4 % slower (ROADMAP item 15).  Raises the exception of
    the first window whose plans or walk fail, else that of the first
    subsystem whose publishing fails: a window that fails stops the walks
    after it, and then nothing is published.
    """
    tie = 1e-12 * (1.0 + abs(t_event))
    due, failed = [], None
    for k in active:
        if effective[k] - t_event <= tie:
            rt = runtimes[k]
            try:
                _plan(rt, t_event)
            except Exception as exc:  # raised after the windows before it
                failed = exc
                break
            due.append(rt)
    for rt in due:
        rt.state, rt.y = step_to(rt.spec, rt.state, rt.polys, rt.reached, t_event)
    if failed is not None:
        raise failed
    finished = False
    for rt in due:
        finished |= _publish(rt, t_event, t_end, publishing)
    return finished


# -------------------------------------------------------------- the baseline

def run_jacobi(problem: CosimProblem, dt: float) -> RunTrace:
    """Fixed-step parallel zero-order-hold co-simulation baseline.

    A grid that needs more than MAX_EVENTS windows is a ConfigError,
    raised before the first window.
    """
    problem.validate()
    check_step("key 'dt'", dt)
    check_event_budget("key 'dt'", dt, "windows", problem.t_init, problem.t_end)
    t_start_wall = time.perf_counter()
    t0, t_end = problem.t_init, problem.t_end
    specs = problem.subsystems
    # per subsystem, the (producer, output) each of its inputs holds
    feeds = [[problem.graph.links[k, i] for i in range(s.n_in)]
             for k, s in enumerate(specs)]

    y = _initial_exchange(problem)
    trace = _start_trace(problem, y)
    states = [list(s.x_init) for s in specs]

    t = t0
    events = 0
    while t < t_end:
        t_next = t + dt
        if t_next > t_end or t_end - t_next < 1e-6 * dt:
            t_next = t_end
        held = [[Polynomial(t, (y[l][j],)) for l, j in feed] for feed in feeds]
        new_y = list(y)
        for k, spec in enumerate(specs):
            states[k], new_y[k] = step_to(spec, states[k], held[k], t, t_next)
        y = new_y
        t_prev, t = t, t_next
        events += 1
        for k, spec in enumerate(specs):
            plans = [InputPlan(p, t_prev, False) for p in held[k]]
            trace.subsystems[spec.label].record(
                t, y[k], (0.0,) * spec.n_out, (0,) * spec.n_out, 1.0, plans
            )

    trace.total_events = events
    trace.wall_time_s = time.perf_counter() - t_start_wall
    return trace
