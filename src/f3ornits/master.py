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
    time by at least DT_EPSILON, so the run always makes progress.

The rules only ever pull an effective time earlier than the estimate (rule
(e) restores strict progress but never exceeds the estimate, because
estimates are always at least dt_min ahead).

Each event takes two passes over its due subsystems.  The first integrates
each one to the event time on input plans built from what was published
before the event; integrating changes only the subsystem's own state.  The
second publishes, and publishing touches only the subsystem's own records.
Each runtime holds the producer logs its inputs read, wired once before the
first event.

So the windows of one event are independent, and a run may walk some of
them on a second CPU.  After PARTNER_WARMUP events in one process, where
`parallel.cpus` allows a fork and step_to is the kernel walk itself, a run
forks one partner process (`parallel.Partner`, on the `parallel.Child` that
compare's rows fork too) and hands it the declared subsystems whose fixed
micro steps it should walk, chosen from the declarations alone
(`_start_partner`); a callable f or g may be a black box with side effects,
so those always stay here.  Per event this process builds every plan, sends
the partner its windows in one message, walks and publishes its own
subsystems, receives the partner's states and outputs, and publishes those
subsystems.  The partner runs the same kernel on the same inputs, so every
trace is byte-identical to one CPU's, and every exception is the one the
passes in order raise: the partner brings back only the windows it walked,
and a window it did not is walked again here, and raises here, as for
compare's rows.  The partner is killed and reaped however the run ends.
run_jacobi stays in one process.

The benchmark's tracer (bench/tracer.py) times each layer by replacing the
module global its caller looks up, so step_to, build_plan, select_order,
estimate_output, normalized_error, update_damped_bounds, propose and
reconcile stay calls through this module's globals, once per use, as do
inputs.cap_degree and orders.fit_extrapolation in theirs: the event loop is
kept lean inside their bodies, until the run counts itself (ROADMAP item 9).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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
from .subsystem import (
    MICRO_DIVISOR,
    Derivatives,
    SubsystemSpec,
    evaluate_outputs,
    step_to,
)
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
            if s.max_micro_step is not None:
                check_event_budget(
                    f"{s.label}'s micro-step bound", s.max_micro_step,
                    "micro steps", t_init, t_end,
                )
            if s.imposed_step is not None:
                check_event_budget(
                    f"{s.label}'s imposed step", s.imposed_step,
                    "events", t_init, t_end,
                )


#: rule (e): the least separation between a reached and an effective time
DT_EPSILON = 1e-9

#: hard safety valve: the most events (or windows, or steps) one run may take
MAX_EVENTS = 5_000_000

#: events a run takes in one process before it may start its partner, whose
#: fork and reap cost 3-5 ms, the walks of about 100 windows: a shorter run
#: never forks
PARTNER_WARMUP = 64


@dataclass(frozen=True)
class MasterOptions:
    """What a user chooses for a run.  What a subsystem can take is declared
    on its SubsystemSpec."""

    calibration: str = "extrapolation"
    error_norm: str = "damped"
    tolerances: Tolerances = field(default_factory=Tolerances)
    smoothing: bool = False
    force_order: int | None = None

    def validate(self) -> None:
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
    #     (b) the others with outputs clamp to their producers' estimates,
    #     which (a) leaves as they are.  Subsystems without outputs are
    #     exempt: nobody depends on them, so their wake policy is rule (c)
    #     alone — otherwise the coast exception there could never apply.
    for k, e in enumerate(entries):
        if e.finished:
            continue
        if e.imposed_step is not None:
            eff[k] = e.reached + e.imposed_step
        elif e.has_outputs:
            for l in e.producers:
                p = entries[l]
                if not p.finished and p.estimated < eff[k]:
                    eff[k] = p.estimated
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


def _start_trace(problem: CosimProblem, y0) -> RunTrace:
    """A trace holding each subsystem's row at t_init: its outputs y0, no
    errors, order 0, rho 1 and no input plans."""
    trace = RunTrace(subsystems={})
    for spec, y in zip(problem.subsystems, y0):
        st = trace.subsystems[spec.label] = SubsystemTrace(
            spec.label, spec.n_out, spec.n_in
        )
        st.record(
            problem.t_init, y, (0.0,) * spec.n_out, (0,) * spec.n_out,
            1.0, [None] * spec.n_in,
        )
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
        super().__init__(t0, t0, spec.n_out > 0, producers, spec.imposed_step)
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
        # per input: the producer's log it reads (wired before the loop),
        # the plan of the latest window and, if the subsystem smooths, the
        # polynomial delivered over it
        self.sources: list[list[Polynomial]] = []
        self.plans: list[InputPlan | None] = [None] * spec.n_in
        self.delivered: list[Polynomial | None] = [None] * spec.n_in
        self.y: tuple[float, ...] = ()  # outputs at the reached time
        # the index of the subsystem among the partner's, if it walks there
        self.owner: int | None = None
        self.record = None  # its trace's record


def run_f3ornits(problem: CosimProblem, options: MasterOptions) -> RunTrace:
    """Asynchronous variable-step co-simulation over the full horizon."""
    problem.validate()
    options.validate()
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
    # per log, the runtimes whose inputs read it
    readers = [
        (log, [rt for rt in runtimes if any(s is log for s in rt.sources)])
        for src in runtimes
        for log in src.published
    ]

    # ---- initial exchange at t0: samples, order-0 estimates, startup times
    y0 = _initial_exchange(problem)
    trace = _start_trace(problem, y0)
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
            rt.estimated = t0 + rt.spec.dt0

    effective = reconcile(runtimes, t_end, DT_EPSILON)

    # what every event reads, bound once
    publishing = (
        options.tolerances, options.error_norm, options.force_order,
        options.calibration,
    )
    for rt in runtimes:
        rt.record = trace.subsystems[rt.spec.label].record
    active = [k for k, rt in enumerate(runtimes) if not rt.finished]
    events = 0
    partner = None
    try:
        while active:
            if events >= MAX_EVENTS:
                raise RuntimeError(f"event budget exceeded ({MAX_EVENTS} events)")
            t_event = min([effective[k] for k in active])
            tie = 1e-12 * (1.0 + abs(t_event))
            due = [k for k in active if effective[k] - t_event <= tie]

            finished = _step(runtimes, due, t_event, t_end, publishing, partner)

            # a reader resolves its next window at its reached time, which
            # never decreases: the slowest reader bounds what each log must keep
            for log, rts in readers:
                if len(log) > 1:
                    prune_published(
                        log, min([rt.reached for rt in rts]) if rts else None
                    )

            effective = reconcile(runtimes, t_end, DT_EPSILON)
            events += 1
            if finished:
                active = [k for k in active if not runtimes[k].finished]
            if events == PARTNER_WARMUP and active:
                partner = _start_partner(runtimes, options.tolerances.dt_min)
    finally:
        if partner is not None:
            partner.close()

    trace.total_events = events
    trace.wall_time_s = time.perf_counter() - t_start_wall
    return trace


def _publish(
    rt: _SubRuntime, t_event: float, t_end: float, publishing: tuple
) -> bool:
    """Pass 2 for one subsystem walked to t_event: its outputs' errors,
    orders and published estimates, its next estimated time and its trace
    row; whether it has reached the horizon.  `publishing` is the run's
    (tolerances, error norm, forced order, calibration).  It reads and
    writes only the subsystem's own records."""
    tol, norm, force, calibration = publishing
    nu = tol.nu
    dt_prev = t_event - rt.reached
    bounds, histories, published = rt.bounds, rt.histories, rt.published
    errs, orders_now, p_used = [], [], []
    for j, y_new in enumerate(rt.y):
        history, log = histories[j], published[j]
        last_pub = log[-1]
        p_used.append(len(last_pub.coeffs) - 1)
        bounds[j] = b = update_damped_bounds(bounds[j], y_new, dt_prev, nu)
        errs.append(normalized_error(y_new, last_pub(t_event), norm, b, tol))
        decision = select_order(history, t_event, y_new, force)
        try:
            history.push(t_event, y_new)
            log.append(estimate_output(history, decision, calibration))
        except CalibrationError:
            raise
        except ValueError as exc:
            raise DivergenceError(rt.spec.label, rt.reached) from exc
        orders_now.append(decision.order)
    rt.orders_changed = orders_now != p_used
    rt.reached = t_event

    rho = 1.0
    if rt.imposed_step is not None:
        rt.estimated = t_event + rt.imposed_step
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
    published; exchanged data that overflows is a DivergenceError."""
    plans, delivered, reached = rt.plans, rt.delivered, rt.reached
    try:
        for i, log in enumerate(rt.sources):
            plans[i], delivered[i] = build_plan(
                log, reached, t_event, rt.deg_cap, rt.smooths, delivered[i]
            )
    except CalibrationError:
        raise
    except ValueError as exc:
        raise DivergenceError(rt.spec.label, reached) from exc


def _walk(rt: _SubRuntime, t_event: float) -> None:
    """Integrate rt over its window to t_event on its plans."""
    rt.state, rt.y = step_to(
        rt.spec, rt.state, [p.poly for p in rt.plans], rt.reached, t_event
    )


def _start_partner(runtimes: list[_SubRuntime], dt_min: float):
    """A partner owning the subsystems their declarations hand over, or
    None: where none is handed over, where this process forks nothing
    (`parallel.cpus`) or where step_to has been replaced, so that the
    partner's walk would not be this one's.

    A subsystem walks at least 1 / max_micro_step micro steps per simulated
    second, none if it has no bound or has finished.  It may go if its f and
    g are declared and its least window, its imposed_step or else dt_min,
    spans more than MICRO_DIVISOR - 1 bounds: step_to walks such windows in
    fixed steps, long enough to pay for the exchange.  These go heaviest
    first, ties to the lower index, while the heavier process's summed rate
    falls.  No clock is read, so a problem always runs in the same processes.
    """
    rates = [0.0 if rt.finished or rt.spec.max_micro_step is None
             else 1.0 / rt.spec.max_micro_step for rt in runtimes]
    here, away, owned = sum(rates), 0.0, []
    for k in sorted(range(len(runtimes)), key=lambda k: -rates[k]):
        rt, rate = runtimes[k], rates[k]
        window = dt_min if rt.imposed_step is None else rt.imposed_step
        declared = all(isinstance(d, Derivatives) for d in (rt.spec.f, rt.spec.g))
        if not declared or window * rate <= MICRO_DIVISOR - 1.0:
            continue
        if away + rate >= here:  # the heavier side's rate would not fall
            break
        here, away = here - rate, away + rate
        owned.append(k)
    if not owned:
        return None
    from . import parallel  # loaded only by a run that would fork

    if step_to is not parallel.step_to or parallel.cpus() < 2:
        return None
    try:
        partner = parallel.Partner([runtimes[k].spec for k in owned])
    except OSError:  # no more processes: the run goes on in this one
        return None
    for owner, k in enumerate(owned):
        runtimes[k].owner = owner
    return partner


def _step(
    runtimes: list[_SubRuntime], due: list[int], t_event: float, t_end: float,
    publishing: tuple, partner=None,
) -> bool:
    """Both passes over the due subsystems; whether one reached the horizon.

    This process builds every plan, hands the partner the windows of the
    subsystems it owns, walks and publishes its own, and publishes the
    partner's once their windows are back.  Publishing touches only the
    subsystem's own records, so its order changes no number.  Raises what
    the two passes over `due` in order raise: the exception of the first
    window whose plans or walk fail, else that of the first subsystem whose
    publishing fails.
    """
    failed = None
    for i, k in enumerate(due):
        try:
            _plan(runtimes[k], t_event)
        except Exception as exc:  # raised after the windows before it
            failed, due = exc, due[:i]
            break
    away = partner and [runtimes[k] for k in due if runtimes[k].owner is not None]
    if away:
        partner.send([
            (rt.owner, rt.state, rt.reached, t_event, [p.poly for p in rt.plans])
            for rt in away
        ])
    for i, k in enumerate(due):
        rt = runtimes[k]
        if rt.owner is None:
            try:
                _walk(rt, t_event)
            except Exception as exc:
                failed, due = exc, due[:i]
                break
    finished = False
    unpublished = len(due)  # the first own subsystem whose publishing failed
    if failed is None:
        for i, k in enumerate(due):
            rt = runtimes[k]
            if rt.owner is None:
                try:
                    finished |= _publish(rt, t_event, t_end, publishing)
                except Exception as exc:
                    unpublished, failed_later = i, exc
                    break
    if away:
        results = iter(partner.receive())
        for k in due:
            rt = runtimes[k]
            if rt.owner is not None:
                result = next(results)
                if result is None:
                    _walk(rt, t_event)  # raises the partner's exception here
                else:
                    rt.state, rt.y = result
    if failed is not None:
        raise failed
    if away:
        for k in due[:unpublished]:
            rt = runtimes[k]
            if rt.owner is not None:
                finished |= _publish(rt, t_event, t_end, publishing)
    if unpublished < len(due):
        raise failed_later
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
    graph = problem.graph
    specs = problem.subsystems

    y = _initial_exchange(problem)
    trace = _start_trace(problem, y)
    states = [list(s.x_init) for s in specs]

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
