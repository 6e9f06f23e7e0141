"""Benchmark problems: a switched two-mass oscillator and a controlled car.

Both come as a coupled `CosimProblem` plus the matching monolithic ODE, so
any co-simulation run can be scored against a tightly integrated reference
of the very same equations.  Every subsystem's f and g are `Derivatives`
declarations, written with the model's parameters by field name and with
each quantity they share, such as two_mass's coupling force, named once as
a value, so the micro walk evaluates f inline.  `compose_monolith` closes
the coupling on those declarations: the monolith's right-hand side and g
are declarations with no inputs, built from the subsystems' own texts, not
a second copy of them.  `monolithic_reference` integrates it through
`step_to`, the co-simulation's own RK4 (or midpoint rule), at the model's
own `reference_step`, recording its outputs every REFERENCE_RECORD_DT;
`reference_gap` reports how far a second run at twice that step lands from
it.

Each subsystem also states the largest RK4 micro step its own dynamics
allow (`SubsystemSpec.max_micro_step`), derived from the parameters it is
built with, so a `--param` override moves it: one micro step per time
constant of the subsystem's fastest own mode.  The co-simulation's micro
step starts at the window over MICRO_DIVISOR, capped by that bound, and
its error control grows it up to the bound (`step_to`); the reference
walks fixed steps.

two_mass
    Two unit masses on dampers and springs, coupled through a spring-damper
    pair whose force is the only exchanged quantity.  The right-hand ground
    spring stiffens by an order of magnitude at t_switch, so a run has a
    slow smooth phase and a faster phase — good terrain for step control
    and order selection to show a measurable difference.
    Each mass is bounded by 1 / (sqrt(k / m) + d / m) over the springs and
    dampers in its own ODE: k1 and d1 for mass_left, whose coupling force
    arrives as an input; k2 plus the stiffer ground spring and d2 + d3 for
    mass_right, which computes the coupling force from its own state.  At
    the defaults neither bound binds (mass_right's is 0.28 s).  The
    reference runs at 1e-3 s, where its gap to a run at 2e-3 s stays far
    below every rmse the tests score.

car
    A vehicle (force in, position out) driven by a controller that has to
    *differentiate* its position input through a fast first-order filter to
    estimate speed.  Held constant inputs make that estimate collapse to
    zero between exchanges, which is exactly what breaks the fixed-step
    baseline; polynomial inputs keep the estimate usable.  A band-limited
    random road force (deterministic in the seed, redrawn every dwell
    interval) keeps the controller working after the speed target engages.
    The vehicle's declarations, and so the monolith composed from them,
    name the dwell cell cell = t // perturb_dwell and its force
    r = road(cell) through one helper named in their constants, which
    keeps the last cell's force.  Both read t, so the micro walk evaluates
    them once per stage time: in a 300 s run of seed 1 the vehicle's walk
    calls road 65,953 times over its ~30,000 micro steps and hashes 3,270
    cells.  The acceleration a = (u0 + r) / mass is evaluated with them.
    The controller names its speed estimate v once, for its f and its g.
    Its filter is declared a first-order lag of the position input with
    time constant tau_diff (`subsystem.Lag`), so the co-simulation steps
    each of its windows in closed form, one step, where RK4 took 50 fixed
    steps of tau_diff.  The controller still states tau_diff as its bound,
    which no co-simulation window walks.  The vehicle is a pure integrator,
    so its bound comes from the piecewise-constant road force it
    integrates: perturb_dwell / 5, which limits only the steps that cross a
    dwell edge (`build_car`).  At the defaults they are 1e-3 and 0.02 s.
    The reference walks the filter by RK4, which is stable on it only below
    about 2.8 tau_diff, so the stiff filter limits the reference: it runs
    at tau_diff / 2, moved down to split REFERENCE_RECORD_DT into an even
    number of steps.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Sequence

from .coupling import CouplingGraph
from .errors import ConfigError, DivergenceError, check_step, read_value
from .master import CosimProblem, check_event_budget, check_horizon
from .subsystem import (
    SCHEMES, Derivatives, Lag, SubsystemSpec, names_read, renamed, step_to,
)

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def dwell_noise(seed: int, amplitude: float, dwell: float) -> Callable[[float], float]:
    """Piecewise-constant noise in [-amplitude, amplitude], redrawn each dwell.

    The value depends only on (seed, floor(t / dwell)), never on evaluation
    order or count, so every integrator — micro stages included — sees the
    same signal.  Each call hashes.  A cell t // dwell is a whole float, so
    with a dwell of 1.0 the noise is a function of the cell itself, which is
    how the car reads it, through a named value of its declarations.
    """
    def w(t: float) -> float:
        h = _splitmix64(((seed & _M64) * 0x100000001B3 + int(t // dwell)) & _M64)
        return amplitude * (2.0 * (h / 2.0**64) - 1.0)

    return w


def piecewise_linear(
    points: Sequence[tuple[float, float]]
) -> Callable[[float], float]:
    """Linear interpolant through (t, value) breakpoints, clamped outside."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if sorted(xs) != xs or len(set(xs)) != len(xs):
        raise ConfigError("breakpoints must have strictly increasing times")

    def fn(t: float) -> float:
        if t <= xs[0]:
            return ys[0]
        if t >= xs[-1]:
            return ys[-1]
        i = bisect_right(xs, t) - 1
        frac = (t - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + frac * (ys[i + 1] - ys[i])

    return fn


@dataclass(frozen=True)
class BenchmarkModel:
    """A coupled problem and its monolithic twin, sharing all parameters;
    the builders fill the twin's fields from `compose_monolith`."""

    name: str
    problem: CosimProblem
    params: object
    monolith_rhs: Derivatives | Callable[
        [float, list[float], Sequence[float]], list[float]
    ]
    monolith_x0: tuple[float, ...]
    # the monolith's g: every output at (t, monolithic state), in
    # `output_keys` order; this is what references and scoring use
    output_map: Derivatives
    # default step of `monolithic_reference`, for either scheme
    reference_step: float


def _mode_bound(stiffness: float, damping: float, mass: float) -> float | None:
    """One time constant of a mass's fastest own mode: 1 / (sqrt(k/m) + d/m).

    Magnitudes are used, so a negative spring or damper bounds the step by
    its growth rate; a mass with neither has no bound of its own.
    """
    rate = math.sqrt(abs(stiffness) / mass) + abs(damping) / mass
    bound = 1.0 / rate if rate > 0 else math.inf
    return bound if math.isfinite(bound) else None


# ------------------------------------------------------------------ monolith

def output_keys(problem: CosimProblem) -> list[tuple[str, int]]:
    """Every output of the problem as (subsystem label, index), sorted."""
    return sorted((s.label, j) for s in problem.subsystems for j in range(s.n_out))


def compose_monolith(
    problem: CosimProblem,
) -> tuple[Derivatives, tuple[float, ...], Derivatives]:
    """The monolith's right-hand side, initial state and g: the subsystems'
    declared f and g with the coupling closed.

    Subsystem k's states follow those of the subsystems before it, and its
    values are renamed {name}_{k}.  Its output j becomes the named value
    y{k}_{j}, and each of its inputs the name of the output that feeds it,
    so every quantity keeps its own text, and its bits.  The values are
    ordered so that each follows those it reads.  The g reads y{k}_{j} for
    each output, in `output_keys` order.  A subsystem's lag
    declarations (`SubsystemSpec.lags`) are ignored: the monolith is walked
    by RK4 at the model's `reference_step`, never in closed form, so the
    reference stays an oracle independent of that step.  Raises
    ConfigError for a black-box f or g, an input no output feeds, a
    constant or value that two declarations define differently, or a
    cyclic feed-through, which would need an implicit solve.
    """
    constants: dict[str, object] = {}
    values: dict[str, str] = {}
    exprs: list[str] = []
    outputs: dict[tuple[str, int], str] = {}
    for k, spec in enumerate(problem.subsystems):
        for key, declared in (("f", spec.f), ("g", spec.g)):
            if not isinstance(declared, Derivatives):
                raise ConfigError(
                    f"{spec.label}: {key} is a black box, so no monolith "
                    "can be composed from it"
                )
            for name, value in declared.constants:
                other = constants.setdefault(name, value)
                # repr tells 0.0 from -0.0 and 1 from 1.0, which compare equal
                if other is not value and (
                    type(other) is not type(value) or repr(other) != repr(value)
                ):
                    raise ConfigError(
                        f"{spec.label}: {key} defines constant {name!r} "
                        "differently from a declaration before it"
                    )
        own = dict(spec.f.values)
        for name, expr in spec.g.values:
            if own.setdefault(name, expr) != expr:
                raise ConfigError(
                    f"{spec.label}: f and g define value {name!r} differently"
                )
        # exprs holds one derivative per state of the subsystems before k
        rename = {f"x{i}": f"x{len(exprs) + i}" for i in range(spec.n_states)}
        rename.update((name, f"{name}_{k}") for name in own)
        for i in range(spec.n_in):
            if (k, i) not in problem.graph.links:
                raise ConfigError(f"{spec.label}: input {i} is fed by no output")
            rename[f"u{i}"] = "y{}_{}".format(*problem.graph.links[k, i])
        for name, expr in own.items():
            values[rename[name]] = renamed(expr, rename)
        for j, expr in enumerate(spec.g.exprs):
            outputs[spec.label, j] = f"y{k}_{j}"
            values[f"y{k}_{j}"] = renamed(expr, rename)
        exprs += [renamed(expr, rename) for expr in spec.f.exprs]

    after = {
        name: [read for read in dict.fromkeys(names_read(expr)) if read in values]
        for name, expr in values.items()
    }
    try:
        order = tuple(TopologicalSorter(after).static_order())
    except CycleError as exc:
        labels = {name: f"{label}:{j}" for (label, j), name in outputs.items()}
        raise ConfigError("cyclic feed-through: " + " -> ".join(
            labels.get(name, name) for name in exc.args[1]
        )) from None
    named = tuple((name, values[name]) for name in order)
    rhs = Derivatives(tuple(exprs), tuple(constants.items()), named)
    rhs.check("monolith", len(exprs), 0)
    g = Derivatives(tuple(outputs[key] for key in output_keys(problem)),
                    rhs.constants, named)
    x0 = tuple(x for spec in problem.subsystems for x in spec.x_init)
    return rhs, x0, g


# ------------------------------------------------------------------ two-mass

@dataclass(frozen=True)
class TwoMassParams:
    m1: float = 1.0
    m2: float = 1.0
    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    k3_after: float = 10.0
    d1: float = 0.1
    d2: float = 0.1
    d3: float = 0.1
    t_switch: float = 100.0
    t_end: float = 200.0
    x1_0: float = 0.1
    x2_0: float = 0.0
    v1_0: float = 0.0
    v2_0: float = 0.0


def build_two_mass(params: TwoMassParams | None = None) -> BenchmarkModel:
    p = params if params is not None else TwoMassParams()
    # f and g read the parameters by their field names.  Each mass names its
    # ground spring's negated stiffness, which the walk then evaluates once
    # per window (nk1) or once per stage time (nk3); mass_right names the
    # coupling force, which it computes from its own state and the other
    # mass's and gives out as its output
    constants = tuple(vars(p).items())
    left = (("nk1", "-k1"),)
    right = (
        ("nk3", "-(k3_after if t >= t_switch else k3)"),
        ("fc", "k2 * (u0 - x0) + d2 * (u1 - x1)"),
    )
    f_left = Derivatives(("x1", "(nk1 * x0 - d1 * x1 - u0) / m1"), constants, left)
    g_left = Derivatives(("x0", "x1"), constants, left)
    f_right = Derivatives(("x1", "(nk3 * x0 - d3 * x1 + fc) / m2"), constants, right)
    g_right = Derivatives(("fc",), constants, right)
    k_right = max(abs(p.k2 + p.k3), abs(p.k2 + p.k3_after))
    specs = (
        SubsystemSpec("mass_left", 2, 1, 2, f_left, g_left, (p.x1_0, p.v1_0),
                      _mode_bound(p.k1, p.d1, p.m1), dt0=0.01),
        SubsystemSpec("mass_right", 2, 2, 1, f_right, g_right, (p.x2_0, p.v2_0),
                      _mode_bound(k_right, p.d2 + p.d3, p.m2), dt0=0.01),
    )
    graph = CouplingGraph({(0, 0): (1, 0), (1, 0): (0, 0), (1, 1): (0, 1)})
    problem = CosimProblem(specs, graph, 0.0, p.t_end)
    return BenchmarkModel("two_mass", problem, p, *compose_monolith(problem), 1e-3)


# ----------------------------------------------------------------------- car

@dataclass(frozen=True)
class CarParams:
    mass: float = 1000.0
    v_target: float = 16.0
    t_control_on: float = 10.0
    kp: float = 2000.0
    tau_diff: float = 1e-3
    perturb_amp: float = 200.0
    perturb_dwell: float = 0.1
    t_end: float = 30.0
    seed: int = 20240

    #: open-loop force profile driven until the speed controller engages
    preset_force: tuple[tuple[float, float], ...] = (
        (0.0, 0.0),
        (1.0, 4000.0),
        (3.0, 4000.0),
        (5.0, 0.0),
        (10.0, 0.0),
    )


def build_car(params: CarParams | None = None) -> BenchmarkModel:
    """The car: a vehicle, and a controller whose filter is declared a lag.

    The controller keeps max_micro_step = tau_diff although its windows
    are stepped in closed form and walk no micro step: the bound is RK4's
    on the filter, which still limits the reference (`reference_step`), and
    `CosimProblem.validate` still refuses a tau_diff so small that the
    horizon would take more than the event budget's steps of it.
    """
    p = params if params is not None else CarParams()
    preset = piecewise_linear(p.preset_force)
    # the road force of a dwell cell; it keeps the last cell's, so a cell
    # read again returns it rather than hashing
    road = lru_cache(maxsize=1)(dwell_noise(p.seed, p.perturb_amp, 1.0))
    # parameters bound to locals once, for the helpers
    tau_diff, kp, v_target = p.tau_diff, p.kp, p.v_target
    t_control_on = p.t_control_on

    def force(t, v_est):
        if t < t_control_on:
            return preset(t)
        return kp * (v_target - v_est)

    # f and g read the parameters by their field names.  The vehicle names
    # its acceleration; x0 follows the position input with time constant
    # tau_diff, and the controller names the tracking residual over tau_diff
    # as its speed estimate v
    constants = tuple(vars(p).items()) + (("force", force), ("road", road))
    vehicle = (("cell", "t // perturb_dwell"), ("r", "road(cell)"),
               ("a", "(u0 + r) / mass"))
    controller = (("v", "(u0 - x0) / tau_diff"),)
    # the vehicle's f reads no state, so its step error estimate is zero
    # between dwell edges and only the bound limits a step that crosses one:
    # a fifth of a cell lets the car's windows walk under error control;
    # with no bound, seeds 7 and 11 scored 23 % and 16 % worse at t_end 30
    specs = (
        SubsystemSpec("vehicle", 2, 1, 1,
                      Derivatives(("x1", "a"), constants, vehicle),
                      Derivatives(("x0",), constants, vehicle),
                      (0.0, 0.0), p.perturb_dwell / 5.0, dt0=0.05),
        SubsystemSpec("controller", 1, 1, 1,
                      Derivatives(("v",), constants, controller),
                      Derivatives(("force(t, v)",), constants, controller),
                      (0.0,), tau_diff, dt0=0.05, lags=(Lag(0, 0, tau_diff),)),
    )
    graph = CouplingGraph({(0, 0): (1, 0), (1, 0): (0, 0)})
    problem = CosimProblem(specs, graph, 0.0, p.t_end)
    return BenchmarkModel(
        "car", problem, p, *compose_monolith(problem), _on_record_grid(tau_diff / 2)
    )


# ------------------------------------------------------------------ registry

#: parameters the models divide by; each must be positive
POSITIVE_PARAMS = ("m1", "m2", "mass", "tau_diff", "perturb_dwell")

MODEL_BUILDERS: dict[str, tuple[type, Callable[..., BenchmarkModel]]] = {
    "two_mass": (TwoMassParams, build_two_mass),
    "car": (CarParams, build_car),
}


def available_models() -> tuple[str, ...]:
    return tuple(sorted(MODEL_BUILDERS))


def replace_number(obj, name: str, value: float | str, key: str):
    """`obj`, a frozen dataclass, with its field `name` replaced by `value`,
    text or a number, read by `errors.read_value` as that field's type;
    this is how every dotted config key overrides.

    A refusal of `read_value`'s also names the field; one of `obj`'s own
    is re-raised under `key`, without the label it opens with.
    """
    try:
        number = read_value(key, value, typing.get_type_hints(type(obj))[name])
    except ConfigError as exc:
        raise ConfigError(f"{exc} (field {name!r} of {type(obj).__name__})") from None
    try:
        return dataclasses.replace(obj, **{name: number})
    except ConfigError as exc:
        msg = str(exc).removeprefix(f"{getattr(obj, 'label', '')}: ")
        raise ConfigError(f"key {key!r}: {msg}") from None


def build_model(
    name: str, overrides: dict[str, float | str] | None = None
) -> BenchmarkModel:
    """Build a registered model, overriding numeric parameters by name."""
    if name not in MODEL_BUILDERS:
        raise ConfigError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        )
    params_cls, builder = MODEL_BUILDERS[name]
    params = params_cls()
    overrides = overrides or {}
    known = {f.name for f in dataclasses.fields(params_cls)}
    unknown = [f"'param.{key}'" for key in sorted(set(overrides) - known)]
    if unknown:
        raise ConfigError(f"unknown parameter(s) for {name}: {', '.join(unknown)}")
    for key, value in overrides.items():
        params = replace_number(params, key, value, f"param.{key}")
    for key in POSITIVE_PARAMS:
        value = getattr(params, key, None)
        if value is not None and not value > 0:
            raise ConfigError(
                f"key 'param.{key}': parameter {key!r} of {name} must be "
                f"positive, got {value!r}"
            )
    return builder(params)


# ----------------------------------------------------------------- reference

#: the reference's record grid, in seconds
REFERENCE_RECORD_DT = 1e-2


def _on_record_grid(bound: float) -> float:
    """The largest step at most `bound` that splits REFERENCE_RECORD_DT into
    an even number of steps, as `monolithic_reference` requires."""
    return REFERENCE_RECORD_DT / (2 * math.ceil(REFERENCE_RECORD_DT / (2 * bound)))


def compute_rmse(trace_t, trace_y, ref_t, ref_y) -> float:
    """Percent RMSE of a trace against a reference series on the ref grid.

    The trace is interpolated linearly onto each reference time, with
    numpy.interp's formula, and held at its end values outside its span.
    Each residual is taken in units of the span before `math.hypot` sums
    their squares, so neither huge states nor a tiny span under- or
    overflows where the score itself is a finite number.
    """
    span = max(ref_y) - min(ref_y)
    if span <= 0.0:
        raise ConfigError("reference series is flat; RMSE undefined")
    last = len(trace_t) - 1
    residuals = []
    for t, r in zip(ref_t, ref_y):
        j = bisect_right(trace_t, t) - 1
        if j < 0:
            y = trace_y[0]
        elif j == last or trace_t[j] == t:
            y = trace_y[j]
        else:
            slope = (trace_y[j + 1] - trace_y[j]) / (trace_t[j + 1] - trace_t[j])
            y = slope * (t - trace_t[j]) + trace_y[j]
        residuals.append((y - r) / span)
    return 100.0 * (math.hypot(*residuals) / math.sqrt(len(residuals)))


@dataclass(frozen=True)
class ReferenceSolution:
    """Monolithic solution sampled on a regular grid."""

    t: tuple[float, ...]
    series: dict[tuple[str, int], tuple[float, ...]]
    micro_step: float
    scheme: str


_REFERENCE_CACHE: dict[tuple, ReferenceSolution] = {}
_GAP_CACHE: dict[tuple, dict[tuple[str, int], float]] = {}


def _gap_pct(t, fine, coarse) -> float:
    if max(fine) == min(fine):
        return 0.0 if coarse == fine else math.inf
    return compute_rmse(t, coarse, t, fine)


def monolithic_reference(
    model: BenchmarkModel,
    micro_step: float | None = None,
    record_dt: float = REFERENCE_RECORD_DT,
    scheme: str = "rk4",
) -> ReferenceSolution:
    """Integrate the monolithic twin tightly; results are cached per session.

    micro_step defaults to the model's `reference_step`.  The monolith is a
    `SubsystemSpec` without inputs, g the model's `output_map`, walked by
    `step_to`, the co-simulation's own micro-integrator, one call and one
    row of outputs per record window, with the scheme of `subsystem.SCHEMES` named: "rk4", or "rk2", the explicit
    midpoint rule, whose second order cross-checks the recorded values
    through the same walk.  `step_to` keeps no list that grows with its step
    count, so memory does not grow with the record stride.  Record window k
    ends at t_init + min(k * stride, n_steps) * micro_step, so switch times
    and dwell edges on that grid fall on window starts.  A non-finite state
    or output, the first row's included, raises DivergenceError.  The
    reference walks once; its own error estimate is `reference_gap`, paid
    only where it is read.

    record_dt must be an even multiple of micro_step, and the horizon may
    take at most master.MAX_EVENTS steps.  A horizon off the grid
    t_init + i * micro_step ends the last record window on t_end with one
    short step.
    """
    if micro_step is None:
        micro_step = model.reference_step
    check_step("key 'micro_step'", micro_step)
    check_step("key 'record_dt'", record_dt)
    key = (model.name, model.params, micro_step, record_dt, scheme)
    hit = _REFERENCE_CACHE.get(key)
    if hit is not None:
        return hit
    ts, fine = _walk(model, micro_step, record_dt, scheme, 1)
    ref = ReferenceSolution(
        t=ts,
        series=dict(zip(output_keys(model.problem), fine)),
        micro_step=micro_step,
        scheme=scheme,
    )
    _REFERENCE_CACHE[key] = ref
    return ref


def reference_gap(
    model: BenchmarkModel,
    micro_step: float | None = None,
    record_dt: float = REFERENCE_RECORD_DT,
    scheme: str = "rk4",
) -> dict[tuple[str, int], float]:
    """The reference's own error, per output; cached per session.

    The reference's walk runs again at twice the step, to the same record
    points, and each output's gap is `compute_rmse` of that run against the
    (cached) reference, in % of the output's amplitude: the unit of the
    scores it serves.  A gap is inf where the doubled run diverged, and
    where a flat output has no amplitude but the two runs differ; a
    diverging doubled run leaves the reference standing.  With an odd step
    count the doubled run's last step is a single one.

    This is step doubling, an honest bound, not a fourth-order estimate:
    the step that ends exactly on t_switch or on a `dwell_noise` edge
    evaluates its last stage on the far side of the jump, so across those
    points the reference is only first order, and the gap includes that
    error.  On two_mass over 200 s the largest h-vs-2h difference of
    mass_left's position is about 2e-12 before the switch; after it, 3.7e-9
    at h = 1e-4 and 3.7e-8 at h = 1e-3: ten times the step, ten times the
    gap.
    """
    ref = monolithic_reference(model, micro_step, record_dt, scheme)
    key = (model.name, model.params, ref.micro_step, record_dt, scheme)
    hit = _GAP_CACHE.get(key)
    if hit is not None:
        return hit
    try:
        _, coarse = _walk(model, ref.micro_step, record_dt, scheme, 2)
    except DivergenceError:
        gap = dict.fromkeys(ref.series, math.inf)
    else:
        gap = {
            k: _gap_pct(ref.t, fine, c)
            for (k, fine), c in zip(ref.series.items(), coarse)
        }
    _GAP_CACHE[key] = gap
    return gap


def _walk(
    model: BenchmarkModel, h: float, record_dt: float, scheme: str, m: int
) -> tuple[tuple[float, ...], list[tuple[float, ...]]]:
    """The record times, and the output columns there from steps of m * h,
    in `output_keys` order.  The rows fill one array of doubles, not lists
    of float objects."""
    t0, t_end = model.problem.t_init, model.problem.t_end
    check_horizon(t0, t_end)
    check_event_budget("key 'micro_step'", h, "steps", t0, t_end)
    n_steps = round((t_end - t0) / h)
    on_grid = abs(t0 + n_steps * h - t_end) <= 1e-9 * max(1.0, abs(t_end))
    if not on_grid:
        # the last step is shortened to end on t_end
        n_steps = math.ceil((t_end - t0) / h)
    t_stop = t0 + n_steps * h if on_grid else t_end
    stride = round(record_dt / h)
    if stride < 2 or stride % 2 or abs(stride * h - record_dt) > 1e-12:
        raise ConfigError(
            f"key 'record_dt': {record_dt!r} is not an even multiple of the "
            f"reference step {h!r}"
        )
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown reference scheme {scheme!r}")

    g, x = model.output_map, model.monolith_x0
    spec = SubsystemSpec("monolith", len(x), 0, len(g.exprs), model.monolith_rhs, g, x)
    y = g(t0, x, ())
    if not all(map(math.isfinite, y)):
        raise DivergenceError(spec.label, t0)
    ts, rows = [t0], array("d", y)
    for i in range(stride, n_steps + stride, stride):
        ts.append(t0 + i * h if i < n_steps else t_stop)
        x, y = step_to(spec, x, (), ts[-2], ts[-1], m * h, scheme)
        rows.extend(y)
    return tuple(ts), [tuple(rows[j::len(y)]) for j in range(len(y))]
