"""Subsystem wrapper: declared capabilities and macro-step integration.

Each subsystem owns an ODE  x' = f(t, x, u(t)),  y = g(t, x, u(t))  and is
advanced one macro step at a time with a classical Runge-Kutta 4
micro-integration under embedded error control, its own solver.  The micro
step starts at the floor, the window (t_target - t_start) over
MICRO_DIVISOR capped by the subsystem's own `max_micro_step` when it
declares one, and grows while each step's local error estimate stays
within MICRO_RTOL and MICRO_ATOL, up to the ceiling, that bound capped by
the window: each model states the bound its own fastest mode needs, so a
slow subsystem does not pay for a stiff neighbour; on a window at least
MICRO_DIVISOR bounds long floor and ceiling meet, and every step is the
bound's.  Only an explicit micro step, as the monolithic reference takes,
walks fixed steps, by the same kernel skeleton without its control.
Inputs arrive as genuine polynomials in time and are evaluated
continuously at every micro stage, never sampled-and-held, so the micro
error stays far below the coupling error.  `step_to` pads a window's
inputs to their common degree and walks it with one kernel generated and
compiled per scheme of `SCHEMES`, state dimension, input degrees, declared
f and g, and control (`_micro_walk`): it advances the micro grid, evaluates
every input once per stage time by inline Horner, and keeps the state, the
grid and the coefficients in local variables, so its memory does not grow
with the number of micro steps.  Each spec binds that kernel on first use.
f and g are each either a plain callable, which can be any black box (f
receives each stage's state as a fresh list and its inputs as a read-only
tuple), or a `Derivatives`: one expression per state or output, and named
values, each evaluated only as often as what it reads can change.  The
kernel evaluates a declared f inline, with no call and no list per stage,
to the same bits, and reads a derivative that is a bare name in place
rather than copying it; every g, declared or callable, it evaluates at
the end (`_closing`).
A spec that declares each of its states a first-order lag
x{i}' = (u{j} - x{i}) / T (`Lag`: the input j and the number T) is not
walked: `step_to` takes each window in one closed-form step (`_lag_walk`),
exact for the window's polynomial input, so a lag far faster than the
window costs no more than a slow one.  The declaration, not f, chooses that step; a
declared f must agree with it, and a callable f, never called there, is
taken at its word.  A spec that mixes lags with other states is walked.
There is no rollback: a completed macro step is final.  `step_to` returns
the new state and the output tuple y at the target time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cache, cached_property
from math import exp, factorial, isfinite
from typing import Callable, NamedTuple, Sequence

from .errors import ConfigError, ContractViolation, DivergenceError, check_step
from .poly import MAX_DEGREE, Polynomial

#: the `spec.kernels` scheme under which `step_to` binds a closed-form kernel
LAG = "lag"

#: the least micro step: min(macro_step / MICRO_DIVISOR, spec.max_micro_step)
MICRO_DIVISOR = 50.0

#: the local error a micro step may make in each state, relative to the
#: larger of its magnitudes before and after the step, plus absolute: at
#: least four orders below the default coupling tolerances (`Tolerances`:
#: tol_rel 1e-3, tol_abs 1e-6), so micro error stays far below coupling error
MICRO_RTOL = 1e-8
MICRO_ATOL = 1e-10


def _bound(name: str) -> bool:
    """Whether a stage binds the name: its time t, a state x{i} or an
    input u{j}."""
    return name == "t" or (name[:1] in ("x", "u") and name[1:].isdecimal())


#: what a named value reads, directly or through earlier values, and so how
#: often it is evaluated: only constants (once per window); also t or an
#: input (once per stage time); also a state (at every stage)
_WINDOW, _TIME, _STATE = range(3)

#: nodes `Derivatives.check` rejects: scopes whose own names a stage could
#: not rename, and suspensions, which would make the walk a generator
_SCOPES = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SUSPENSIONS = (ast.Yield, ast.YieldFrom, ast.Await)


@cache
def _template(expr: str) -> tuple[str, ...]:
    """expr's text with every name it reads between NUL characters (which
    `ast.unparse` writes for no other reason), split there: the odd parts
    are the names, so a stage renames them without parsing again."""
    tree = ast.parse(expr, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            node.id = f"\0{node.id}\0"
    return tuple(ast.unparse(tree).split("\0"))


def names_read(expr: str) -> tuple[str, ...]:
    """The names expr reads, in order, each as often as it reads it."""
    return _template(expr)[1::2]


def renamed(expr: str, names: dict[str, str]) -> str:
    """expr's text, each name it reads passed through names."""
    return "".join(
        names.get(part, part) if i % 2 else part
        for i, part in enumerate(_template(expr))
    )


class _Plan:
    """A declaration's named values at the levels their reads give them:
    `defs[level]` holds, in declared order, each value of the level that
    an expression reads, directly or through other values (`_plan`)."""

    def __init__(self, exprs: Sequence[str], values: Sequence[tuple[str, str]]):
        levels: dict[str, int] = {}
        self.defs: tuple[list[tuple[str, str]], ...] = ([], [], [])
        reads = {name for e in exprs for name in names_read(e)}
        for name, expr in reversed(values):
            if name in reads:
                reads.update(names_read(expr))
        for name, expr in [(n, e) for n, e in values if n in reads]:
            level = _WINDOW
            for read in names_read(expr):
                if read in levels:
                    level = max(level, levels[read])
                elif _bound(read):
                    level = max(level, _STATE if read[0] == "x" else _TIME)
            levels[name] = level
            self.defs[level].append((name, expr))
        #: the constants, and the indices of the states and inputs, read
        self.constants = sorted(
            n for n in reads if not _bound(n) and n not in levels
        )
        self.states = sorted(int(n[1:]) for n in reads if n[0] == "x" and _bound(n))
        self.inputs = sorted(int(n[1:]) for n in reads if n[0] == "u" and _bound(n))

    def lines(self, level: int, rename: dict[str, str]) -> list[str]:
        """One assignment per named value of the level, in order."""
        return [
            f"{rename.get(name, name)} = {renamed(expr, rename)}"
            for name, expr in self.defs[level]
        ]


_plan = cache(_Plan)


@dataclass(frozen=True)
class Derivatives:
    """f(t, x, u) or g(t, x, u) declared as one Python expression per state
    or per output.

    exprs[i] is written in the time t, the states x0.., the inputs u0.., the
    names of `constants`, (name, value) pairs of numbers or helper callables,
    and the names of `values`, (name, expression) pairs, each of which may
    read all of these and the values before it.  Both are tuples, so the
    declaration stays hashable.  A value is evaluated only as often as what
    it reads can change (`_micro_walk`), and not at all if no expression
    reads it, directly or through other values, so helpers must be pure;
    every expression is otherwise evaluated as written.  Called, it runs
    `function`, compiled on first use, which evaluates each value it needs
    once per call.  Both give the bits of the text.  `SubsystemSpec` checks
    a declaration against its arities.
    """

    exprs: tuple[str, ...]
    constants: tuple[tuple[str, object], ...] = ()
    values: tuple[tuple[str, str], ...] = ()

    @cached_property
    def namespace(self) -> dict[str, object]:
        return dict(self.constants)

    @cached_property
    def function(self) -> Callable[..., list[float]]:
        """f(t, x, u) as one compiled function: a call costs one frame."""
        plan = _plan(self.exprs, self.values)
        rename: dict[str, str] = {}
        lines = [line for level in range(len(plan.defs))
                 for line in plan.lines(level, rename)]
        source = (
            "def _derivatives(t, _x, _u):\n"
            + "".join(f"    x{i} = _x[{i}]\n" for i in plan.states)
            + "".join(f"    u{j} = _u[{j}]\n" for j in plan.inputs)
            + "".join(f"    {line}\n" for line in lines)
            + f"    return [{', '.join(renamed(e, rename) for e in self.exprs)}]\n"
        )
        namespace = dict(self.namespace)
        exec(compile(source, "<derivatives>", "exec"), namespace)
        return namespace["_derivatives"]

    def __call__(
        self, t: float, x: Sequence[float], u: Sequence[float]
    ) -> list[float]:
        return self.function(t, x, u)

    def check(
        self, label: str, n_states: int, n_in: int, n_out: int | None = None
    ) -> None:
        """Raise ConfigError unless there is one expression per state (per
        output, given n_out), each constant and value is named once and
        not as a name of the micro walk, and every expression is one
        expression that reads only t, x0..x{n_states-1}, u0..u{n_in-1},
        the constants and, for a value, the values before it."""
        kind, count, of = (
            ("derivative", n_states, "states") if n_out is None
            else ("output", n_out, "outputs")
        )
        if len(self.exprs) != count:
            raise ConfigError(
                f"{label}: {len(self.exprs)} {kind} expressions for {count} {of}"
            )
        declared: dict[str, str] = {}
        for what, name in [("constant", n) for n, _ in self.constants] + [
            ("value", n) for n, _ in self.values
        ]:
            if _bound(name) or name.startswith("_"):
                raise ConfigError(
                    f"{label}: {what} {name!r} would shadow a name of the "
                    "micro walk (t, x0.., u0.. or a leading underscore)"
                )
            if name in declared:
                raise ConfigError(f"{label}: {what} {name!r} " + (
                    "is declared twice" if declared[name] == what
                    else "shadows a constant"
                ))
            declared[name] = what
        known = {"t", *self.namespace}
        known.update(f"x{i}" for i in range(n_states))
        known.update(f"u{j}" for j in range(n_in))
        for what, value, expr in [(f"value {n!r}", n, e) for n, e in self.values] + [
            (f"{kind} {i}", None, e) for i, e in enumerate(self.exprs)
        ]:
            try:
                tree = ast.parse(expr, mode="eval")
            except (SyntaxError, ValueError):
                raise ConfigError(
                    f"{label}: {what} is not an expression: {expr!r}"
                ) from None
            for node in ast.walk(tree):
                if isinstance(node, _SCOPES):
                    raise ConfigError(
                        f"{label}: {what} opens a scope of its own "
                        "(a lambda or a comprehension)"
                    )
                if isinstance(node, _SUSPENSIONS):
                    raise ConfigError(f"{label}: {what} suspends (yield or await)")
                if not isinstance(node, ast.Name):
                    continue
                name = node.id
                if not isinstance(node.ctx, ast.Load):
                    raise ConfigError(f"{label}: {what} assigns {name!r}")
                if name in known:
                    continue
                if _bound(name):
                    raise ConfigError(
                        f"{label}: {what} reads {name}, out of range "
                        f"for {n_states} states and {n_in} inputs"
                    )
                if declared.get(name) == "value":
                    raise ConfigError(
                        f"{label}: {what} reads {name!r}, a value not declared "
                        "before it"
                    )
                raise ConfigError(f"{label}: {what} reads unknown name {name!r}")
            known.add(value)


class Lag(NamedTuple):
    """State `state` declared a first-order lag of input `input`, with time
    constant tau, a number: x{state}' = (u{input} - x{state}) / tau."""

    state: int
    input: int
    tau: float


#: the points (t, a, b) a declared f is evaluated at to check a lag, each
#: state i at a * (i + 1) and each input j at b * (j + 2)
_LAG_PROBES = ((0.0, 1.0, -1.0), (1.0, 2.0, 0.0), (2.0, 3.0, 1.0))


@dataclass(frozen=True)
class SubsystemSpec:
    """Dynamics f, output map g, initial state, coupling arities, and what
    the subsystem can take from the master.

    f and g are each a plain callable or a `Derivatives`, with one
    expression per state or per output.  max_micro_step bounds the RK4
    micro step for this subsystem's own dynamics: the ceiling the error
    control grows a step to, and the floor's cap; None leaves the window
    as the ceiling.  A window stepped in closed form (lags, below) takes
    no micro step, so the bound does not limit it.  max_input_degree is
    the highest polynomial degree the subsystem can integrate on its
    inputs; smoothing needs the cubics of MAX_DEGREE.  A subsystem that
    cannot vary its communication step declares the step it imposes;
    imposed_step None means the step is free.  dt0 is the startup step a
    free subsystem takes first and adapts from; a problem refuses a
    subsystem without one.  lags declares states that
    are first-order lags, one `Lag` (state, input, tau) each, a state at
    most once; where they are all of the states, `step_to` steps each
    window in closed form instead of walking it.  A declaration out of
    range, or with a tau that is not finite and positive, is a ConfigError
    naming its field, and so is one that a declared f disagrees with
    (`_check_lag`).
    """

    label: str
    n_states: int
    n_in: int
    n_out: int
    f: Derivatives | Callable[[float, list[float], Sequence[float]], list[float]]
    g: Derivatives | Callable[[float, list[float], list[float]], list[float]]
    x_init: tuple[float, ...]
    max_micro_step: float | None = None
    max_input_degree: int = MAX_DEGREE
    imposed_step: float | None = None
    dt0: float | None = None
    lags: tuple[Lag, ...] = ()

    def __post_init__(self):
        if min(self.n_in, self.n_out) < 0:
            raise ConfigError(f"{self.label}: arities must be >= 0")
        if len(self.x_init) != self.n_states:
            raise ConfigError(
                f"{self.label}: x_init has {len(self.x_init)} entries, "
                f"expected {self.n_states}"
            )
        for name in ("max_micro_step", "imposed_step", "dt0"):
            step = getattr(self, name)
            if step is not None:
                check_step(f"{self.label}: {name}", step)
        if self.max_input_degree < 0:
            raise ConfigError(f"{self.label}: max_input_degree must be >= 0")
        if isinstance(self.f, Derivatives):
            self.f.check(self.label, self.n_states, self.n_in)
        if isinstance(self.g, Derivatives):
            self.g.check(self.label, self.n_states, self.n_in, self.n_out)
        lagged: set[int] = set()
        for k, (state, source, tau) in enumerate(self.lags):
            field = f"{self.label}: lags[{k}]"
            if state in lagged:
                raise ConfigError(f"{field}.state {state!r} is declared twice")
            for name, index, count, of in (("state", state, self.n_states, "states"),
                                           ("input", source, self.n_in, "inputs")):
                if not (isinstance(index, int) and 0 <= index < count):
                    raise ConfigError(
                        f"{field}.{name} {index!r} is out of range for {count} {of}"
                    )
            check_step(f"{field}.tau", tau)
            lagged.add(state)
            if isinstance(self.f, Derivatives):
                self._check_lag(field, state, source, tau)

    def _check_lag(self, field: str, state: int, source: int, tau: float) -> None:
        """Raise ConfigError unless the declared f's derivative of the state
        is (u{source} - x{state}) / tau, to 1e-9 of |u| + |x| over tau, at
        each of `_LAG_PROBES`."""
        expr = self.f.exprs[state]
        derivative = Derivatives((expr,), self.f.constants, self.f.values).function
        for t, a, b in _LAG_PROBES:
            x = [a * (i + 1.0) for i in range(self.n_states)]
            u = [b * (j + 2.0) for j in range(self.n_in)]
            want = (u[source] - x[state]) / tau
            try:
                got = derivative(t, x, u)[0]
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{field}: f's derivative {expr!r} of x{state} fails at "
                    f"t = {t!r}: {exc}"
                ) from None
            if not abs(got - want) <= 1e-9 * (abs(u[source]) + abs(x[state])) / tau:
                raise ConfigError(
                    f"{field}: f's derivative {expr!r} of x{state} is not "
                    f"(u{source} - x{state}) / {tau!r}: {got!r} where the lag "
                    f"gives {want!r} at t = {t!r}"
                )

    @cached_property
    def kernels(self) -> dict[tuple[str, int, bool], _Walk]:
        """`step_to`'s kernel per scheme (LAG for the closed form), common
        input degree and error control, bound on first use."""
        return {}


def _arity_error(label: str, k: Sequence[float], n: int) -> ContractViolation:
    return ContractViolation(
        f"{label}: f returned {len(k)} derivatives, expected {n}"
    )


def _outputs(label: str, y: Sequence[float], n: int) -> tuple[float, ...]:
    """A callable g's outputs y as a tuple; the one rule for their count."""
    if len(y) != n:
        raise ContractViolation(f"{label}: g returned {len(y)} outputs, expected {n}")
    return tuple(y)


def _stalled(label: str, hs: float, t: float) -> ValueError:
    return ValueError(f"{label}: micro step {hs!r} does not advance t = {t!r}")


#: each stage time's tag, in the names of what is evaluated at that time
_TAGS = {"_t": "i", "_tm": "m", "_t1": "e"}

#: the micro step of each scheme `_micro_walk` writes out: per stage, its
#: time and the step its state takes from _x along the previous stage's
#: derivatives (None: the stage's state is _x); the lines that open the
#: update; the updated _x{i}, from the stages' derivatives {k1}, {k2}, ...;
#: and the step's local error estimate for state i, from those and the
#: derivatives {k5} of the updated state, the next step's first stage, or
#: None where the scheme has no embedded pair, which `step_to` walks only
#: with an explicit micro step.  rk4's estimate is RK4 minus
#: the third-order solution with weights (1/6, 1/3, 1/3, 0, 1/6) on k1..k5
#: (Hairer, Norsett & Wanner, Solving ODEs I, II.4): it meets every order
#: condition up to order 3 and misses sum b a c^2 = 1/12 (it gives 7/72)
SCHEMES = {
    "rk4": ((("_t", None), ("_tm", "_half"), ("_tm", "_half"), ("_t1", "_hs")),
            ("_sixth = _hs / 6.0",),
            "_x{i} + _sixth * ({k1} + 2.0 * ({k2} + {k3}) + {k4})",
            "_sixth * ({k5} - {k4})"),
    "rk2": ((("_t", None), ("_tm", "_half")), (), "_x{i} + _hs * {k2}", None),
}


#: a compiled kernel: it returns the state and the outputs at t_target
_Walk = Callable[..., tuple[list[float], tuple[float, ...]]]


@cache
def _micro_walk(
    scheme: str,
    n: int,
    degrees: tuple[int, ...],
    exprs: tuple[str, ...] | None = None,
    values: tuple[tuple[str, str], ...] = (),
    outputs: tuple[str, ...] | int = 0,
    output_values: tuple[tuple[str, str], ...] = (),
    adaptive: bool = False,
) -> _Walk:
    """The walk of one window by `SCHEMES[scheme]` for n states and inputs
    of the given degrees, compiled once per argument tuple.

    The source is generated, the way `dataclasses` builds `__init__`.  The
    walk advances the grid itself: each step is hs = min(t_target - t, h),
    ending at t1 = t + hs with its midpoint tm = t + half, half = 0.5 * hs,
    these and the scheme's opening lines (sixth) computed per step, and the
    walk stops once t_target - t1 <= h * 1e-9, for the h it is given.  A
    step with t1 == t cannot advance (h at most half an ulp of t) and
    raises ValueError.  Input j, read as the pair (t_ref, coeffs) a
    Polynomial is, keeps its coefficients in the locals _c{j}_0.. and its
    Horner lead _l{j} = 0.0 + c{j}_d, which reads no tau and so is taken
    once per window; it is evaluated at t and at each new stage time by one
    Horner expression, (_l{j}) * tau + c{j}_{d-1} ..., the operations of
    `Polynomial.__call__` in its order; the inputs at t1 are the next
    step's inputs at t.  The state lives in the locals _x0.._x{n-1} and
    each stage's derivatives in _k1_0.., _k2_0.., ....  Every expression,
    and the order it is evaluated in, is the textbook step's: for "rk4" the
    stage state x[i] + half * k1[i], then + half * k2[i], then + hs * k3[i],
    and the step x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]); for
    the midpoint rule "rk2" x[i] + half * k1[i], then x[i] + hs * k2[i].

    Every walk has one skeleton, first-same-as-last (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4).  Stage 1 is evaluated before the loop.
    A step writes its new state to the state of the stage after the
    scheme's last, _s5_0.. for "rk4", and one that lands on the target
    moves it to _x0.. and stops.  Any other evaluates that stage at t1,
    k5; a step taken makes its state, t1, the inputs and values at t1 and
    k5 the next step's start and stage 1.  So f is evaluated four times per
    attempted step for "rk4" and twice for "rk2", the first stage before
    the walk standing in for the last step's k5.  Without adaptive, h is
    the step and every step is taken.  With adaptive, h is the floor h_min
    and the walk's step starts there; before a step is taken its error
    err = max_i |E_i| / (MICRO_ATOL + MICRO_RTOL * max(|x_i|, |x1_i|)) is
    computed, E the scheme's estimate (the norm spelled without calls).
    The step is taken when err <= 1 or h is h_min, and h then grows by
    0.9 err^(-1/4), at most 5, clamped to [h_min, _hmax].  Otherwise it is
    retried from the same start with h shrunk by 0.9 err^(-1/4), at least
    0.2, not below h_min.

    With exprs None, each stage calls f with its state as a list display
    and its inputs as a tuple, so a micro step builds no list but f's
    arguments, and a stage whose f returns the wrong number of derivatives
    raises ContractViolation.  With the expressions and named values of a
    `Derivatives`, the walk evaluates them in place of the calls.  It loads
    the constants they read into locals on entry and evaluates the values
    that read only constants once.  It evaluates those that read t or an
    input but no state with the inputs, and carries those at t1 to the next
    step's stage 1: twice per micro step plus once per window.  A scheme
    whose last stage is not at t1 evaluates them there for the stage after
    its last.  Each stage renames t, x{i}, u{j} and the values in the text
    to its own time, state (_x{i}, then _s2_{i}, _s3_{i}, ...), inputs and
    values, and evaluates those that read a state.  A derivative whose
    text is a bare name is read in place under that name, not copied.
    Every local but the constants and the values that read only constants
    starts with an underscore, which no constant or value may.

    The walk closes by `_closing` with g's outputs, a declared g's
    expressions or a callable g's count: a state, then an output at
    t_target, that is not finite raises DivergenceError at t_start.  The
    walk returns the state and the outputs.
    """

    def indented(lines: list[str]) -> list[str]:
        return [f"    {line}" for line in lines]

    stages, opening, update, error = SCHEMES[scheme]
    fsal = len(stages) + 1  # the stage at t1 from the updated state
    plan = None if exprs is None else _plan(exprs, values)
    used = range(len(degrees)) if plan is None else plan.inputs

    def at(t: str) -> list[str]:
        """The inputs and the values named per stage time at time t."""
        tag = _TAGS[t]
        lines = [line for j in used
                 for line in _input_at(degrees, j, t, f"_u{tag}{j}")]
        if plan is None:
            return lines + [f"_u{tag} = ({''.join(f'_u{tag}{j}, ' for j in used)})"]
        return lines + plan.lines(_TIME, renames(t))

    def renames(t: str, s: int = 1) -> dict[str, str]:
        """The names the declaration reads, as stage s at time t names them."""
        tag = _TAGS[t]
        rename = {"t": t}
        rename.update(
            (f"x{i}", f"_x{i}" if s == 1 else f"_s{s}_{i}") for i in range(n)
        )
        rename.update((f"u{j}", f"_u{tag}{j}") for j in used)
        rename.update((name, f"_g{tag}_{name}") for name, _ in plan.defs[_TIME])
        rename.update((name, f"_q{s}_{name}") for name, _ in plan.defs[_STATE])
        return rename

    #: per stage, the name each derivative is read by
    ks: dict[int, list[str]] = {}

    def stage(s: int) -> list[str]:
        """Stage s's inputs and values, if its time is new, then its state
        and its derivatives, each read in place when its text is a bare
        name and copied to _k{s}_{i} otherwise."""
        t, step = stages[s - 1] if s < fsal else ("_t1", None)
        ks[s] = [f"_k{s}_{i}" for i in range(n)]
        if plan is None:
            own = f"_s{s}_{{0}}" if s > 1 else "_x{0}"
            if step is not None:
                own = f"_x{{0}} + {step} * _k{s - 1}_{{0}}"
            states = _each(own, n)
            lines = [
                f"_k = _f({t}, [{states}], _u{_TAGS[t]})",
                "try:",
                f"    [{_each(f'_k{s}_{{0}}', n)}] = _k",
                "except ValueError:",
                f"    raise _arity_error(_label, _k, {n}) from None",
            ]
        else:
            rename = renames(t, s)
            lines = [
                f"_s{s}_{i} = _x{i} + {step} * {ks[s - 1][i]}"
                for i in plan.states if step is not None
            ]
            lines += plan.lines(_STATE, rename)
            for i, text in enumerate(renamed(e, rename) for e in exprs):
                if text.isidentifier():
                    ks[s][i] = text
                else:
                    lines.append(f"{ks[s][i]} = {text}")
        fresh = at(t) if s > 1 and t != stages[s - 2][0] else []
        return fresh + lines

    #: the inputs and values at t1, and what the next step reads them as
    carried = {"_ue": "_ui"} if plan is None else {
        **{f"_ue{j}": f"_ui{j}" for j in used},
        **{f"_ge_{name}": f"_gi_{name}" for name, _ in plan.defs[_TIME]},
    }
    first = stage(1)
    steps = [line for s in range(2, len(stages) + 1) for line in stage(s)]
    new = f"_s{fsal}_"
    steps += [
        f"{new}{i} = " + update.format(i=i, **{f"k{s}": k[i] for s, k in ks.items()})
        for i in range(n)
    ]
    moves = [f"_x{i} = {new}{i}" for i in range(n)]
    steps += ["if _t_target - _t1 <= _guard:", *indented(moves), "    break"]
    steps += stage(fsal)
    # the updated state's derivatives are the next step's first stage once
    # the step is taken, when what stage t1 reads moves to t
    moved = {"_t1": "_t", **carried, **{f"{new}{i}": f"_x{i}" for i in range(n)}}
    advance = moves + ["_t = _t1"]
    advance += [f"{now} = {then}" for then, now in carried.items()]
    advance += [
        f"{k1} = {k}" for k1, k in zip(ks[1], ks[fsal]) if moved.get(k, k) != k1
    ]
    if not adaptive:
        steps += advance
    else:
        # err = max_i |E_i| / (MICRO_ATOL + MICRO_RTOL * max(|x_i|, |x1_i|)),
        # spelled without calls; a NaN never raises it, and its state fails
        # the finite check at the end
        steps.append("_err = 0.0")
        for i in range(n):
            steps += [
                f"_a = _x{i} if _x{i} > 0.0 else -_x{i}",
                f"_b = {new}{i} if {new}{i} > 0.0 else -{new}{i}",
                "_e = " + error.format(k4=ks[fsal - 1][i], k5=ks[fsal][i]),
                f"_e = (_e if _e > 0.0 else -_e) / "
                f"({MICRO_ATOL!r} + {MICRO_RTOL!r} * (_a if _a > _b else _b))",
                "if _e > _err:",
                "    _err = _e",
            ]
        # the step factor 0.9 * err ** -0.25, at most 5 after an accepted
        # step and at least 0.2 before a retry
        accept = advance + [
            f"_h *= 0.9 * _err ** -0.25 if _err > {(0.9 / 5.0) ** 4!r} else 5.0",
            "if _h > _hmax:", "    _h = _hmax", "elif _h < _hmin:", "    _h = _hmin"]
        retry = [f"_h *= 0.9 * _err ** -0.25 if _err < {(0.9 / 0.2) ** 4!r} else 0.2",
                 "if _h < _hmin:", "    _h = _hmin"]
        steps += ["if _err <= 1.0 or _h <= _hmin:", *indented(accept),
                  "else:", *indented(retry)]
    walk = ["_hmin = _h"] * adaptive + first + ["while True:"] + indented(
        ["_hs = _t_target - _t", "if _hs > _h:", "    _hs = _h", "_half = 0.5 * _hs",
         *opening, "_t1 = _t + _hs", "if _t1 == _t:",
         "    raise _stalled(_label, _hs, _t)", "_tm = _t + _half"] + steps
    )
    lines = _opening(n, degrees)
    if plan is not None:
        lines += ["_env = _f.namespace"]
        lines += [f"{name} = _env[{name!r}]" for name in plan.constants]
        lines += plan.lines(_WINDOW, renames("_t"))
    lines += ["_guard = _h * 1e-9", "_t = _t_start"] + at("_t") + walk
    inline = "" if exprs is None else " inline"
    control = " adaptive" if adaptive else ""
    return _compiled(f"<{scheme}{control} walk n={n} degrees={degrees}{inline}>",
                     lines + _closing(n, degrees, outputs, output_values))


def _each(fmt: str, count: int) -> str:
    return ", ".join(fmt.format(i) for i in range(count))


def _input_at(degrees: tuple[int, ...], j: int, t: str, name: str) -> list[str]:
    """name = input j at time t, by Horner from the window's lead _l{j}."""
    d = degrees[j]
    value = f"_l{j}"
    for i in range(d - 1, -1, -1):
        value = f"({value}) * _tau + _c{j}_{i}"
    return [f"_tau = {t} - _r{j}"] * (d > 0) + [f"{name} = {value}"]


def _opening(n: int, degrees: tuple[int, ...]) -> list[str]:
    """A kernel's first lines: the state into _x0.., and each input into
    its t_ref _r{j}, its coefficients _c{j}_0.. and its lead _l{j}."""
    lines = [f"[{_each('_x{0}', n)}] = _x",
             f"[{_each('_p{0}', len(degrees))}] = _inputs"]
    for j in range(len(degrees)):
        coeffs = ", ".join(f"_c{j}_{i}" for i in range(degrees[j] + 1))
        lines += [f"_r{j}, [{coeffs}] = _p{j}", f"_l{j} = 0.0 + _c{j}_{degrees[j]}"]
    return lines


def _closing(
    n: int,
    degrees: tuple[int, ...],
    outputs: tuple[str, ...] | int,
    output_values: tuple[tuple[str, str], ...],
) -> list[str]:
    """A kernel's last lines, the one place a window's g is evaluated: the
    state's finite check, the outputs at _t_target and theirs.  A callable
    g, given as its output count, is called with the state and the inputs
    as fresh lists (`_outputs`); a declared g, given as its expressions, is
    evaluated inline, its own names as _y_{name}."""
    lines = [
        f"_x = [{_each('_x{0}', n)}]",
        "if not all(map(_isfinite, _x)):",
        "    raise _DivergenceError(_label, _t_start)",
    ]
    called = isinstance(outputs, int)
    out = None if called else _plan(outputs, output_values)
    read = range(len(degrees)) if called else out.inputs
    lines += [line for j in read
              for line in _input_at(degrees, j, "_t_target", f"_v{j}")]
    if called:
        inputs = _each("_v{0}", len(degrees))
        y = f"_outputs(_label, _g(_t_target, _x[:], [{inputs}]), {outputs})"
    else:
        own = [*out.constants, *(name for defs in out.defs for name, _ in defs)]
        rename = {"t": "_t_target", **{name: f"_y_{name}" for name in own}}
        rename.update((f"x{i}", f"_x{i}") for i in range(n))
        rename.update((f"u{j}", f"_v{j}") for j in read)
        lines += ["_env = _g.namespace"]
        lines += [f"_y_{name} = _env[{name!r}]" for name in out.constants]
        lines += [line for level in range(len(out.defs))
                  for line in out.lines(level, rename)]
        y = f"({''.join(renamed(e, rename) + ', ' for e in outputs)})"
    return lines + [
        f"_y = {y}",
        "if not all(map(_isfinite, _y)):",
        "    raise _DivergenceError(_label, _t_start)",
        "return _x, _y",
    ]


def _compiled(name: str, lines: list[str]) -> _Walk:
    """The kernel `walk` whose body is lines, compiled under name."""
    args = "_f, _g, _x, _t_start, _t_target, _h, _hmax, _inputs, _label"
    source = f"def walk({args}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"_arity_error": _arity_error, "_outputs": _outputs,
                 "_stalled": _stalled, "_exp": exp, "_isfinite": isfinite,
                 "_DivergenceError": DivergenceError}
    exec(compile(source, name, "exec"), namespace)
    return namespace["walk"]


@cache
def _lag_walk(
    n: int,
    degrees: tuple[int, ...],
    lags: tuple[Lag, ...],
    outputs: tuple[str, ...] | int = 0,
    output_values: tuple[tuple[str, str], ...] = (),
) -> _Walk:
    """The closed-form step of one window for n states that are each a
    first-order lag x{i}' = (u{j} - x{i}) / T, `lags` naming j and T for
    every i, compiled once per argument tuple.

    With the input u{j} = c0 + c1 tau + ... + cd tau^d, tau = t - t_ref, the
    particular solution p = u - T u' + T^2 u'' - T^3 u''' is the polynomial
    whose coefficient k is the sum over q of (-T)^q (k + q)! / k! c{k+q},
    those factors written into the source as numbers, and
    x{i}(t1) = p(t1) + exp(-(t1 - t0) / T) (x{i}(t0) - p(t0)), each p one
    Horner expression in tau: straight-line code, one exp per distinct T.
    Its rounding is that of p's largest term, about 1e-16 of
    max_q |T^q q! c_q|: below the input's own size while T is shorter than
    the time the input takes to change by that size, and growing as the
    power q of T over that time where it is longer.
    The kernel takes the arguments of `_micro_walk`'s, reads neither f nor
    a micro step, and closes as they do (`_closing`): the state's finite
    check, then g at t_target, callable or declared.
    """
    factor = {tau: f"_e{k}" for k, tau in enumerate(sorted({tau for *_, tau in lags}))}
    lines = _opening(n, degrees) + ["_w = _t_start - _t_target"]
    lines += [f"{e} = _exp(_w / {tau!r})" for tau, e in factor.items()]
    for i, j, tau in sorted(lags):
        d = degrees[j]
        for k in range(d + 1):
            terms = [f"_c{j}_{k}"] + [
                f"{(-tau) ** q * factorial(k + q) / factorial(k)!r} * _c{j}_{k + q}"
                for q in range(1, d - k + 1)
            ]
            lines.append(f"_a{k} = {' + '.join(terms)}")
        p = f"_a{d}"
        for k in range(d - 1, -1, -1):
            p = f"({p}) * _tau + _a{k}"
        lines += [f"_tau = _t_start - _r{j}", f"_z = {p}", f"_tau = _t_target - _r{j}",
                  f"_x{i} = {p} + {factor[tau]} * (_x{i} - _z)"]
    return _compiled(f"<lag walk n={n} degrees={degrees}>",
                     lines + _closing(n, degrees, outputs, output_values))


def micro_steps(spec: SubsystemSpec, window: float) -> tuple[float, float]:
    """step_to's micro-step floor and ceiling over a window of length
    `window`, for a walk under error control."""
    h_max = min(window, spec.max_micro_step or window)
    return min(window / MICRO_DIVISOR, h_max), h_max


def step_to(
    spec: SubsystemSpec,
    state: Sequence[float],
    inputs: Sequence[Polynomial],
    t_start: float,
    t_target: float,
    micro_step: float | None = None,
    scheme: str = "rk4",
) -> tuple[list[float], tuple[float, ...]]:
    """Advance one subsystem from t_start to t_target, no rollback.

    Returns the new state and the outputs evaluated exactly at t_target.
    An input of degree above spec.max_input_degree is a ContractViolation.
    A window is stepped by one of three rules.  Where spec.lags declares
    every state a lag and no `micro_step` is given, it is one closed-form
    step: `_lag_walk` compiled for the lags and the common input degree
    (padded as below), bound in `spec.kernels` under (LAG, degree, False).
    It makes the checks below, reads neither f nor a scheme and evaluates g
    as the walk does.  Otherwise an unknown scheme is a ValueError naming
    it.  An explicit `micro_step` walks fixed steps of micro_step, and any
    other window walks under the scheme's error control from the floor
    h_min = min(W / MICRO_DIVISOR, spec.max_micro_step) up to the ceiling
    h_max = min(W, spec.max_micro_step), W = t_target - t_start
    (`micro_steps`); a scheme with no error estimate ("rk2") there is a
    ValueError.

    A walked window is walked by the kernel `_micro_walk` compiled for the
    scheme ("rk4" unless given), spec.n_states, the control and, for each
    input, the highest degree among them, bound in `spec.kernels` under
    (scheme, degree, control) on first use.  After the capability check, a
    window where an input's tau = t - t_ref is not finite at t_start or
    t_target is a ValueError naming the input.  Where the degrees differ,
    each input's lead c_d is written c_d + 0.0 and, below the highest
    degree, led by 0.0 coefficients: with tau finite, each padded step
    (+0.0) * tau + 0.0 is +0.0, and (+-0.0) * tau + (c_d + 0.0) is the lead
    0.0 + c_d of the exact kernel, so the window walks to the same floats
    for tau of either sign.  The kernel walks steps from t_start, the last
    one shortened to land on t_target, each input evaluated once per stage
    time (step boundaries and midpoints) as the walk goes.
    A callable f is called once per stage, four times per micro step
    attempted for "rk4" and twice for "rk2" (one of them the stage at the
    step's end, which the next step starts from), with the stage's state
    as a list and its inputs as a tuple, and every call's derivative count
    is checked; the kernel evaluates a `Derivatives` f inline, and any g
    at t_target (`_closing`), each input there the floats of p(t_target),
    and step_to returns what it returns.  The walk keeps no list that
    grows with the number of micro steps.
    """
    if t_target <= t_start:
        raise ValueError(
            f"{spec.label}: macro step must advance time "
            f"({t_start!r} -> {t_target!r})"
        )
    if len(inputs) != spec.n_in:
        raise ContractViolation(
            f"{spec.label}: got {len(inputs)} input polynomials, "
            f"expected {spec.n_in}"
        )
    if len(state) != spec.n_states:
        raise ContractViolation(
            f"{spec.label}: got {len(state)} states, expected {spec.n_states}"
        )
    # one pass: over-degree is refused at once, tau not finite after it
    degree, uneven, far = 0, False, None
    for i, (t_ref, cs) in enumerate(inputs):
        d = len(cs) - 1
        if d > spec.max_input_degree:
            raise ContractViolation(
                f"{spec.label}: input {i} has degree {d}, "
                f"capability allows {spec.max_input_degree}"
            )
        if d != degree:
            uneven = uneven or i > 0
            degree = d if d > degree else degree
        if far is None and not (
                isfinite(t_start - t_ref) and isfinite(t_target - t_ref)):
            far = i
    if far is not None:
        raise ValueError(
            f"{spec.label}: input {far} has t - t_ref not finite over "
            f"[{t_start!r}, {t_target!r}] (t_ref = {inputs[far][0]!r})"
        )
    walked = inputs
    if uneven:
        # the lower degrees led by 0.0 coefficients (see above)
        walked = [(t_ref, (*cs[:-1], cs[-1] + 0.0) + (0.0,) * (degree + 1 - len(cs)))
                  for t_ref, cs in inputs]

    if micro_step is None and len(spec.lags) == spec.n_states > 0:
        h = h_max = None
        key = (LAG, degree, False)
    else:
        if scheme not in SCHEMES:
            raise ValueError(f"{spec.label}: unknown micro-walk scheme {scheme!r}")
        h = h_max = micro_step
        adaptive = h is None
        if adaptive:
            if SCHEMES[scheme][3] is None:
                raise ValueError(
                    f"{spec.label}: scheme {scheme!r} has no error estimate, "
                    "so it walks only with an explicit micro_step"
                )
            h, h_max = micro_steps(spec, t_target - t_start)
        if not (isfinite(h) and h > 0):
            raise ValueError(
                f"{spec.label}: micro step must be finite and positive, got {h!r}"
            )
        key = (scheme, degree, adaptive)

    f, g = spec.f, spec.g
    walk = spec.kernels.get(key)
    if walk is None:
        degrees = (degree,) * len(inputs)
        outputs = (g.exprs, g.values) if isinstance(g, Derivatives) else (spec.n_out,)
        if key[0] == LAG:
            walk = _lag_walk(spec.n_states, degrees, spec.lags, *outputs)
        else:
            declared = (f.exprs, f.values) if isinstance(f, Derivatives) else (None, ())
            walk = _micro_walk(scheme, spec.n_states, degrees, *declared, *outputs,
                               adaptive=adaptive)
        spec.kernels[key] = walk
    return walk(f, g, state, t_start, t_target, h, h_max, walked, spec.label)


def evaluate_outputs(
    spec: SubsystemSpec,
    state: Sequence[float],
    inputs_at_t: Sequence[float],
    t: float,
) -> tuple[float, ...]:
    """g at time t outside any window; a window's kernel evaluates its own."""
    return _outputs(spec.label, spec.g(t, list(state), list(inputs_at_t)), spec.n_out)
