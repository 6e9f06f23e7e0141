"""Subsystem wrapper: declared capabilities and macro-step integration.

Each subsystem owns an ODE  x' = f(t, x, u(t)),  y = g(t, x, u(t))  and is
advanced one macro step at a time with a fixed-step classical Runge-Kutta 4
micro-integration.  The micro step is the window (t_target - t_start) over
MICRO_DIVISOR, capped by the subsystem's own `max_micro_step` when it
declares one: each model states the bound its own fastest mode needs, so a
slow subsystem does not pay for a stiff neighbour.  Inputs arrive as genuine
polynomials in time and are evaluated continuously at every micro stage,
never sampled-and-held, so the micro error stays far below the coupling
error.  `step_to` walks the window with one micro-walk kernel generated and
compiled per state dimension and tuple of input degrees (`_rk4_walk`): it
advances the micro grid, evaluates every input once per stage time by inline
Horner, and keeps the state, the grid and the coefficients in local
variables, so its memory does not grow with the number of micro steps.
f is either a plain callable, which can be any black box and receives each
stage's state as a fresh list and its inputs as a read-only tuple, or a
`Derivatives`: one expression per state, which the kernel generated for it
evaluates inline, with no call and no list per stage, to the same bits.
There is no rollback: a completed macro step is final.  `step_to` returns
the new state and the output tuple y at the target time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cache, cached_property
from math import isfinite
from typing import Callable, Sequence

from .errors import ConfigError, ContractViolation, DivergenceError
from .poly import MAX_DEGREE, Polynomial

#: highest polynomial order the method itself proposes (inputs and outputs)
MAX_ORDER = 2

#: micro-step rule: min(macro_step / MICRO_DIVISOR, spec.max_micro_step)
MICRO_DIVISOR = 50.0


@dataclass(frozen=True)
class Capabilities:
    """What a simulator can accept from the master.

    max_input_degree is the highest polynomial degree the subsystem can
    integrate on its inputs; smoothing needs the cubics of MAX_DEGREE.  A
    subsystem that cannot vary its communication step declares the step it
    imposes instead; imposed_step None means the step is free.
    """

    max_input_degree: int = MAX_DEGREE
    imposed_step: float | None = None

    def __post_init__(self):
        if self.max_input_degree < 0:
            raise ConfigError("max_input_degree must be >= 0")
        if self.imposed_step is not None and not (
            isfinite(self.imposed_step) and self.imposed_step > 0
        ):
            raise ConfigError(
                f"imposed_step must be finite and positive, got {self.imposed_step!r}"
            )

    @property
    def smoothing_capable(self) -> bool:
        return self.max_input_degree >= MAX_DEGREE


def effective_max_degree(caps: Capabilities) -> int:
    """Order ceiling for un-smoothed input plans: min(method cap, capability)."""
    return min(MAX_ORDER, caps.max_input_degree)


def _bound(name: str) -> bool:
    """Whether a stage binds the name: its time t, a state x{i} or an
    input u{j}."""
    return name == "t" or (name[:1] in ("x", "u") and name[1:].isdecimal())


def _names(exprs: Sequence[str]) -> set[str]:
    """Every name the expressions read."""
    return {
        node.id
        for expr in exprs
        for node in ast.walk(ast.parse(expr, mode="eval"))
        if isinstance(node, ast.Name)
    }


@dataclass(frozen=True)
class Derivatives:
    """x' = f(t, x, u) declared as one Python expression per state.

    exprs[i] is state i's derivative, written in the time t, the states
    x0.., the inputs u0.. and the names of `constants`: (name, value) pairs,
    numbers or helper callables, kept as a tuple so the declaration stays
    hashable.  Called as f(t, x, u), it runs a function compiled from the
    same text on first use; `step_to` instead evaluates the expressions
    inline in its micro walk (`_rk4_walk`), with the same operations and so
    the same bits.  `SubsystemSpec` checks a declaration against its
    arities.
    """

    exprs: tuple[str, ...]
    constants: tuple[tuple[str, object], ...] = ()

    @cached_property
    def namespace(self) -> dict[str, object]:
        return dict(self.constants)

    @cached_property
    def _function(self) -> Callable[..., list[float]]:
        reads = _names(self.exprs)
        source = (
            "def _derivatives(t, _x, _u):\n"
            f"    [{', '.join(f'x{i}' for i in range(len(self.exprs)))}] = _x\n"
            + "".join(
                f"    {name} = _u[{name[1:]}]\n"
                for name in sorted(reads)
                if name[0] == "u" and _bound(name)
            )
            + "    return [" + "".join(f"({e}\n), " for e in self.exprs) + "]\n"
        )
        namespace = dict(self.namespace)
        exec(compile(source, "<derivatives>", "exec"), namespace)
        return namespace["_derivatives"]

    def __call__(
        self, t: float, x: Sequence[float], u: Sequence[float]
    ) -> list[float]:
        return self._function(t, x, u)

    def check(self, label: str, n_states: int, n_in: int) -> None:
        """Raise ConfigError unless every expression is one expression that
        reads only t, x0..x{n_states-1}, u0..u{n_in-1} and the constants."""
        if len(self.exprs) != n_states:
            raise ConfigError(
                f"{label}: {len(self.exprs)} derivative expressions for "
                f"{n_states} states"
            )
        for name, _ in self.constants:
            if _bound(name) or name.startswith("_"):
                raise ConfigError(
                    f"{label}: constant {name!r} would shadow a name of the "
                    "micro walk (t, x0.., u0.. or a leading underscore)"
                )
        known = {"t", *self.namespace}
        known.update(f"x{i}" for i in range(n_states))
        known.update(f"u{j}" for j in range(n_in))
        for i, expr in enumerate(self.exprs):
            try:
                tree = ast.parse(expr, mode="eval")
            except (SyntaxError, ValueError):
                raise ConfigError(
                    f"{label}: derivative {i} is not an expression: {expr!r}"
                ) from None
            for node in ast.walk(tree):
                if not isinstance(node, ast.Name):
                    continue
                name = node.id
                if not isinstance(node.ctx, ast.Load):
                    raise ConfigError(f"{label}: derivative {i} assigns {name!r}")
                if name in known:
                    continue
                if _bound(name):
                    raise ConfigError(
                        f"{label}: derivative {i} reads {name}, out of range "
                        f"for {n_states} states and {n_in} inputs"
                    )
                raise ConfigError(
                    f"{label}: derivative {i} reads unknown name {name!r}"
                )


@dataclass(frozen=True)
class SubsystemSpec:
    """Dynamics f, output map g, initial state, and coupling arities.

    max_micro_step bounds the RK4 micro step for this subsystem's own
    dynamics; None means the divisor rule alone sets it.
    """

    label: str
    n_states: int
    n_in: int
    n_out: int
    f: Derivatives | Callable[[float, list[float], Sequence[float]], list[float]]
    g: Callable[[float, list[float], list[float]], list[float]]
    x_init: tuple[float, ...]
    max_micro_step: float | None = None

    def __post_init__(self):
        if min(self.n_in, self.n_out) < 0:
            raise ConfigError(f"{self.label}: arities must be >= 0")
        if len(self.x_init) != self.n_states:
            raise ConfigError(
                f"{self.label}: x_init has {len(self.x_init)} entries, "
                f"expected {self.n_states}"
            )
        bound = self.max_micro_step
        if bound is not None and not (isfinite(bound) and bound > 0):
            raise ConfigError(
                f"{self.label}: max_micro_step must be finite and positive, "
                f"got {bound!r}"
            )
        if isinstance(self.f, Derivatives):
            self.f.check(self.label, self.n_states, self.n_in)


def _arity_error(label: str, k: Sequence[float], n: int) -> ContractViolation:
    return ContractViolation(
        f"{label}: f returned {len(k)} derivatives, expected {n}"
    )


def _stalled(label: str, hs: float, t: float) -> ValueError:
    return ValueError(f"{label}: micro step {hs!r} does not advance t = {t!r}")


@cache
def _rk4_walk(
    n: int, degrees: tuple[int, ...], exprs: tuple[str, ...] | None = None
) -> Callable[..., list[float]]:
    """The micro walk for n states and inputs of the given degrees, compiled
    once per (n, degrees, exprs).

    The source is generated, the way `dataclasses` builds `__init__`.  The
    walk advances the grid itself: each step is hs = min(t_target - t, h),
    ending at t1 = t + hs with its midpoint tm = t + 0.5 * hs, and the walk
    stops once t_target - t1 <= h * 1e-9.  A step with t1 == t cannot
    advance (h at most half an ulp of t) and raises ValueError.  Input j's
    coefficients live in the locals _c{j}_0.., and it is evaluated at tm and
    t1 by inline Horner, a = 0.0 * tau + c{j}_d, then a = a * tau + c{j}_k,
    the operations of `Polynomial.__call__` in its order; the inputs at t1
    are the next step's inputs at t.  The state lives in the locals
    _x0.._x{n-1} and each stage's derivatives in _k1_0.., _k2_0.., ....
    Every expression, and the order it is evaluated in, is the textbook
    walk's: the stage state x[i] + half * k1[i], then + half * k2[i], then
    + hs * k3[i], and the step x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i])
    + k4[i]).

    With exprs None, each stage calls f with its state as a list display
    and its inputs as a tuple, so a micro step builds no list but f's
    arguments, and a stage whose f returns the wrong number of derivatives
    raises ContractViolation.  With the expressions of a `Derivatives`,
    each stage binds the names they read, t, x0.. and u0.., to its time,
    state and inputs, and evaluates them in place of the call; the
    constants they read are loaded into locals on entry.  Every other local
    starts with an underscore, which no constant may.
    """

    def each(fmt: str, count: int = n) -> str:
        return ", ".join(fmt.format(i) for i in range(count))

    m = len(degrees)
    reads = set() if exprs is None else _names(exprs)

    def inputs_at(t: str, u: str, indent: str) -> str:
        lines = []
        for j, d in enumerate(degrees):
            lines.append(f"_tau = {t} - _r{j}")
            lines.append(f"{u}{j} = 0.0 * _tau + _c{j}_{d}")
            lines += [
                f"{u}{j} = {u}{j} * _tau + _c{j}_{k}" for k in range(d - 1, -1, -1)
            ]
        if exprs is None:
            lines.append(f"{u} = (" + "".join(f"{u}{j}, " for j in range(m)) + ")")
        return "".join(f"{indent}{line}\n" for line in lines)

    def stage(t: str, state: str, u: str, k: str) -> str:
        if exprs is None:
            return (
                f"        _k = _f({t}, [{each(state)}], {u})\n"
                "        try:\n"
                f"            [{each(k + '_{0}')}] = _k\n"
                "        except ValueError:\n"
                f"            raise _arity_error(_label, _k, {n}) from None\n"
            )
        binds = [("t", t)]
        binds += [(f"x{i}", state.format(i)) for i in range(n)]
        binds += [(f"u{j}", f"{u}{j}") for j in range(m)]
        lines = [f"{name} = {value}" for name, value in binds if name in reads]
        lines += [f"{k}_{i} = ({e}\n)" for i, e in enumerate(exprs)]
        return "".join(f"        {line}\n" for line in lines)

    constants = sorted(name for name in reads if not _bound(name))
    source = (
        "def walk(_f, _x, _t, _t_target, _h, _inputs, _label):\n"
        f"    [{each('_x{0}')}] = _x\n"
        f"    [{each('_p{0}', m)}] = _inputs\n"
        + "".join(
            f"    _r{j} = _p{j}.t_ref\n"
            f"    [{', '.join(f'_c{j}_{k}' for k in range(d + 1))}] = _p{j}.coeffs\n"
            for j, d in enumerate(degrees)
        )
        + ("    _env = _f.namespace\n" if constants else "")
        + "".join(f"    {name} = _env[{name!r}]\n" for name in constants)
        + "    _guard = _h * 1e-9\n"
        + inputs_at("_t", "_ui", "    ")
        + "    while True:\n"
        "        _hs = _t_target - _t\n"
        "        if _hs > _h:\n"
        "            _hs = _h\n"
        "        _t1 = _t + _hs\n"
        "        if _t1 == _t:\n"
        "            raise _stalled(_label, _hs, _t)\n"
        "        _tm = _t + 0.5 * _hs\n"
        + inputs_at("_tm", "_um", "        ")
        + inputs_at("_t1", "_ue", "        ")
        + stage("_t", "_x{0}", "_ui", "_k1")
        + "        _half = 0.5 * _hs\n"
        + stage("_tm", "_x{0} + _half * _k1_{0}", "_um", "_k2")
        + stage("_tm", "_x{0} + _half * _k2_{0}", "_um", "_k3")
        + stage("_t1", "_x{0} + _hs * _k3_{0}", "_ue", "_k4")
        + "        _sixth = _hs / 6.0\n"
        + "".join(
            f"        _x{i} = _x{i} + _sixth * "
            f"(_k1_{i} + 2.0 * (_k2_{i} + _k3_{i}) + _k4_{i})\n"
            for i in range(n)
        )
        + "        if _t_target - _t1 <= _guard:\n"
        "            break\n"
        "        _t = _t1\n"
        + (
            "        _ui = _ue\n" if exprs is None
            else "".join(f"        _ui{j} = _ue{j}\n" for j in range(m))
        )
        + f"    return [{each('_x{0}')}]\n"
    )
    namespace = {"_arity_error": _arity_error, "_stalled": _stalled}
    name = f"<rk4 walk n={n} degrees={degrees}{'' if exprs is None else ' inline'}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["walk"]


def step_to(
    spec: SubsystemSpec,
    caps: Capabilities,
    state: Sequence[float],
    inputs: Sequence[Polynomial],
    t_start: float,
    t_target: float,
    micro_step: float | None = None,
) -> tuple[list[float], tuple[float, ...]]:
    """Advance one subsystem from t_start to t_target, no rollback.

    Returns the new state and the outputs evaluated exactly at t_target.
    The micro step is min((t_target - t_start) / MICRO_DIVISOR,
    spec.max_micro_step); an explicit `micro_step` overrides that rule.

    The window is walked by the kernel `_rk4_walk` compiled for
    spec.n_states and the input degrees: steps of h from t_start, the last
    one shortened to land on t_target, each input polynomial evaluated once
    per stage time (step boundaries and midpoints) as the walk goes.  A
    callable f is called exactly four times per micro step, with the
    stage's state as a list and its inputs as a tuple, and every call's
    derivative count is checked; a `Derivatives` f is evaluated inline
    four times per micro step, its count checked when the spec was built.
    The walk keeps no list that grows with the number of micro steps.
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
    for i, p in enumerate(inputs):
        if p.degree > caps.max_input_degree:
            raise ContractViolation(
                f"{spec.label}: input {i} has degree {p.degree}, "
                f"capability allows {caps.max_input_degree}"
            )

    h = micro_step
    if h is None:
        h = (t_target - t_start) / MICRO_DIVISOR
        if spec.max_micro_step is not None:
            h = min(h, spec.max_micro_step)
    if not (isfinite(h) and h > 0):
        raise ValueError(
            f"{spec.label}: micro step must be finite and positive, got {h!r}"
        )

    f = spec.f
    walk = _rk4_walk(
        spec.n_states,
        tuple(p.degree for p in inputs),
        f.exprs if isinstance(f, Derivatives) else None,
    )
    x = walk(f, state, t_start, t_target, h, inputs, spec.label)
    if not all(isfinite(v) for v in x):
        raise DivergenceError(spec.label, t_start)

    y = evaluate_outputs(spec, x, [p(t_target) for p in inputs], t_target)
    if not all(isfinite(v) for v in y):
        raise DivergenceError(spec.label, t_start)
    return x, y


def evaluate_outputs(
    spec: SubsystemSpec,
    state: Sequence[float],
    inputs_at_t: Sequence[float],
    t: float,
) -> tuple[float, ...]:
    """Output map at a given time; the one place g's arity is checked."""
    y = spec.g(t, list(state), list(inputs_at_t))
    if len(y) != spec.n_out:
        raise ContractViolation(
            f"{spec.label}: g returned {len(y)} outputs, expected {spec.n_out}"
        )
    return tuple(y)
