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
f receives each stage's state as a fresh list and its inputs as a read-only
tuple.
There is no rollback: a completed macro step is final.  `step_to` returns
the new state and the output tuple y at the target time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
    f: Callable[[float, list[float], Sequence[float]], list[float]]
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


def _arity_error(label: str, k: Sequence[float], n: int) -> ContractViolation:
    return ContractViolation(
        f"{label}: f returned {len(k)} derivatives, expected {n}"
    )


def _stalled(label: str, hs: float, t: float) -> ValueError:
    return ValueError(f"{label}: micro step {hs!r} does not advance t = {t!r}")


@cache
def _rk4_walk(n: int, degrees: tuple[int, ...]) -> Callable[..., list[float]]:
    """The micro walk for n states and inputs of the given degrees, compiled
    once per (n, degrees).

    The source is generated, the way `dataclasses` builds `__init__`.  The
    walk advances the grid itself: each step is hs = min(t_target - t, h),
    ending at t1 = t + hs with its midpoint tm = t + 0.5 * hs, and the walk
    stops once t_target - t1 <= h * 1e-9.  A step with t1 == t cannot
    advance (h at most half an ulp of t) and raises ValueError.  Input j's
    coefficients live in the locals c{j}_0.., and it is evaluated at tm and
    t1 by inline Horner, a = 0.0 * tau + c{j}_d, then a = a * tau + c{j}_k,
    the operations of `Polynomial.__call__` in its order; the inputs at t1
    are the next step's inputs at t.  The state lives in the locals
    x0..x{n-1}, each stage's derivatives are unpacked into k1_0.., k2_0..,
    ..., and each stage state is a list display, so a micro step builds no
    list but f's arguments.  Every expression, and the order it is
    evaluated in, is the textbook walk's: the stage state
    x[i] + half * k1[i], then + half * k2[i], then + hs * k3[i], and the
    step x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]).
    A stage whose f returns the wrong number of derivatives raises
    ContractViolation.
    """

    def each(fmt: str, count: int = n) -> str:
        return ", ".join(fmt.format(i) for i in range(count))

    def stage(t: str, state: str, u: str, k: str) -> str:
        return (
            f"        k = f({t}, [{state}], {u})\n"
            "        try:\n"
            f"            [{each(k + '_{0}')}] = k\n"
            "        except ValueError:\n"
            f"            raise _arity_error(label, k, {n}) from None\n"
        )

    row = "(" + "".join(f"a{j}, " for j in range(len(degrees))) + ")"

    def inputs_at(t: str, u: str, indent: str) -> str:
        lines = []
        for j, d in enumerate(degrees):
            lines.append(f"tau = {t} - r{j}")
            lines.append(f"a{j} = 0.0 * tau + c{j}_{d}")
            lines += [f"a{j} = a{j} * tau + c{j}_{k}" for k in range(d - 1, -1, -1)]
        lines.append(f"{u} = {row}")
        return "".join(f"{indent}{line}\n" for line in lines)

    source = (
        "def walk(f, x, t, t_target, h, inputs, label):\n"
        f"    [{each('x{0}')}] = x\n"
        f"    [{each('p{0}', len(degrees))}] = inputs\n"
        + "".join(
            f"    r{j} = p{j}.t_ref\n"
            f"    [{', '.join(f'c{j}_{k}' for k in range(d + 1))}] = p{j}.coeffs\n"
            for j, d in enumerate(degrees)
        )
        + "    guard = h * 1e-9\n"
        + inputs_at("t", "u0", "    ")
        + "    while True:\n"
        "        hs = t_target - t\n"
        "        if hs > h:\n"
        "            hs = h\n"
        "        t1 = t + hs\n"
        "        if t1 == t:\n"
        "            raise _stalled(label, hs, t)\n"
        "        tm = t + 0.5 * hs\n"
        + inputs_at("tm", "um", "        ")
        + inputs_at("t1", "u1", "        ")
        + stage("t", each("x{0}"), "u0", "k1")
        + "        half = 0.5 * hs\n"
        + stage("tm", each("x{0} + half * k1_{0}"), "um", "k2")
        + stage("tm", each("x{0} + half * k2_{0}"), "um", "k3")
        + stage("t1", each("x{0} + hs * k3_{0}"), "u1", "k4")
        + "        sixth = hs / 6.0\n"
        + "".join(
            f"        x{i} = x{i} + sixth * "
            f"(k1_{i} + 2.0 * (k2_{i} + k3_{i}) + k4_{i})\n"
            for i in range(n)
        )
        + "        if t_target - t1 <= guard:\n"
        "            break\n"
        "        t = t1\n"
        "        u0 = u1\n"
        f"    return [{each('x{0}')}]\n"
    )
    namespace = {"_arity_error": _arity_error, "_stalled": _stalled}
    exec(compile(source, f"<rk4 walk n={n} degrees={degrees}>", "exec"), namespace)
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
    per stage time (step boundaries and midpoints) as the walk goes.  f is
    called exactly four times per micro step, with the stage's state as a
    list and its inputs as a tuple, and every call's derivative count is
    checked.  The walk keeps no list that grows with the number of micro
    steps.
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

    walk = _rk4_walk(spec.n_states, tuple(p.degree for p in inputs))
    x = walk(spec.f, state, t_start, t_target, h, inputs, spec.label)
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
