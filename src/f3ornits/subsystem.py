"""Subsystem wrapper: declared capabilities and macro-step integration.

Each subsystem owns an ODE  x' = f(t, x, u(t)),  y = g(t, x, u(t))  and is
advanced one macro step at a time with a fixed-step classical Runge-Kutta 4
micro-integration.  The micro step is the window (t_target - t_start) over
MICRO_DIVISOR, capped by the subsystem's own `max_micro_step` when it
declares one: each model states the bound its own fastest mode needs, so a
slow subsystem does not pay for a stiff neighbour.  Inputs arrive as genuine
polynomials in time and are evaluated continuously at every micro stage,
never sampled-and-held, so the micro error stays far below the coupling
error.  `step_to` first lays out
the window's micro grid and evaluates every input once per stage time, then
walks the grid; f receives each stage's inputs as a fresh read-only tuple.
There is no rollback: a completed macro step is final.  `step_to` returns
the new state and the output tuple y at the target time.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    The micro grid is laid out before the RK4 walk: steps of h from t_start,
    the last one shortened to land on t_target.  Each input polynomial is
    then evaluated once per stage time (step boundaries and midpoints), so
    the inputs at a step's start are the ones its predecessor ended with.
    f is called exactly four times per micro step, with the stage's inputs
    as a tuple.
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

    # the micro grid: step boundaries and sizes, the last step may be short
    edges = [t_start]
    sizes = []
    t = t_start
    guard = h * 1e-9
    while True:
        hs = t_target - t
        if hs > h:
            hs = h
        t += hs
        sizes.append(hs)
        edges.append(t)
        if t_target - t <= guard:
            break
    mids = [t + 0.5 * hs for t, hs in zip(edges, sizes)]

    # the stage inputs: each polynomial once per stage time, one column per
    # input, zipped into one row per stage time (empty rows without inputs)
    edge_cols = [p.at(edges) for p in inputs]
    mid_cols = [p.at(mids) for p in inputs]
    edge_rows = list(zip(*edge_cols)) or [()] * len(edges)
    mid_rows = list(zip(*mid_cols)) or [()] * len(mids)

    f = spec.f
    x = list(state)
    n = spec.n_states
    idx = range(n)
    for t, t1, tm, hs, u0, u1, um in zip(
        edges, edges[1:], mids, sizes, edge_rows, edge_rows[1:], mid_rows
    ):
        k1 = f(t, x, u0)
        if len(k1) != n:
            raise ContractViolation(
                f"{spec.label}: f returned {len(k1)} derivatives, expected {n}"
            )
        half = 0.5 * hs
        xs = [x[i] + half * k1[i] for i in idx]
        k2 = f(tm, xs, um)
        xs = [x[i] + half * k2[i] for i in idx]
        k3 = f(tm, xs, um)
        xs = [x[i] + hs * k3[i] for i in idx]
        k4 = f(t1, xs, u1)
        sixth = hs / 6.0
        x = [
            x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
            for i in idx
        ]

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
