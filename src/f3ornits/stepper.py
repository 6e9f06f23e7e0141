"""Macro step-size control from normalized output prediction errors.

At every exchange the fresh sample of each output is compared with the value
the published polynomial extension predicted for that time.  The residual is
normalized by a scale that depends on the chosen mode:

* magnitude -- the new sample's own magnitude; strict near zero crossings;
* amplitude -- the all-time output span; forgiving once a large transient
  has been seen, even if the signal has long since died down;
* damped    -- an exponentially contracting envelope around recent samples,
  a compromise that forgets old extremes at rate nu.

Each output proposes a growth ratio rho = (1/err)^(1/(p+1)) for the order p
it was published with; the subsystem takes the worst output, clamps rho and
the resulting step, and reports the time it would next like to exchange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    """Error tolerances and step bounds for one run (all configurable)."""

    tol_rel: float = 1e-3
    tol_abs: float = 1e-6
    rho_min: float = 0.10     # growth-ratio window: shrink to 10 %,
    rho_max: float = 1.05     # grow by at most 5 %
    nu: float = 0.05          # damped-envelope contraction rate, 1/s
    dt_min: float = 1e-2
    dt_max: float = 20.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"key {f.name!r}: {value!r} is not finite")
        if self.tol_rel < 0 or self.tol_abs < 0 or self.tol_rel + self.tol_abs == 0:
            raise ConfigError("tolerances must be >= 0 and not both zero")
        if not 0 < self.rho_min <= 1 <= self.rho_max:
            raise ConfigError("need 0 < rho_min <= 1 <= rho_max")
        if self.nu < 0:
            raise ConfigError("nu must be >= 0")
        if not 0 < self.dt_min <= self.dt_max:
            raise ConfigError("need 0 < dt_min <= dt_max")


@dataclass(frozen=True)
class DampedBounds:
    """Per-output envelope state: damped extrema plus the all-time extrema."""

    damp_max: float
    damp_min: float
    alpha: float
    global_max: float
    global_min: float

    @classmethod
    def from_first_sample(cls, y0: float) -> "DampedBounds":
        return cls(
            damp_max=y0, damp_min=y0, alpha=0.0, global_max=y0, global_min=y0
        )


def update_damped_bounds(
    bounds: DampedBounds, y_new: float, dt_prev: float, nu: float
) -> DampedBounds:
    """Contract the envelope over the elapsed step, then absorb the sample.

    Both damped extrema drift toward each other by (nu * dt_prev / 2) * alpha
    before the new sample pushes them back out, so alpha tracks a slowly
    forgotten amplitude.  The new sample is always inside the envelope by
    construction, which keeps damp_max >= damp_min without clipping.
    """
    shrink = 0.5 * nu * dt_prev * bounds.alpha
    damp_max = max(y_new, bounds.damp_max - shrink)
    damp_min = min(y_new, bounds.damp_min + shrink)
    return DampedBounds(
        damp_max=damp_max,
        damp_min=damp_min,
        alpha=damp_max - damp_min,
        global_max=max(bounds.global_max, y_new),
        global_min=min(bounds.global_min, y_new),
    )


ERROR_NORMS = ("magnitude", "amplitude", "damped")


def normalized_error(
    y_new: float,
    y_predicted: float,
    mode: str,
    bounds: DampedBounds,
    tol: Tolerances,
) -> float:
    """|y_new - prediction| over the mode's scale (bounds already updated).

    The caller must fold y_new into `bounds` first; amplitude and damped
    scales include the newest sample.  A vanishing denominator (tol_abs = 0
    and a zero scale) returns +inf, which later forces the sharpest allowed
    step reduction.
    """
    residual = abs(y_new - y_predicted)
    if mode == "magnitude":
        scale = abs(y_new)
    elif mode == "amplitude":
        scale = bounds.global_max - bounds.global_min
    elif mode == "damped":
        scale = bounds.damp_max - bounds.damp_min
    else:
        raise ValueError(f"unknown error norm {mode!r}")
    denom = tol.tol_abs + tol.tol_rel * scale
    if denom <= 0.0:
        return math.inf if residual > 0.0 else 0.0
    return residual / denom


@dataclass(frozen=True)
class StepProposal:
    rho: float
    dt_next: float
    t_next_estimated: float


def propose(
    errors: list[float],
    orders: list[int],
    dt_prev: float,
    t_now: float,
    t_end: float,
    tol: Tolerances,
) -> StepProposal:
    """Worst-output growth ratio, clamped, applied to the previous step.

    errors[j] is the normalized error of output j over the step that just
    ended and orders[j] the polynomial order it was published with.  An
    error of zero lets that output vote for unlimited growth (clamped by
    rho_max); an infinite error votes for rho = 0 (clamped by rho_min).
    """
    if len(errors) != len(orders) or not errors:
        raise ValueError("need matching, non-empty error and order lists")
    if dt_prev <= 0:
        raise ValueError("dt_prev must be positive")
    rho = math.inf
    for err, p in zip(errors, orders):
        if err < 0 or p < 0:
            raise ValueError("errors and orders must be non-negative")
        if err == 0.0:
            r = math.inf
        elif math.isinf(err):
            r = 0.0
        else:
            r = (1.0 / err) ** (1.0 / (p + 1))
        if r < rho:
            rho = r
    rho = min(max(rho, tol.rho_min), tol.rho_max)
    dt_next = min(max(rho * dt_prev, tol.dt_min), tol.dt_max)
    t_next = t_now + dt_next
    # snap to t_end when the leftover would be vanishing float dust
    if t_next > t_end or t_end - t_next < 1e-6 * dt_next:
        t_next = t_end
    return StepProposal(rho=rho, dt_next=dt_next, t_next_estimated=t_next)

