"""Per-output polynomial order selection and estimated-output calibration.

After a macro step delivers a fresh output sample, every candidate order q is
scored by how well an exact extrapolation through the q+1 previous samples
would have predicted the new one.  The winning order is then used to
calibrate the polynomial consumers will read on the *next* window (one-step
delay), either as a plain extrapolation or as a least-squares fit constrained
at the newest sample.  The returned polynomial is a global extension: it can
be evaluated anywhere, which is what allows asynchronous consumers to overrun
and the step controller to measure prediction errors.

A published polynomial carries its own bookkeeping: its `t_ref` is the
publication time (the newest sample's time) and its degree is the order it
was published with.

Scoring reads the candidates off the newest row of the history's Newton
divided-difference table (see SampleHistory): with tau = t_new - t_n,

    p0 = y_n,  p1 = p0 + d1 * tau,  p2 = p1 + d2 * tau * (t_new - t_n-1)

(Stoer & Bulirsch, 2.1-2.2).  A score needs only that one value, so it
costs a multiply-add per order, not a fit whose coefficients are thrown
away and a copy of the history.  Publishing in extrapolation mode reads
the same row, re-expressed in powers of tau = t - t_n with h = t_n - t_n-1,

    p = y_n + d1 * tau + d2 * tau * (tau + h)
      = y_n + (d1 + d2 * h) * tau + d2 * tau**2,

so p(t_n) is y_n exactly; `SampleHistory.push` is the only code computing d1 and d2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coupling import SampleHistory
from .errors import CalibrationError, SequencingError
from .poly import MAX_ORDER, Polynomial, fit_constrained_least_squares

CALIBRATION_MODES = ("extrapolation", "cls")


@dataclass(frozen=True)
class OrderDecision:
    """Chosen order for the upcoming window plus the per-candidate scores."""

    order: int
    candidate_errors: dict[int, float]


def select_order(
    history: SampleHistory,
    t_new: float,
    y_new: float,
    force: int | None = None,
) -> OrderDecision:
    """Score each admissible order against the fresh sample and pick the best.

    The admissible orders are 0 up to one less than the number of past
    samples, capped at MAX_ORDER, the depth of the history's table.
    Candidate q, the interpolant through the q+1 most recent history
    samples (the new one excluded), is read from that table in Newton form
    and judged by |y_new - prediction(t_new)|.  Ties break toward the
    smallest order.  `force` overrides the choice (clamped to the
    admissible range) while still reporting the scores.
    """
    times = history.times
    n = len(times)
    if n < 1:
        raise ValueError("order selection needs at least one past sample")
    tau = t_new - times[-1]
    p = history.values[-1]
    errors = {0: abs(y_new - p)}
    if n > 1:
        p += history.d1 * tau
        errors[1] = abs(y_new - p)
        if n > 2:
            p += history.d2 * tau * (t_new - times[-2])
            errors[2] = abs(y_new - p)
    best_q = min(errors, key=errors.__getitem__)
    if force is not None:
        best_q = min(max(force, 0), max(errors))
    return OrderDecision(order=best_q, candidate_errors=errors)


def fit_extrapolation(history: SampleHistory, q: int) -> Polynomial:
    """The interpolant through the q + 1 newest samples, read off the
    history's divided-difference row in the form above.  An order outside
    0..MAX_ORDER is a CalibrationError, and a history holding fewer than
    q + 1 samples a SequencingError."""
    if not 0 <= q <= MAX_ORDER:
        raise CalibrationError(f"extrapolation takes orders 0..{MAX_ORDER}, got {q}")
    times = history.times
    if len(times) <= q:
        raise SequencingError(f"order {q} needs {q + 1} samples, got {len(times)}")
    t_n, y_n = times[-1], history.values[-1]
    if q == 0:
        return Polynomial(t_n, (y_n,))
    if q == 1:
        return Polynomial(t_n, (y_n, history.d1))
    d2 = history.d2
    return Polynomial(t_n, (y_n, history.d1 + d2 * (t_n - times[-2]), d2))


def estimate_output(
    history: SampleHistory,
    decision: OrderDecision,
    mode: str = "extrapolation",
) -> Polynomial:
    """Calibrate the polynomial consumers will read until the next exchange.

    The history must already contain the newest sample.  Extrapolation mode
    interpolates the q+1 most recent samples; cls mode fits the q+2 most
    recent, exact at the newest.  A decision from `select_order` on the
    history before that push leaves q+2 samples; a history too short for
    the decided order is a SequencingError.
    """
    if mode not in CALIBRATION_MODES:
        raise ValueError(f"unknown calibration mode {mode!r}")
    q = decision.order
    if mode == "cls":
        return fit_constrained_least_squares(*history.newest(q + 2))
    return fit_extrapolation(history, q)
