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

In extrapolation mode the polynomial published at one exchange is reused as
a candidate at the next.  It is `fit_extrapolation` of the newest degree + 1
samples, and nothing is pushed to the history between publishing it and the
next `select_order`, so the candidate of that degree would be the same fit of
the same samples: the same bits, without the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coupling import SampleHistory
from .poly import (
    CalibrationPoints,
    Polynomial,
    fit_constrained_least_squares,
    fit_extrapolation,
)
from .subsystem import MAX_ORDER

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
    published: Polynomial | None = None,
) -> OrderDecision:
    """Score each admissible order against the fresh sample and pick the best.

    The admissible orders are 0 up to one less than the number of past
    samples, capped at MAX_ORDER.  Candidate q is calibrated on the q+1 most
    recent history samples (the new one excluded) and judged by
    |y_new - prediction(t_new)|.  Ties break toward the smallest order.
    `force` overrides the choice (clamped to the admissible range) while
    still reporting the scores.

    `published`, if given, must be `fit_extrapolation` of the newest
    degree + 1 samples of this history, as extrapolation mode publishes it;
    it is then the candidate of its degree, and that fit is not repeated.
    Refitting the same samples gives the same polynomial, so the scores are
    the same bits either way.
    """
    if len(history) < 1:
        raise ValueError("order selection needs at least one past sample")
    errors: dict[int, float] = {}
    best_q = 0
    best_err = None
    for q in range(min(MAX_ORDER, len(history) - 1) + 1):
        if published is not None and q == published.degree:
            p = published
        else:
            times, values = history.newest(q + 1)
            p = fit_extrapolation(CalibrationPoints(times, values))
        err = abs(y_new - p(t_new))
        errors[q] = err
        if best_err is None or err < best_err:
            best_q, best_err = q, err
    if force is not None:
        best_q = min(max(force, 0), max(errors))
    return OrderDecision(order=best_q, candidate_errors=errors)


def estimate_output(
    history: SampleHistory,
    decision: OrderDecision,
    mode: str = "extrapolation",
) -> Polynomial:
    """Calibrate the polynomial consumers will read until the next exchange.

    The history must already contain the newest sample.  Extrapolation mode
    interpolates the q+1 most recent samples; cls mode fits the q+2 most
    recent, exact at the newest.  If the history is too short for cls (only
    possible when callers drive this directly with a stale decision) it falls
    back to extrapolation at the same order.
    """
    if mode not in CALIBRATION_MODES:
        raise ValueError(f"unknown calibration mode {mode!r}")
    q = decision.order
    if mode == "cls" and len(history) >= q + 2:
        times, values = history.newest(q + 2)
        return fit_constrained_least_squares(CalibrationPoints(times, values))
    times, values = history.newest(q + 1)
    return fit_extrapolation(CalibrationPoints(times, values))
