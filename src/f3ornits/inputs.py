"""Build the input polynomial a consumer integrates over its next window.

Three stages, applied in order:

1. resolve which published producer polynomial covers the window start (the
   latest one published at or before it — asynchronous consumers may
   therefore read an extension past the producer's planned refresh);
2. cap the degree to what the consumer can integrate, by re-fitting a
   constrained least-squares polynomial through samples of the source across
   the window, exact at the window-start value;
3. optionally blend C1-continuously from the polynomial delivered over the
   previous window into the capped plan with a two-point Hermite, so
   consecutive windows chain without value or slope jumps.

Capping happens before smoothing: the blend must honor the consumer's degree
budget, which smoothing itself raises to three.  Whether a consumer smooths
(smoothing on and cubics within its budget) is decided by the caller, once.

A producer's publication log is its list of published polynomials, oldest
first.  Each polynomial's `t_ref` is its publication time and its degree is
the order it was published with, so the log needs no other bookkeeping.
The log is pruned to what its slowest reader can still resolve.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .errors import SequencingError
from .poly import Polynomial, fit_constrained, fit_hermite


@dataclass(frozen=True)
class InputPlan:
    """Final polynomial for one consumer input over one window."""

    poly: Polynomial
    window_start: float
    smoothed: bool


def _newest_at(published: Sequence[Polynomial], t: float) -> int:
    """Index of the newest polynomial published at or before t; -1 if none."""
    return bisect_right(published, t, key=attrgetter("t_ref")) - 1


def resolve_source(published: Sequence[Polynomial], t_start: float) -> Polynomial:
    """The newest published polynomial whose publication time is <= t_start."""
    m = _newest_at(published, t_start)
    if m < 0:
        raise SequencingError(
            f"no published polynomial covers t = {t_start!r} "
            f"(first publication at {published[0].t_ref!r})"
            if published
            else f"no published polynomial covers t = {t_start!r}"
        )
    return published[m]


def prune_published(published: list[Polynomial], t_slowest: float | None) -> None:
    """Drop the polynomials no reader can resolve any more, in place.

    t_slowest is the smallest reached time among the output's readers; None
    means nobody reads it.  Everything older than what resolve_source would
    return at t_slowest goes, so every later resolve at or after t_slowest
    finds the same polynomial.  The newest polynomial always stays.
    """
    m = len(published) - 1 if t_slowest is None else _newest_at(published, t_slowest)
    if m > 0:
        del published[:m]


def cap_degree(
    source: Polynomial,
    max_degree: int,
    window_start: float,
    window_end: float,
) -> Polynomial:
    """Reduce the source to the consumer's degree budget over the window.

    A source already within budget passes through unchanged.  Otherwise the
    source is sampled at max_degree + 2 equispaced times across the window
    and refit by constrained least squares, exact at the window-start value
    so the hand-over point is preserved.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if source.degree <= max_degree:
        return source
    if window_end <= window_start:
        raise SequencingError(
            f"empty capping window [{window_start!r}, {window_end!r}]"
        )
    n = max_degree + 2
    span = window_end - window_start
    times = tuple(window_start + span * i / (n - 1) for i in range(n))
    values = tuple(source(t) for t in times)
    return fit_constrained(times, values, max_degree, 0)


def smooth(
    plan: Polynomial,
    window_start: float,
    window_end: float,
    previous: Polynomial,
) -> Polynomial:
    """Hermite blend from the previously delivered polynomial into this plan.

    The right constraints are the unsmoothed plan's value and slope at the
    window end, so the blended input lands exactly where the plan would have;
    the left constraints are `previous`'s value and slope at the window
    start, where the window it was delivered over ended, giving C1
    continuity with whatever was actually integrated before.
    """
    return fit_hermite(
        window_start,
        window_end,
        previous(window_start),
        plan(window_end),
        previous.derivative()(window_start),
        plan.derivative()(window_end),
    )


def build_plan(
    published: Sequence[Polynomial],
    window_start: float,
    window_end: float,
    max_degree: int,
    smoothing: bool,
    previous: Polynomial | None,
) -> tuple[InputPlan, Polynomial | None]:
    """Assemble one input plan and what the window after it blends from.

    `smoothing` says whether the consumer smooths; `previous` is what this
    function returned for the consumer's previous window, None on the first.
    The plan passes through capped-only when the consumer does not smooth
    or on its first window.  A consumer that smooths gets back the
    polynomial delivered, the next window's `previous`; any other gets None.
    """
    source = resolve_source(published, window_start)
    p = cap_degree(source, max_degree, window_start, window_end)
    smoothed = smoothing and previous is not None
    if smoothed:
        p = smooth(p, window_start, window_end, previous)
    return InputPlan(p, window_start, smoothed), p if smoothing else None
