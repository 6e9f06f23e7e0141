import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits.coupling import SampleHistory
from f3ornits.orders import estimate_output, select_order
from f3ornits.poly import (
    CalibrationPoints,
    Polynomial,
    fit_constrained_least_squares,
    fit_extrapolation,
)


def history_of(*samples):
    h = SampleHistory()
    for t, v in samples:
        h.push(t, v)
    return h


# ------------------------------------------------------------ admissibility

def test_admissible_range_grows_then_caps():
    samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 0.5), (3.0, 4.0)]
    for n, expected in ((1, [0]), (2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2])):
        # four past samples stay capped at the method's highest order
        d = select_order(history_of(*samples[:n]), 5.0, 1.0)
        assert list(d.candidate_errors) == expected
    with pytest.raises(ValueError):
        select_order(SampleHistory(), 1.0, 1.0)


def test_single_history_point_gives_order_zero():
    h = history_of((0.0, 5.0))
    d = select_order(h, 1.0, 123.0)
    assert d.order == 0
    assert set(d.candidate_errors) == {0}
    assert d.candidate_errors[0] == pytest.approx(118.0)


# ------------------------------------------------------------- frozen oracle

def test_quadratic_signal_selects_order_two():
    # y = t^2 sampled at t = 0, 1, 2 with the new sample (3, 9):
    #   order 0 predicts 4        -> error 5
    #   order 1 predicts 4+3 = 7  -> error 2
    #   order 2 predicts 9        -> error 0
    h = history_of((0.0, 0.0), (1.0, 1.0), (2.0, 4.0))
    d = select_order(h, 3.0, 9.0)
    assert d.order == 2
    assert d.candidate_errors[0] == pytest.approx(5.0)
    assert d.candidate_errors[1] == pytest.approx(2.0)
    assert d.candidate_errors[2] == pytest.approx(0.0, abs=1e-12)


def test_tie_breaks_toward_smallest_order():
    # constant signal: every candidate predicts the same value, all errors 0
    h = history_of((0.0, 2.0), (1.0, 2.0), (2.0, 2.0))
    d = select_order(h, 3.0, 2.0)
    assert d.order == 0
    assert all(e == pytest.approx(0.0, abs=1e-12) for e in d.candidate_errors.values())


def test_linear_signal_never_prefers_quadratic():
    h = history_of((0.0, 1.0), (1.0, 3.0), (2.0, 5.0))
    d = select_order(h, 3.0, 7.0)
    # orders 1 and 2 are both exact; the tie goes to the lower one
    assert d.order == 1


def test_force_order_clamped():
    h = history_of((0.0, 5.0))
    assert select_order(h, 1.0, 4.0, force=2).order == 0
    h3 = history_of((0.0, 0.0), (1.0, 1.0), (2.0, 4.0))
    assert select_order(h3, 3.0, 9.0, force=0).order == 0
    assert select_order(h3, 3.0, 9.0, force=1).order == 1


@settings(max_examples=100)
@given(
    c0=st.floats(-5, 5),
    c1=st.floats(-5, 5),
    c2=st.floats(-3, 3),
    dt=st.floats(0.1, 2.0),
)
def test_exact_polynomial_signals_are_matched(c0, c1, c2, dt):
    # if the signal is truly quadratic, the selected order predicts it exactly
    f = lambda t: c0 + c1 * t + c2 * t * t
    h = history_of(*[(i * dt, f(i * dt)) for i in range(3)])
    t_new = 3 * dt
    d = select_order(h, t_new, f(t_new))
    scale = 1.0 + max(abs(c0), abs(c1), abs(c2)) * (1 + (3 * dt) ** 2)
    assert d.candidate_errors[d.order] <= 1e-9 * scale


@settings(max_examples=200)
@given(
    n=st.integers(1, 4),
    gaps=st.lists(st.floats(1e-6, 2.0), min_size=4, max_size=4),
    values=st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
    t0=st.sampled_from([0.0, -3.0, 1e6]),
    published_order=st.integers(0, 2),
    force=st.sampled_from([None, 0, 1, 2]),
)
def test_published_candidate_scores_like_its_refit(
    n, gaps, values, t0, published_order, force
):
    # the polynomial extrapolation mode published at the last exchange is
    # the fit select_order would repeat: reusing it moves no score
    times = [t0]
    for g in gaps:
        times.append(times[-1] + g * max(1.0, abs(times[-1])))
    h = history_of(*zip(times[:n], values[:n]))
    q = min(published_order, n - 1, 2)
    published = fit_extrapolation(CalibrationPoints(*h.newest(q + 1)))
    t_new, y_new = times[n], values[n]
    refit = select_order(h, t_new, y_new, force=force)
    reused = select_order(h, t_new, y_new, force=force, published=published)
    assert reused.order == refit.order
    assert reused.candidate_errors == refit.candidate_errors
    assert [e.hex() for e in reused.candidate_errors.values()] == [
        e.hex() for e in refit.candidate_errors.values()
    ]


# ---------------------------------------------------------- estimated output

def test_extrapolation_estimate_reads_through_newest():
    h = history_of((0.0, 0.0), (1.0, 1.0), (2.0, 4.0), (3.0, 9.0))
    d = select_order(h, 3.0, 9.0)  # wrong usage in spirit, but deterministic
    est = estimate_output(h, d, "extrapolation")
    assert est.t_ref == 3.0
    assert est(3.0) == pytest.approx(9.0, abs=1e-12)


def test_estimate_mode_and_order_recorded():
    h = history_of((0.0, 1.0), (0.5, 1.2), (1.0, 1.5))
    d = select_order(h, 1.0, 1.5)
    # history already holds the newest sample here
    est_ex = estimate_output(h, d, "extrapolation")
    est_cls = estimate_output(h, d, "cls")
    # each mode is its own fit over its own number of newest samples
    assert est_ex == fit_extrapolation(CalibrationPoints(*h.newest(d.order + 1)))
    assert est_cls == fit_constrained_least_squares(
        CalibrationPoints(*h.newest(d.order + 2))
    )
    # the published degree is the decided order
    assert est_ex.degree == est_cls.degree == d.order
    # both estimates are exact at the newest exchanged sample
    assert est_ex(1.0) == pytest.approx(1.5, abs=1e-12)
    assert est_cls(1.0) == pytest.approx(1.5, abs=1e-12)


def test_cls_estimate_uses_one_more_point():
    # order-0 cls over the last two samples constrained at the newest is the
    # newest value itself
    h = history_of((0.0, 3.0), (1.0, 7.0))
    d = select_order(h, 1.0, 7.0)
    d0 = type(d)(order=0, candidate_errors=d.candidate_errors)
    est = estimate_output(h, d0, "cls")
    assert est.degree == 0
    assert est(99.0) == 7.0


def test_cls_falls_back_when_history_too_short():
    h = history_of((0.0, 3.0))
    d = select_order(h, 0.5, 3.5, force=0)
    est = estimate_output(h, d, "cls")  # needs 2 points, has 1
    assert est == Polynomial(0.0, (3.0,))  # extrapolation through one point


def test_estimate_rejects_unknown_mode():
    h = history_of((0.0, 3.0))
    d = select_order(h, 1.0, 3.0)
    with pytest.raises(ValueError):
        estimate_output(h, d, "spline")


def test_one_step_delay_contract():
    # the decision made with the sample at t_new governs the window that
    # starts at t_new: the polynomial published then starts there, with the
    # decided order as its degree
    h = history_of((0.0, 0.0), (0.4, 0.2))
    d = select_order(h, 0.9, 0.5)
    h.push(0.9, 0.5)
    est = estimate_output(h, d)
    assert est.t_ref == 0.9
    assert est.degree == d.order
