import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits import orders
from f3ornits.coupling import SampleHistory
from f3ornits.errors import CalibrationError, SequencingError
from f3ornits.orders import estimate_output, fit_extrapolation, select_order
from f3ornits.poly import MAX_ORDER, Polynomial, fit_constrained_least_squares


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


def extrapolation_oracle(
    times: tuple[float, ...], values: tuple[float, ...]
) -> Polynomial:
    """Unique polynomial through 1 to MAX_ORDER + 1 samples, oldest first,
    computed from the samples alone: the reference that the published
    extrapolation, read off the history's row, is compared against bit for
    bit.  With tau = t - t_n and h = t_n - t_n-1,

        p = y_n + (d1 + d2 * h) * tau + d2 * tau**2.
    """
    q = len(times)
    if not 1 <= q <= MAX_ORDER + 1:
        raise CalibrationError(
            f"extrapolation takes 1..{MAX_ORDER + 1} points, got {q}"
        )
    t_n, y_n = times[-1], values[-1]
    if q == 1:
        return Polynomial(t_n, (y_n,))
    h = t_n - times[-2]
    d1 = (y_n - values[-2]) / h
    if q == 2:
        return Polynomial(t_n, (y_n, d1))
    d2 = (d1 - (values[1] - values[0]) / (times[1] - times[0])) / (t_n - times[0])
    return Polynomial(t_n, (y_n, d1 + d2 * h, d2))


#: one unit of roundoff in a double
_EPS = 2.0 ** -52


def _fit_score_and_bound(history, q, t_new, y_new):
    """Candidate q's score from the extrapolation oracle, and how far roundoff
    lets the table's score of the same samples lie from it.

    The fit is the table's row in powers of t - t_n, evaluated by Horner:
    its value at t_new is off by a few eps times the Lebesgue function of
    the nodes at t_new times the largest sum of the fit's monomial terms at
    a node, which is at least the largest value.  The table's own error is
    smaller.  The factor 64 is a margin over these constants.
    """
    times, values = history.newest(q + 1)
    p = extrapolation_oracle(times, values)
    lebesgue = sum(
        abs(math.prod((t_new - tj) / (ti - tj) for tj in times if tj != ti))
        for ti in times
    )
    terms = max(
        sum(abs(c * (ti - p.t_ref) ** k) for k, c in enumerate(p.coeffs))
        for ti in times
    )
    return abs(y_new - p(t_new)), 64 * _EPS * lebesgue * terms


@settings(max_examples=300)
@given(
    t0=st.one_of(
        st.floats(-100.0, 100.0), st.floats(1e6 - 10.0, 1e6 + 10.0),
        st.floats(-1e6 - 10.0, -1e6 + 10.0),
    ),
    rel_gaps=st.lists(
        st.one_of(st.floats(1.5e-12, 1e-9), st.floats(1e-9, 10.0)),
        min_size=4, max_size=4,
    ),
    values=st.lists(
        st.one_of(
            st.floats(1e-200, 1e3), st.floats(-1e3, -1e-200),
            st.sampled_from([0.0, -0.0]),
        ),
        min_size=5, max_size=5,
    ),
    n=st.integers(1, 4),
)
def test_table_scores_match_the_fits(t0, rel_gaps, values, n):
    # 1-4 past samples with gaps down to the 1e-12-relative floor and times
    # near 1e6; the fifth sample is the fresh one being scored.  Values
    # below 1e-200 in magnitude are left out: their differences underflow,
    # and roundoff there is not relative to anything
    times = [t0]
    for g in rel_gaps:
        times.append(times[-1] + g * max(1.0, abs(times[-1])))
    h = history_of(*zip(times[:n], values[:n]))
    t_new, y_new = times[n], values[n]
    d = select_order(h, t_new, y_new)
    assert list(d.candidate_errors) == list(range(min(n, 3)))
    fits = {}
    for q, err in d.candidate_errors.items():
        fits[q] = fit_err, bound = _fit_score_and_bound(h, q, t_new, y_new)
        assert abs(err - fit_err) <= bound, (q, err, fit_err, bound)
    # ties break toward the smallest order on both sides
    by_fits = min(fits, key=lambda q: fits[q][0])
    if d.order != by_fits:
        # only a choice between errors within roundoff of each other moves
        gap = abs(fits[d.order][0] - fits[by_fits][0])
        assert gap <= fits[d.order][1] + fits[by_fits][1]


@pytest.mark.parametrize("samples", [
    # the first divided difference overflows
    ((0.0, -1e308), (1.0, 1e308)),
    # the second does, from two finite first ones
    ((0.0, 0.0), (1.0, 1.5e308), (2.0, 0.0)),
])
def test_an_overflowing_table_raises_as_the_overflowing_fit(samples):
    # the fit through the same samples overflows to a non-finite
    # coefficient, which Polynomial refuses with a ValueError; the table must
    # refuse with the same type instead of scoring inf or nan
    times, values = zip(*samples)
    with pytest.raises(ValueError) as fit_error:
        extrapolation_oracle(times, values)
    h = history_of(*samples[:-1])
    with pytest.raises(ValueError) as push_error:
        h.push(*samples[-1])
    assert type(push_error.value) is type(fit_error.value)
    assert len(h) == len(samples) - 1
    assert math.isfinite(h.d1) and math.isfinite(h.d2)


# ---------------------------------------------------- published extrapolation

@settings(max_examples=300)
@given(
    t0=st.one_of(
        st.floats(-100.0, 100.0), st.floats(1e6 - 10.0, 1e6 + 10.0),
        st.floats(-1e6 - 10.0, -1e6 + 10.0),
    ),
    rel_gaps=st.lists(
        st.one_of(st.floats(1.5e-12, 1e-9), st.floats(1e-9, 10.0)),
        min_size=2, max_size=2,
    ),
    values=st.lists(
        st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
        min_size=3, max_size=3,
    ),
    q=st.sampled_from([2, 3]),
)
def test_small_fits_are_the_history_row_bit_for_bit(t0, rel_gaps, values, q):
    # gaps down to the 1e-12-relative floor and times near 1e6: the
    # polynomial read off the history's row is the one the samples alone give
    times = [t0]
    for g in rel_gaps[: q - 1]:
        times.append(times[-1] + g * max(1.0, abs(times[-1])))
    p = fit_extrapolation(history_of(*zip(times, values)), q - 1)
    expected = extrapolation_oracle(tuple(times), tuple(values[:q]))
    assert p.t_ref == expected.t_ref
    assert [c.hex() for c in p.coeffs] == [c.hex() for c in expected.coeffs]


def test_extrapolation_refuses_orders_it_cannot_publish():
    # an order outside 0..MAX_ORDER is a calibration error whatever the
    # history holds; an order the history is too short for is a sequencing
    # error, as estimate_output documents
    h = history_of((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(CalibrationError):
        fit_extrapolation(h, -1)
    with pytest.raises(SequencingError):
        fit_extrapolation(h, 2)
    with pytest.raises(SequencingError):
        fit_extrapolation(SampleHistory(), 0)


def test_extrapolation_checks_the_one_coefficient_that_can_overflow():
    # push checked every sample and divided difference, so an order-2
    # publication checks only d1 + d2 * (t_n - t_n-1): d1 = 1e308 after
    # -0.7e308, over gaps of 1, leaves d2 = 0.85e308 finite and the sum
    # past the largest float
    samples = ((0.0, 0.0), (1.0, -0.7e308), (2.0, 0.3e308))
    h = history_of(*samples)
    assert h.d1 == pytest.approx(1e308) and h.d2 == pytest.approx(0.85e308)
    with pytest.raises(ValueError, match="finite"):
        fit_extrapolation(h, 2)
    with pytest.raises(ValueError, match="finite"):
        estimate_output(h, select_order(h, 3.0, 0.0, force=2))
    assert fit_extrapolation(h, 1).coeffs == (h.values[-1], h.d1)


def test_estimate_publishes_through_the_module_name(monkeypatch):
    # a wrapper installed on orders.fit_extrapolation sees every publication
    calls = []

    def spy(history, q):
        calls.append(q)
        return Polynomial(history.times[-1], (0.0,) * (q + 1))

    monkeypatch.setattr(orders, "fit_extrapolation", spy)
    h = history_of((0.0, 1.0), (0.5, 1.2), (1.0, 1.5))
    d = select_order(h, 1.0, 1.5, force=1)
    assert estimate_output(h, d).coeffs == (0.0, 0.0)
    assert calls == [1]


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
    assert est_ex == extrapolation_oracle(*h.newest(d.order + 1))
    assert est_cls == fit_constrained_least_squares(*h.newest(d.order + 2))
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
    # cls does not fall back: a decision from select_order before the push
    # leaves q + 2 samples, so a history too short means that push is missing
    h = history_of((0.0, 3.0))
    d = select_order(h, 0.5, 3.5, force=0)
    with pytest.raises(SequencingError):
        estimate_output(h, d, "cls")  # needs 2 points, has 1


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
