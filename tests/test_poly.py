import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f3ornits.coupling import SampleHistory
from f3ornits.errors import CalibrationError
from f3ornits.orders import fit_extrapolation
from f3ornits.poly import (
    Polynomial,
    fit_constrained,
    fit_constrained_least_squares,
    fit_hermite,
)


def _solve_dense(a: list[list[float]], b: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting: the general solve whose
    operations the fits' straight-line 1x1 and 2x2 solves perform, in its
    order, and the reference they are compared against bit for bit."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) == 0.0:
            raise CalibrationError("singular calibration system")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            fac = m[r][col] * inv
            if fac != 0.0:
                for c in range(col, n + 1):
                    m[r][c] -= fac * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * x[c]
        x[r] = acc / m[r][r]
    return x


def cls_oracle(times, values, degree, constrain_index):
    """Independent constrained-LS solve via the KKT system (numpy).

    minimize ||V a - z||^2  subject to  v_c^T a = z_c, with V the plain
    (unshifted-per-row) Vandermonde about the constrained time.
    """
    t_ref = times[constrain_index]
    tau = np.asarray(times, dtype=float) - t_ref
    V = np.vander(tau, degree + 1, increasing=True)
    z = np.asarray(values, dtype=float)
    vc = V[constrain_index]
    n = degree + 1
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * V.T @ V
    kkt[:n, n] = vc
    kkt[n, :n] = vc
    rhs = np.concatenate([2.0 * V.T @ z, [z[constrain_index]]])
    sol = np.linalg.solve(kkt, rhs)
    return t_ref, sol[:n]


# ---------------------------------------------------------------- Polynomial

def test_constant_evaluates_everywhere():
    p = Polynomial(2.0, (5.0,))
    assert p(-10.0) == 5.0 and p(2.0) == 5.0 and p(1e6) == 5.0
    assert p.derivative()(0.0) == 0.0


def test_evaluate_horner_matches_numpy():
    p = Polynomial(1.5, (1.0, -2.0, 0.5, 3.0))
    ts = np.linspace(-3.0, 4.0, 17)
    expected = np.polyval(list(reversed(p.coeffs)), ts - p.t_ref)
    got = np.array([p(t) for t in ts])
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)


def test_derivative_coefficients():
    p = Polynomial(0.0, (1.0, 2.0, 3.0, 4.0))
    dp = p.derivative()
    assert dp.coeffs == (2.0, 6.0, 12.0)
    assert dp.t_ref == 0.0


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        Polynomial(0.0, (1.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Polynomial(0.0, ())
    with pytest.raises(ValueError):
        Polynomial(0.0, (math.nan,))


@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
    old_ref=st.floats(-5, 5),
    new_ref=st.floats(-5, 5),
    t=st.floats(-8, 8),
)
def test_shifted_is_same_polynomial(coeffs, old_ref, new_ref, t):
    p = Polynomial(old_ref, tuple(coeffs))
    q = p.shifted(new_ref)
    assert q.t_ref == new_ref
    scale = 1.0 + sum(abs(c) for c in coeffs) * (1.0 + abs(t) ** 3)
    assert abs(p(t) - q(t)) <= 1e-9 * scale


# ------------------------------------------------------------- extrapolation
# published by orders.fit_extrapolation from a SampleHistory's row; the
# bit-for-bit check against an oracle fit is in test_orders.py

def history_of(*samples):
    h = SampleHistory()
    for t, v in samples:
        h.push(t, v)
    return h


def test_exact_single_point():
    p = fit_extrapolation(history_of((2.0, 7.0)), 0)
    assert p.degree == 0 and p(123.0) == 7.0


def test_exact_line():
    p = fit_extrapolation(history_of((0.0, 1.0), (1.0, 3.0)), 1)
    assert p.degree == 1
    assert math.isclose(p(2.0), 5.0, rel_tol=1e-13)
    assert p(1.0) == 3.0  # newest point is reproduced exactly (t_ref there)


def test_exact_quadratic_through_squares():
    p = fit_extrapolation(history_of((0.0, 0.0), (1.0, 1.0), (2.0, 4.0)), 2)
    assert p.degree == 2
    for t in (-1.0, 0.5, 3.0):
        assert math.isclose(p(t), t * t, rel_tol=0, abs_tol=1e-12)


@settings(max_examples=200)
@given(
    times=st.lists(
        st.floats(-50, 50), min_size=1, max_size=3, unique_by=lambda t: round(t, 3)
    ),
    data=st.data(),
)
def test_interpolation_reproduces_all_points(times, data):
    times = tuple(sorted(round(t, 3) for t in times))
    values = tuple(
        data.draw(st.floats(-100, 100)) for _ in times
    )
    p = fit_extrapolation(history_of(*zip(times, values)), len(times) - 1)
    span = max(1.0, max(abs(v) for v in values))
    for t, v in zip(times, values):
        assert abs(p(t) - v) <= 1e-8 * span


# The divided-difference row passes through its newest sample and divides
# only by gaps the check accepted; a Vandermonde elimination did neither.

def test_extrapolation_passes_through_its_newest_sample():
    history = history_of((-1000004.0, 1.0), (0.0, 2.0), (1.5e-12, 3.0))
    assert fit_extrapolation(history, 2).coeffs[0] == 3.0


def test_extrapolation_solves_every_gap_the_check_accepts():
    history = history_of((-1e6, 1.0), (0.0, 1.0), (1e-11, 1.0))
    assert fit_extrapolation(history, 2).coeffs[0] == 1.0


def test_extrapolation_conditioning_large_absolute_time():
    # one-hundredth of a second of data sitting at t ~ 1e6 s
    t0 = 1.0e6
    times = (t0, t0 + 0.004, t0 + 0.01)
    f = lambda t: 2.0 + 3.0 * (t - t0) - 40.0 * (t - t0) ** 2
    p = fit_extrapolation(history_of(*((t, f(t)) for t in times)), 2)
    for t in (t0 + 0.002, t0 + 0.012):
        assert abs(p(t) - f(t)) <= 1e-9


# -------------------------------------------------- constrained least squares

def test_cls_two_points_is_constant_at_newest():
    p = fit_constrained_least_squares((0.0, 1.0), (3.0, 9.0))
    assert p.degree == 0 and p(0.0) == 9.0 and p(55.0) == 9.0


def test_cls_line_frozen_example():
    # three points (0,0), (1,0), (2,6): the constrained line is 6 + 3.6 (t-2)
    # (derived by minimizing (2a-6)^2 + (a-6)^2 over the slope a)
    p = fit_constrained_least_squares((0.0, 1.0, 2.0), (0.0, 0.0, 6.0))
    assert p.degree == 1
    assert math.isclose(p(2.0), 6.0, abs_tol=1e-12)
    assert math.isclose(p.coeffs[1], 3.6, rel_tol=1e-12)
    assert math.isclose(p(0.0), -1.2, rel_tol=1e-12)
    assert math.isclose(p(1.0), 2.4, rel_tol=1e-12)


def test_cls_exact_when_data_is_polynomial():
    # quadratic data, four points -> degree-2 constrained fit recovers it
    f = lambda t: 1.0 - 2.0 * t + 0.5 * t * t
    times = (0.0, 0.5, 1.5, 2.0)
    p = fit_constrained_least_squares(times, tuple(f(t) for t in times))
    for t in (-1.0, 0.7, 3.0):
        assert math.isclose(p(t), f(t), rel_tol=0, abs_tol=1e-10)


@settings(max_examples=200)
@given(
    times=st.lists(
        st.floats(-20, 20), min_size=2, max_size=4, unique_by=lambda t: round(t, 2)
    ),
    data=st.data(),
)
def test_cls_matches_kkt_oracle(times, data):
    times = tuple(sorted(round(t, 2) for t in times))
    values = tuple(data.draw(st.floats(-50, 50)) for _ in times)
    p = fit_constrained_least_squares(times, values)
    t_ref, coeffs = cls_oracle(times, values, len(times) - 2, len(times) - 1)
    assert p.t_ref == t_ref
    scale = 1.0 + max(abs(v) for v in values)
    for a, b in zip(p.coeffs, coeffs):
        assert abs(a - b) <= 1e-7 * scale


def _left_to_right(terms):
    acc = 0.0
    for term in terms:
        acc = acc + term
    return acc


def cls_reference(times, values, index=-1, total=_left_to_right):
    """The constrained fit exact at times[index], by the general pivoted
    solve, with every normal-equation sum taken by total: by default left
    to right from 0.0, as Python 3.11's sum() does and 3.12's, which
    compensates rounding, does not."""
    degree, t_ref, a0 = len(times) - 2, times[index], values[index]
    rows, rhs = [], []
    for t, z in zip(times, values):
        tau = t - t_ref
        row, p = [], tau
        for _ in range(degree):
            row.append(p)
            p *= tau
        rows.append(row)
        rhs.append(z - a0)
    nte = [[total([r[i] * r[j] for r in rows]) for j in range(degree)]
           for i in range(degree)]
    ntr = [total([r[i] * z for r, z in zip(rows, rhs)]) for i in range(degree)]
    return (a0, *_solve_dense(nte, ntr)) if degree else (a0,)


def hexes(values):
    return [v.hex() for v in values]


def _bits_or_error(solve):
    try:
        return hexes(solve())
    except CalibrationError as exc:
        return type(exc)


# compensated summation (3.12's sum(), math.fsum) rounds this example's
# normal equations differently from a left-to-right sum
_PINNED_CLS = ((0.0, 0.5, 1.0, 1.5), (0.25, 0.48, 0.59, 0.88))
# |sum tau^3| > |sum tau^2| about the newest sample: the 2x2 rows swap
_ROW_SWAP_CLS = ((0.0, 1.0, 5.0, 10.0), (1.0, -2.0, 0.5, 3.0))
# every tau^2 underflows to 0.0: a singular system at either index
_SINGULAR_CLS = ((0.0, 1e-200, 2e-200), (0.0, 1.0, 2.0))


@settings(max_examples=200)
@given(
    times=st.lists(
        st.floats(-20, 20), min_size=2, max_size=4, unique_by=lambda t: round(t, 2)
    ),
    data=st.data(),
)
@example(times=_PINNED_CLS[0], data=_PINNED_CLS[1])
@example(times=_ROW_SWAP_CLS[0], data=_ROW_SWAP_CLS[1])
@example(times=_SINGULAR_CLS[0], data=_SINGULAR_CLS[1])
def test_cls_sums_left_to_right_on_every_interpreter(times, data):
    # the fit's bits must not depend on how the interpreter's sum() rounds,
    # pinned at the newest sample (cls) and at the window start (capping);
    # a system the general solve finds singular must be refused alike
    if isinstance(data, tuple):
        values = data  # an example, taken as given
    else:
        times = tuple(sorted(round(t, 2) for t in times))
        values = tuple(data.draw(st.floats(-50, 50)) for _ in times)
    degree = len(times) - 2
    assert _bits_or_error(
        lambda: fit_constrained_least_squares(times, values).coeffs
    ) == _bits_or_error(lambda: cls_reference(times, values))
    assert _bits_or_error(
        lambda: fit_constrained(times, values, degree, 0).coeffs
    ) == _bits_or_error(lambda: cls_reference(times, values, 0))


def test_pinned_cls_example_tells_the_summation_orders_apart():
    # the pinned example guards the left-to-right sums only while
    # compensated summation moves its bits
    assert hexes(cls_reference(*_PINNED_CLS)) != hexes(
        cls_reference(*_PINNED_CLS, total=math.fsum)
    )


def test_cls_examples_take_the_row_swap_and_the_singular_branch():
    times = _ROW_SWAP_CLS[0]
    taus = [t - times[-1] for t in times]
    assert abs(sum(t ** 3 for t in taus)) > sum(t * t for t in taus)
    for index in (0, -1):
        with pytest.raises(CalibrationError, match="singular"):
            cls_reference(*_SINGULAR_CLS, index)


def test_cls_grid_search_optimality():
    # dense sweep over all lines through the newest point cannot beat the fit
    times = (0.0, 1.0, 2.0)
    values = (0.0, 0.0, 6.0)
    p = fit_constrained_least_squares(times, values)

    def sse(slope):
        return sum((6.0 + slope * (t - 2.0) - v) ** 2 for t, v in zip(times, values))

    best = min(sse(s) for s in np.linspace(-20, 20, 40001))
    assert sse(p.coeffs[1]) <= best + 1e-9


def test_cls_needs_two_points():
    with pytest.raises(CalibrationError):
        fit_constrained_least_squares((0.0,), (1.0,))


def test_fits_refuse_sizes_beyond_max_order():
    # MAX_ORDER = 2: extrapolation through at most 3 points, constrained
    # fits of degree at most 2 (cls through at most 4 points)
    times, values = (0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 0.0, 1.0, 3.0)
    with pytest.raises(CalibrationError):
        fit_extrapolation(history_of(*zip(times[:4], values[:4])), 3)
    with pytest.raises(CalibrationError):
        fit_constrained_least_squares(times, values)
    with pytest.raises(CalibrationError):
        fit_constrained(times, values, 3, 0)


# ------------------------------------------------------------------- Hermite

def test_hermite_endpoint_match_closed_form():
    p = fit_hermite(1.0, 3.0, 2.0, -1.0, 0.5, 4.0)
    dp = p.derivative()
    assert math.isclose(p(1.0), 2.0, abs_tol=1e-13)
    assert math.isclose(p(3.0), -1.0, abs_tol=1e-12)
    assert math.isclose(dp(1.0), 0.5, abs_tol=1e-13)
    assert math.isclose(dp(3.0), 4.0, abs_tol=1e-12)


def test_hermite_reproduces_cubic():
    f = lambda t: 1.0 + t - t ** 2 + 0.25 * t ** 3
    df = lambda t: 1.0 - 2.0 * t + 0.75 * t ** 2
    p = fit_hermite(0.5, 2.5, f(0.5), f(2.5), df(0.5), df(2.5))
    for t in np.linspace(0.5, 2.5, 11):
        assert math.isclose(p(t), f(t), abs_tol=1e-12)


def test_hermite_smoothstep_shape():
    # constants 0 -> 1 over [1, 2): the classic smoothstep 3s^2 - 2s^3
    p = fit_hermite(1.0, 2.0, 0.0, 1.0, 0.0, 0.0)
    assert math.isclose(p(1.5), 0.5, abs_tol=1e-13)
    s = 0.25
    assert math.isclose(p(1.0 + s), 3 * s ** 2 - 2 * s ** 3, abs_tol=1e-13)


@given(
    t0=st.floats(-10, 10),
    h=st.floats(0.01, 10),
    z0=st.floats(-50, 50),
    z1=st.floats(-50, 50),
    dz0=st.floats(-50, 50),
    dz1=st.floats(-50, 50),
)
def test_hermite_endpoint_match_property(t0, h, z0, z1, dz0, dz1):
    t0 = round(t0, 6)
    h = round(h, 6) or 0.01
    p = fit_hermite(t0, t0 + h, z0, z1, dz0, dz1)
    dp = p.derivative()
    scale = 1.0 + max(abs(z0), abs(z1), abs(dz0), abs(dz1))
    assert abs(p(t0) - z0) <= 1e-9 * scale
    assert abs(p(t0 + h) - z1) <= 1e-8 * scale / min(1.0, h)
    assert abs(dp(t0) - dz0) <= 1e-9 * scale
    assert abs(dp(t0 + h) - dz1) <= 1e-7 * scale / min(1.0, h * h)


def test_hermite_degenerate_window_rejected():
    with pytest.raises(CalibrationError):
        fit_hermite(1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
