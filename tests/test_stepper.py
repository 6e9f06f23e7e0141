import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits.errors import ConfigError
from f3ornits.stepper import (
    DampedBounds,
    Tolerances,
    normalized_error,
    propose,
    update_damped_bounds,
)


def damped_oracle(samples, dts, nu):
    """Straight transcription of the envelope recursion, kept independent."""
    hi = lo = samples[0]
    alpha = 0.0
    out = [(hi, lo, alpha)]
    for y, dt in zip(samples[1:], dts):
        hi = max(y, hi - nu * dt / 2.0 * alpha)
        lo = min(y, lo + nu * dt / 2.0 * alpha)
        alpha = hi - lo
        out.append((hi, lo, alpha))
    return out


def run_bounds(samples, dts, nu):
    b = DampedBounds.from_first_sample(samples[0])
    seq = [b]
    for y, dt in zip(samples[1:], dts):
        b = update_damped_bounds(b, y, dt, nu)
        seq.append(b)
    return seq


# ---------------------------------------------------------------- tolerances

def test_tolerance_validation():
    Tolerances()
    with pytest.raises(ConfigError):
        Tolerances(tol_rel=0.0, tol_abs=0.0)
    with pytest.raises(ConfigError):
        Tolerances(rho_min=0.0)
    with pytest.raises(ConfigError):
        Tolerances(rho_min=1.2)
    with pytest.raises(ConfigError):
        Tolerances(rho_max=0.9)
    with pytest.raises(ConfigError):
        Tolerances(dt_min=0.0)
    with pytest.raises(ConfigError):
        Tolerances(dt_min=2.0, dt_max=1.0)
    with pytest.raises(ConfigError):
        Tolerances(nu=-0.1)
    # the degenerate fixed-step configuration stays legal
    Tolerances(rho_min=1.0, rho_max=1.0, dt_min=0.1, dt_max=0.1)


# -------------------------------------------------------------damped bounds

def test_bounds_init_at_first_sample():
    b = DampedBounds.from_first_sample(3.0)
    assert b.damp_max == b.damp_min == b.global_max == b.global_min == 3.0
    assert b.alpha == 0.0


def test_constant_signal_keeps_zero_alpha():
    seq = run_bounds([2.0] * 6, [0.1] * 5, nu=0.5)
    for b in seq:
        assert b.alpha == 0.0
        assert b.damp_max == b.damp_min == 2.0


def test_zero_nu_is_running_extrema():
    samples = [0.0, 3.0, -1.0, 2.0, -4.0, 1.0]
    seq = run_bounds(samples, [0.3] * 5, nu=0.0)
    for i, b in enumerate(seq):
        assert b.damp_max == max(samples[: i + 1])
        assert b.damp_min == min(samples[: i + 1])
        assert b.global_max == b.damp_max and b.global_min == b.damp_min


def test_geometric_contraction_toward_settled_signal():
    # a burst followed by a flat tail: alpha decays by nu*dt*alpha per step
    samples = [0.0, 10.0] + [5.0] * 40
    dts = [0.1] * (len(samples) - 1)
    seq = run_bounds(samples, dts, nu=1.0)
    alphas = [b.alpha for b in seq[2:]]
    for a, b in zip(alphas, alphas[1:]):
        if a > 0.0 and b > 0.0:
            assert b == pytest.approx(a * (1.0 - 1.0 * 0.1), rel=1e-12)
    assert alphas[-1] < alphas[0] * 0.02


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    nu=st.floats(0.0, 2.0),
)
def test_bounds_match_oracle_and_sandwich(seed, n, nu):
    rng = np.random.default_rng(seed)
    samples = [float(v) for v in rng.normal(0.0, 5.0, n)]
    dts = [float(v) for v in rng.uniform(0.01, 1.0, n - 1)]
    got = run_bounds(samples, dts, nu)
    want = damped_oracle(samples, dts, nu)
    for b, (hi, lo, alpha), y in zip(got, want, samples):
        assert b.damp_max == hi and b.damp_min == lo and b.alpha == alpha
        # envelope always sandwiches the newest sample, never inverts
        assert b.damp_min <= y <= b.damp_max
        assert b.alpha >= 0.0
        # damped envelope sits inside the all-time extrema
        assert b.global_min <= b.damp_min + 1e-12
        assert b.damp_max <= b.global_max + 1e-12


# --------------------------------------------------------- normalized_error

def test_magnitude_norm_arithmetic():
    tol = Tolerances(tol_rel=1e-3, tol_abs=1e-6)
    b = DampedBounds.from_first_sample(2.0)
    err = normalized_error(2.0, 1.998, "magnitude", b, tol)
    assert err == pytest.approx(0.002 / (1e-6 + 1e-3 * 2.0))


def test_amplitude_norm_uses_alltime_span():
    tol = Tolerances(tol_rel=0.1, tol_abs=0.0)
    b = DampedBounds(damp_max=1.0, damp_min=0.5, alpha=0.5,
                     global_max=4.0, global_min=-6.0)
    err = normalized_error(1.0, 0.0, "amplitude", b, tol)
    assert err == pytest.approx(1.0 / (0.1 * 10.0))


def test_damped_norm_uses_envelope():
    tol = Tolerances(tol_rel=0.1, tol_abs=0.0)
    b = DampedBounds(damp_max=1.0, damp_min=0.5, alpha=0.5,
                     global_max=4.0, global_min=-6.0)
    err = normalized_error(1.0, 0.0, "damped", b, tol)
    assert err == pytest.approx(1.0 / (0.1 * 0.5))


def test_vanishing_scale_gives_infinite_error():
    tol = Tolerances(tol_rel=1.0, tol_abs=0.0)
    b = DampedBounds.from_first_sample(0.0)
    assert normalized_error(0.0, 0.5, "magnitude", b, tol) == math.inf
    assert normalized_error(0.0, 0.0, "magnitude", b, tol) == 0.0


def test_unknown_norm_rejected():
    with pytest.raises(ValueError):
        normalized_error(0.0, 0.0, "energy", DampedBounds.from_first_sample(0.0),
                         Tolerances())


# ------------------------------------------------------------------- propose

def nominal_tol(**kw):
    defaults = dict(tol_rel=1e-3, tol_abs=1e-6, dt_min=0.01, dt_max=10.0)
    defaults.update(kw)
    return Tolerances(**defaults)


def test_error_one_keeps_step():
    prop = propose([1.0], [1], dt_prev=0.2, t_now=0.0, t_end=100.0,
                   tol=nominal_tol())
    assert prop.rho == 1.0
    assert prop.dt_next == pytest.approx(0.2)


def test_error_sixteen_order_one_quarters_step():
    prop = propose([16.0], [1], dt_prev=0.4, t_now=0.0, t_end=100.0,
                   tol=nominal_tol())
    assert prop.rho == pytest.approx(0.25)
    assert prop.dt_next == pytest.approx(0.1)


def test_tiny_error_capped_at_rho_max():
    prop = propose([1e-12], [2], dt_prev=0.1, t_now=0.0, t_end=100.0,
                   tol=nominal_tol())
    assert prop.rho == pytest.approx(1.05)


def test_zero_and_infinite_errors():
    t = nominal_tol()
    assert propose([0.0], [0], 0.1, 0.0, 10.0, t).rho == pytest.approx(1.05)
    assert propose([math.inf], [0], 0.1, 0.0, 10.0, t).rho == pytest.approx(0.10)


def test_worst_output_wins():
    prop = propose([1e-9, 16.0], [2, 1], 0.4, 0.0, 100.0, nominal_tol())
    assert prop.rho == pytest.approx(0.25)


def test_step_bounds_clamp():
    t = nominal_tol(dt_min=0.05, dt_max=0.5)
    small = propose([math.inf], [0], 0.06, 0.0, 100.0, t)
    assert small.dt_next == pytest.approx(0.05)
    big = propose([1e-12], [0], 0.499, 0.0, 100.0, t)
    assert big.dt_next <= 0.5 + 1e-15


def test_never_past_t_end():
    prop = propose([1.0], [0], 0.5, 9.8, 10.0, nominal_tol())
    assert prop.t_next_estimated == 10.0


def test_snap_to_t_end_on_float_dust():
    # landing within a millionth of a step of the horizon snaps onto it
    prop = propose([1.0], [0], 0.1, 9.9 + 1e-13, 10.0, nominal_tol())
    assert prop.t_next_estimated == 10.0


@given(
    err=st.floats(1e-9, 1e9),
    p=st.integers(0, 3),
    dt_prev=st.floats(0.01, 5.0),
)
def test_rho_monotone_in_error(err, p, dt_prev):
    t = nominal_tol(dt_max=100.0)
    lo = propose([err], [p], dt_prev, 0.0, 1e9, t)
    hi = propose([err * 2], [p], dt_prev, 0.0, 1e9, t)
    assert hi.rho <= lo.rho + 1e-12
    assert t.rho_min <= lo.rho <= t.rho_max


def test_propose_input_validation():
    t = nominal_tol()
    with pytest.raises(ValueError):
        propose([], [], 0.1, 0.0, 1.0, t)
    with pytest.raises(ValueError):
        propose([1.0], [1, 2], 0.1, 0.0, 1.0, t)
    with pytest.raises(ValueError):
        propose([1.0], [1], 0.0, 0.0, 1.0, t)
    with pytest.raises(ValueError):
        propose([-1.0], [1], 0.1, 0.0, 1.0, t)

