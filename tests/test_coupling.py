import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f3ornits.coupling import HISTORY_CAPACITY, CouplingGraph, SampleHistory
from f3ornits.errors import CalibrationError, SequencingError
from f3ornits.poly import fit_extrapolation, fit_hermite


# --------------------------------------------------------------------- graph

# 0: one input (force), two outputs; 1: two inputs, one output
TWO_MASS_ARITIES = [(1, 2), (2, 1)]


def two_mass_like_graph():
    return CouplingGraph({(0, 0): (1, 0), (1, 0): (0, 0), (1, 1): (0, 1)})


def test_valid_graph_has_no_errors():
    g = two_mass_like_graph()
    assert g.validate(TWO_MASS_ARITIES) == []
    assert g.producers_of(0) == (1,)
    assert g.producers_of(1) == (0,)


def test_unfed_input_is_diagnosed():
    diags = CouplingGraph({}).validate([(1, 1)])
    assert any("not fed" in d for d in diags)


def test_dangling_output_is_fine():
    g = CouplingGraph({(1, 0): (0, 0)})
    assert g.validate([(0, 2), (1, 0)]) == []


def test_unknown_slot_and_subsystem():
    diags = CouplingGraph({(0, 5): (3, 0)}).validate([(1, 1)])
    assert any("unknown subsystem" in d for d in diags)


def test_bad_output_slot():
    g = CouplingGraph({(0, 0): (1, 4)})
    assert any("no output slot" in d for d in g.validate([(1, 0), (0, 1)]))


def test_self_feed_is_note_not_error():
    # a subsystem feeding itself is simply allowed: no diagnostic at all
    assert CouplingGraph({(0, 0): (0, 0)}).validate([(1, 1)]) == []


def test_second_input_unfed():
    g = CouplingGraph({(0, 0): (1, 0)})
    assert any("input (0,1) is not fed" in d for d in g.validate([(2, 0), (0, 1)]))


# ------------------------------------------------------------ SampleHistory

def test_history_keeps_last_four():
    h = SampleHistory()
    for i in range(6):
        h.push(float(i), float(10 * i))
    assert len(h) == HISTORY_CAPACITY == 4
    assert h.newest(4) == ((2.0, 3.0, 4.0, 5.0), (20.0, 30.0, 40.0, 50.0))


def test_history_rejects_non_increasing_time():
    h = SampleHistory()
    h.push(1.0, 0.0)
    with pytest.raises(SequencingError):
        h.push(1.0, 5.0)
    with pytest.raises(SequencingError):
        h.push(0.5, 5.0)


def test_history_newest_slice():
    h = SampleHistory()
    for i in range(4):
        h.push(float(i), float(i * i))
    times, values = h.newest(2)
    assert times == (2.0, 3.0)
    assert values == (4.0, 9.0)
    with pytest.raises(SequencingError):
        h.newest(5)
    with pytest.raises(SequencingError):
        h.newest(0)


def test_history_empty_guards():
    h = SampleHistory()
    with pytest.raises(SequencingError):
        h.newest(1)


@given(st.lists(st.floats(0.001, 10.0), min_size=1, max_size=20))
def test_history_times_sorted_and_bounded(increments):
    h = SampleHistory()
    t = 0.0
    for dt in increments:
        t += dt
        h.push(t, 0.0)
    assert len(h) <= HISTORY_CAPACITY
    ts, _ = h.newest(len(h))
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert ts[-1] == pytest.approx(t)


def history_of(*samples):
    h = SampleHistory()
    for t, v in samples:
        h.push(t, v)
    return h


def test_history_keeps_the_newest_divided_differences():
    # y = t^2 - t: f[t_n, t_n-1] = t_n + t_n-1 - 1, f[t_n, t_n-1, t_n-2] = 1
    h = history_of(*((t, t * t - t) for t in (0.0, 1.0, 3.0, 4.0, 6.0)))
    assert h.times == (1.0, 3.0, 4.0, 6.0)
    assert h.values == (0.0, 6.0, 12.0, 30.0)
    assert h.d1 == 9.0
    assert h.d2 == 1.0


@pytest.mark.parametrize("t, v", [
    (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf),
    (math.nan, 1.0), (math.inf, 1.0),
])
def test_push_refuses_non_finite_samples_as_the_fits_do(t, v):
    # push is the one check: the fits read its samples unchecked
    h = history_of((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(CalibrationError, match="finite"):
        h.push(t, v)
    # a refused sample leaves the history as it was
    assert h.newest(2) == ((0.0, 1.0), (1.0, 2.0)) and h.d1 == 1.0


@pytest.mark.parametrize("t_prev", [0.0, 0.5, -3.0, 1e6, -1e6])
def test_push_refuses_a_sub_floor_gap_as_the_fits_do(t_prev):
    # gaps below TIME_GAP_REL = 1e-12 relative to max(1, |t|) are
    # degenerate, for push as for a Hermite window; the floor itself times
    # 1.5 still passes
    floor = 1e-12 * max(1.0, abs(t_prev))
    close, clear = t_prev + 0.5 * floor, t_prev + 1.5 * floor
    assert t_prev < close < clear
    with pytest.raises(CalibrationError, match="distinct"):
        history_of((t_prev, 0.0)).push(close, 1.0)
    with pytest.raises(CalibrationError):
        fit_hermite(t_prev, close, 0.0, 1.0, 0.0, 0.0)
    history_of((t_prev, 0.0)).push(clear, 1.0)
    fit_hermite(t_prev, clear, 0.0, 1.0, 0.0, 0.0)


def test_push_still_refuses_time_that_does_not_advance():
    h = history_of((1.0, 0.0))
    for t in (1.0, 0.5, -math.inf):
        with pytest.raises(SequencingError):
            h.push(t, 1.0)


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
        fit_extrapolation(times, values)
    h = history_of(*samples[:-1])
    with pytest.raises(ValueError) as push_error:
        h.push(*samples[-1])
    assert type(push_error.value) is type(fit_error.value)
    assert len(h) == len(samples) - 1
    assert math.isfinite(h.d1) and math.isfinite(h.d2)
