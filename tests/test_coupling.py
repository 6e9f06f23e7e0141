import pytest
from hypothesis import given
from hypothesis import strategies as st

from f3ornits.coupling import HISTORY_CAPACITY, CouplingGraph, SampleHistory
from f3ornits.errors import SequencingError


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
