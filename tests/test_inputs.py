import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f3ornits.errors import SequencingError
from f3ornits.inputs import (
    build_plan,
    cap_degree,
    prune_published,
    resolve_source,
    smooth,
)
from f3ornits.poly import Polynomial


# ------------------------------------------------------------ resolve_source

def _log(*starts):
    """A publication log: one constant polynomial published at each time."""
    return [Polynomial(t, (float(i),)) for i, t in enumerate(starts)]


def test_resolve_picks_latest_not_after():
    log = _log(0.0, 1.0, 2.5, 4.0)
    assert resolve_source(log, 0.0) is log[0]
    assert resolve_source(log, 0.9) is log[0]
    assert resolve_source(log, 1.0) is log[1]
    assert resolve_source(log, 3.9) is log[2]
    assert resolve_source(log, 100.0) is log[3]


def test_resolve_before_first_publication_fails():
    with pytest.raises(SequencingError):
        resolve_source(_log(1.0, 2.0), 0.5)
    with pytest.raises(SequencingError):
        resolve_source([], 0.5)


def test_prune_keeps_what_the_slowest_reader_resolves():
    full = _log(0.0, 1.0, 2.5, 4.0)
    log = list(full)
    prune_published(log, 2.0)
    assert log == full[1:]
    # a reader at or after the slowest one resolves as before the pruning
    for t in (2.0, 2.5, 3.9, 100.0):
        assert resolve_source(log, t) is resolve_source(full, t)
    prune_published(log, 4.0)
    assert log == full[3:]


def test_prune_without_readers_keeps_only_the_newest():
    log = _log(0.0, 1.0, 2.5)
    newest = log[-1]
    prune_published(log, None)
    assert log == [newest]
    prune_published(log, None)
    assert log == [newest]


def test_prune_never_deletes_when_nothing_is_resolvable():
    # bisect index -1: the slowest reader is before the first publication
    log = _log(1.0, 2.0)
    kept = list(log)
    prune_published(log, 0.5)
    assert log == kept
    empty = []
    prune_published(empty, None)
    assert empty == []


@settings(max_examples=300, deadline=None)
@given(
    gaps=st.lists(st.floats(1e-3, 10.0), max_size=8),
    where=st.sampled_from(["before", "on", "between", "after", "none"]),
    pick=st.integers(0, 8),
)
def test_prune_keeps_what_the_bisect_rule_keeps(gaps, where, pick):
    # the rule without its fast path: keep from the newest polynomial
    # published at or before the slowest reader, found by bisection
    starts = list(itertools.accumulate(gaps, initial=0.5))
    k = pick % len(starts)
    if where == "between":
        assume(k + 1 < len(starts))
    t_slowest = {
        "before": starts[0] - 1.0,
        "on": starts[k],
        "between": 0.5 * (starts[k] + starts[min(k + 1, len(starts) - 1)]),
        "after": starts[-1] + 1.0,
        "none": None,
    }[where]
    log = _log(*starts)
    m = (len(log) if t_slowest is None else bisect_right(starts, t_slowest)) - 1
    kept = log[m:] if m > 0 else list(log)
    prune_published(log, t_slowest)
    assert len(log) == len(kept) and all(a is b for a, b in zip(log, kept))
    empty = []
    prune_published(empty, t_slowest)
    assert empty == []


# ---------------------------------------------------------------- cap_degree

def test_cap_identity_when_within_budget():
    p = Polynomial(0.0, (1.0, 2.0))
    assert cap_degree(p, 2, 0.0, 1.0) is p
    assert cap_degree(p, 1, 0.0, 1.0) is p


def test_cap_quadratic_to_constant_pins_start_value():
    # source tau^2 on window [0, 1) with budget 0 -> constant 0 (start value)
    p = Polynomial(0.0, (0.0, 0.0, 1.0))
    c = cap_degree(p, 0, 0.0, 1.0)
    assert c.degree == 0
    assert c(0.0) == 0.0
    assert c(0.7) == 0.0


def test_cap_quadratic_to_line_beats_grid_search():
    # budget 1: the capped line pins the start value and is least-squares
    # optimal over the sampled window; sweep slopes densely to confirm
    p = Polynomial(0.0, (0.5, -1.0, 2.0))
    t0, t1 = 1.0, 3.0
    c = cap_degree(p, 1, t0, t1)
    assert c.degree == 1
    assert c(t0) == pytest.approx(p(t0), abs=1e-13)

    samples = [t0 + (t1 - t0) * i / 2 for i in range(3)]  # the 3 fit samples

    def sse(slope):
        return sum((p(t0) + slope * (t - t0) - p(t)) ** 2 for t in samples)

    fitted_slope = c.derivative()(t0)
    best = min(sse(s) for s in np.linspace(-20, 20, 80001))
    assert sse(fitted_slope) <= best + 1e-10


def test_cap_preserves_polynomials_within_reach():
    # a cubic capped to degree 2 still matches wherever the source is quadratic
    p = Polynomial(0.0, (1.0, 2.0, -1.0))  # already degree 2
    src = Polynomial(0.0, (1.0, 2.0, -1.0, 0.0))  # degree-3 rep, cubic coeff 0
    c = cap_degree(src, 2, 0.0, 2.0)
    for t in np.linspace(0.0, 2.0, 9):
        assert c(t) == pytest.approx(p(t), abs=1e-10)


def test_cap_empty_window_rejected():
    p = Polynomial(0.0, (0.0, 0.0, 0.0, 1.0))
    with pytest.raises(SequencingError):
        cap_degree(p, 1, 2.0, 2.0)


# -------------------------------------------------------------------- smooth

def test_smoothstep_between_constants():
    # previous plan was constant 0; new plan constant 1 on [1, 2)
    plan = Polynomial(1.0, (1.0,))
    previous = Polynomial(1.0, (0.0, 0.0))
    s = smooth(plan, 1.0, 2.0, previous)
    assert s(1.0) == pytest.approx(0.0, abs=1e-13)
    assert s(2.0) == pytest.approx(1.0, abs=1e-13)
    assert s(1.5) == pytest.approx(0.5, abs=1e-13)
    ds = s.derivative()
    assert ds(1.0) == pytest.approx(0.0, abs=1e-13)
    assert ds(2.0) == pytest.approx(0.0, abs=1e-13)


def test_smoothing_same_line_is_identity():
    # when the previous polynomial already lies on the plan, the blend
    # reproduces it
    plan = Polynomial(0.0, (1.0, 2.0))  # 1 + 2t
    previous = Polynomial(3.0, (plan(3.0), 2.0))
    s = smooth(plan, 3.0, 5.0, previous)
    for t in np.linspace(3.0, 5.0, 9):
        assert s(t) == pytest.approx(plan(t), abs=1e-12)


def test_smooth_matches_unsmoothed_plan_at_window_end():
    plan = Polynomial(2.0, (0.3, -1.0, 0.7))
    previous = Polynomial(2.0, (9.0, -4.0))
    s = smooth(plan, 2.0, 2.8, previous)
    assert s(2.8) == pytest.approx(plan(2.8), abs=1e-12)
    assert s.derivative()(2.8) == pytest.approx(plan.derivative()(2.8), abs=1e-11)


# ----------------------------------------------------------------- build_plan

def test_first_window_skips_smoothing():
    plan, delivered = build_plan(
        [Polynomial(0.0, (2.0,))],
        window_start=0.0, window_end=0.5,
        max_degree=2, smoothing=True, previous=None,
    )
    assert not plan.smoothed
    assert plan.poly(0.3) == 2.0
    assert delivered is plan.poly


def test_incapable_consumer_never_smoothed():
    # a consumer that cannot take cubics does not smooth, whatever it was
    # handed before: the master's flag for it is off even with smoothing on
    plan, _ = build_plan(
        [Polynomial(0.0, (2.0,))],
        window_start=0.0, window_end=0.5,
        max_degree=2,
        smoothing=False,
        previous=Polynomial(0.0, (1.0, 0.0)),
    )
    assert not plan.smoothed


@pytest.mark.parametrize("smoothing, capable", [
    (False, True), (True, False), (False, False),
])
def test_no_context_unless_the_consumer_smooths(smoothing, capable):
    # only a smoothing-capable consumer with smoothing on smooths, and only
    # it gets back the delivered polynomial to blend from next
    plan, delivered = build_plan(
        [Polynomial(0.0, (2.0, 1.0))],
        window_start=0.0, window_end=0.5,
        max_degree=2, smoothing=smoothing and capable,
        previous=Polynomial(0.0, (1.0, 0.0)),
    )
    assert not plan.smoothed
    assert delivered is None


def test_chained_windows_are_c1():
    # three windows fed by unrelated source polynomials: once smoothing is on,
    # every interior boundary matches value and slope of what was used before
    sources = [
        Polynomial(0.0, (0.0,)),
        Polynomial(1.0, (3.0, -2.0)),
        Polynomial(2.0, (1.0, 0.5, 0.25)),
    ]
    windows = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    previous = None
    used = []
    for (a, b) in windows:
        plan, previous = build_plan(
            sources, a, b, max_degree=2, smoothing=True, previous=previous,
        )
        used.append(plan)
    assert [p.smoothed for p in used] == [False, True, True]
    for left, right in zip(used, used[1:]):
        t = right.window_start
        assert right.poly(t) == pytest.approx(left.poly(t), abs=1e-10)
        assert right.poly.derivative()(t) == pytest.approx(
            left.poly.derivative()(t), abs=1e-9
        )


@settings(max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    n_windows=st.integers(2, 6),
)
def test_chained_windows_c1_property(seed, n_windows):
    rng = np.random.default_rng(seed)
    starts, sources = [], []
    t = 0.0
    for _ in range(n_windows):
        starts.append(t)
        deg = int(rng.integers(0, 3))
        coeffs = tuple(float(c) for c in rng.uniform(-3, 3, deg + 1))
        sources.append(Polynomial(t, coeffs))
        t += float(rng.uniform(0.2, 1.5))
    boundaries = starts[1:] + [t]
    previous, used = None, []
    for a, b in zip(starts, boundaries):
        plan, previous = build_plan(
            sources, a, b, max_degree=2, smoothing=True, previous=previous,
        )
        used.append(plan)
    for left, right in zip(used, used[1:]):
        tb = right.window_start
        scale = 1.0 + abs(left.poly(tb))
        assert abs(right.poly(tb) - left.poly(tb)) <= 1e-9 * scale
        dl = left.poly.derivative()(tb)
        dr = right.poly.derivative()(tb)
        assert abs(dr - dl) <= 1e-8 * (1.0 + abs(dl))


def test_zoh_from_constant_sources():
    # order-zero producers with smoothing off reduce to sample-and-hold
    starts = [0.0, 0.4, 1.1]
    sources = [Polynomial(s, (v,)) for s, v in zip(starts, (1.0, 2.0, 3.0))]
    plan, _ = build_plan(
        sources, 0.9, 1.3,
        max_degree=2, smoothing=False, previous=None,
    )
    assert plan.poly is sources[1]
    assert plan.poly.degree == 0
    assert plan.poly(1.2) == 2.0


def test_plan_records_window_and_source():
    sources = [Polynomial(0.0, (5.0,)), Polynomial(1.0, (6.0,))]
    plan, _ = build_plan(
        sources, 1.5, 2.0,
        max_degree=1, smoothing=False, previous=None,
    )
    assert plan.window_start == 1.5
    assert plan.poly is sources[1]
    assert not plan.smoothed
