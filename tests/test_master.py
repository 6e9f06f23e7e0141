"""Scheduler rules and event-loop behavior on small hand-built problems."""

import collections
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits import cli, inputs, master, orders
from f3ornits.coupling import CouplingGraph
from f3ornits.errors import ConfigError, DivergenceError
from f3ornits.inputs import InputPlan
from f3ornits.master import (
    CosimProblem,
    MasterOptions,
    ScheduleEntry,
    reconcile,
    run_f3ornits,
    run_jacobi,
)
from f3ornits.models import TwoMassParams, build_two_mass
from f3ornits.orders import OrderDecision
from f3ornits.poly import Polynomial
from f3ornits.stepper import DampedBounds, StepProposal, Tolerances
from f3ornits.subsystem import SubsystemSpec
from f3ornits.trace import read_trace_csv

EPS = 1e-9


def entry(**kw):
    base = dict(
        reached=0.0,
        estimated=1.0,
        has_outputs=True,
        producers=(),
        imposed_step=None,
        orders_changed=True,
        finished=False,
    )
    base.update(kw)
    return ScheduleEntry(**base)


# ------------------------------------------------------- reconcile rule cases

def test_single_subsystem_keeps_its_estimate():
    eff = reconcile([entry(estimated=1.5, has_outputs=True)], 10.0, EPS)
    assert eff == [1.5]


def test_imposed_grid_overrides_the_estimate():
    # four steps walked on a grid from t_init = 0.5: the fifth point is next
    e = entry(reached=1.5, estimated=7.7, imposed_step=0.25, t_init=0.5,
              grid_steps=4)
    assert reconcile([e], 10.0, EPS) == [1.75]


def test_consumer_clamps_to_producer_estimate():
    producer = entry(estimated=1.0, has_outputs=True)
    consumer = entry(estimated=1.5, producers=(0,))
    assert reconcile([producer, consumer], 10.0, EPS) == [1.0, 1.0]


def test_consumer_unclamped_when_producer_is_later():
    producer = entry(estimated=2.0, has_outputs=True)
    consumer = entry(estimated=1.5, producers=(0,))
    assert reconcile([producer, consumer], 10.0, EPS) == [2.0, 1.5]


def test_finished_producer_does_not_clamp():
    producer = entry(estimated=1.0, has_outputs=True, finished=True)
    consumer = entry(estimated=1.5, producers=(0,))
    assert reconcile([producer, consumer], 10.0, EPS)[1] == 1.5


def test_no_output_subsystem_pulled_to_producer_wakeup():
    producer = entry(estimated=0.8, has_outputs=True, producers=(1,))
    sink = entry(estimated=9.0, has_outputs=False, producers=(0,))
    eff = reconcile([producer, sink], 10.0, EPS)
    assert eff == [0.8, 0.8]


def test_no_output_subsystem_coasts_on_stable_pure_sources():
    source = entry(
        estimated=0.8, has_outputs=True, orders_changed=False
    )
    sink = entry(estimated=9.0, has_outputs=False, producers=(0,))
    eff = reconcile([source, sink], 10.0, EPS)
    assert eff == [0.8, 9.0]
    # an order change on the source ends the coast
    source = entry(estimated=0.8, has_outputs=True, orders_changed=True)
    assert reconcile([source, sink], 10.0, EPS)[1] == 0.8


def test_horizon_clamp():
    eff = reconcile([entry(estimated=12.0, has_outputs=True)], 10.0, EPS)
    assert eff == [10.0]


def test_progress_floor_when_estimate_fell_behind():
    e = entry(reached=3.0, estimated=2.5, has_outputs=True)
    assert reconcile([e], 10.0, EPS) == [3.0 + EPS]


def test_imposed_subsystem_ignores_consumer_clamp():
    producer = entry(estimated=0.3, has_outputs=True)
    locked = entry(reached=0.0, estimated=0.25, imposed_step=0.5, producers=(0,))
    assert reconcile([producer, locked], 10.0, EPS) == [0.3, 0.5]
    # and one grid step later, its next grid point
    locked = entry(reached=0.5, estimated=0.75, imposed_step=0.5, producers=(0,),
                   grid_steps=1)
    assert reconcile([producer, locked], 10.0, EPS) == [0.3, 1.0]


def test_empty_schedule_is_a_usage_error():
    with pytest.raises(ValueError):
        reconcile([], 10.0, EPS)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reconcile_bounds_properties(data):
    n = data.draw(st.integers(1, 5))
    t_end = 8.0
    t_init = data.draw(st.floats(0.0, 1.0))
    entries = []
    for k in range(n):
        reached = data.draw(st.floats(0.0, 7.0))
        est = reached + data.draw(st.floats(0.01, 5.0))
        producers = tuple(
            l for l in range(n) if l != k and data.draw(st.booleans())
        )
        imposed = data.draw(
            st.one_of(st.none(), st.floats(0.01, 2.0))
        )
        steps = 0
        if imposed is not None:
            # an imposed subsystem has reached a point of its grid
            steps = data.draw(st.integers(0, int((7.0 - t_init) / imposed)))
            reached = t_init + steps * imposed
        entries.append(
            ScheduleEntry(
                reached=reached,
                estimated=est,
                has_outputs=data.draw(st.booleans()),
                producers=producers,
                imposed_step=imposed,
                orders_changed=data.draw(st.booleans()),
                finished=False,
                t_init=t_init,
                grid_steps=steps,
            )
        )
    eff = reconcile(entries, t_end, EPS)
    for k, e in enumerate(entries):
        assert eff[k] > e.reached
        assert eff[k] <= t_end
        if e.imposed_step is not None:
            assert eff[k] == min(t_init + (e.grid_steps + 1) * e.imposed_step, t_end)
        else:
            assert eff[k] <= max(e.estimated, e.reached + EPS)


# ------------------------------------------------------------- tiny problems

def _const_source(value=2.5, label="source"):
    return SubsystemSpec(
        label, 1, 0, 1,
        lambda t, x, u: [0.0],
        lambda t, x, u: [value],
        (0.0,),
        dt0=0.5,
    )


def _sine_source(label="source"):
    return SubsystemSpec(
        label, 1, 0, 1,
        lambda t, x, u: [0.0],
        lambda t, x, u: [math.sin(t)],
        (0.0,),
        dt0=0.5,
    )


def _integrating_sink(label="sink"):
    return SubsystemSpec(
        label, 1, 1, 0,
        lambda t, x, u: [u[0]],
        lambda t, x, u: [],
        (0.0,),
        dt0=0.5,
    )


def _pair_problem(source, sink, t_end=5.0, dt0=0.5):
    graph = CouplingGraph({(1, 0): (0, 0)})
    return CosimProblem(
        subsystems=(
            dataclasses.replace(source, dt0=dt0),
            dataclasses.replace(sink, dt0=dt0),
        ),
        graph=graph,
        t_init=0.0,
        t_end=t_end,
    )


def _options(**kw):
    base = dict(
        tolerances=Tolerances(dt_min=0.05, dt_max=2.0),
    )
    base.update(kw)
    return MasterOptions(**base)


def test_isolated_subsystem_takes_one_step_to_the_horizon():
    lonely = SubsystemSpec(
        "lonely", 1, 0, 0,
        lambda t, x, u: [-x[0]],
        lambda t, x, u: [],
        (1.0,),
        dt0=0.5,
    )
    problem = CosimProblem(
        subsystems=(lonely,),
        graph=CouplingGraph(),
        t_init=0.0,
        t_end=5.0,
    )
    trace = run_f3ornits(problem, _options())
    assert trace.total_events == 1
    assert trace.subsystems["lonely"].column("t") == [0.0, 5.0]


def test_initial_exchange_settles_feedthrough_chains():
    a = _const_source(2.5, "a")
    b = SubsystemSpec(
        "b", 0, 1, 1, lambda t, x, u: [], lambda t, x, u: [2.0 * u[0]], (),
        dt0=0.5,
    )
    c = SubsystemSpec(
        "c", 0, 1, 1, lambda t, x, u: [], lambda t, x, u: [u[0] + 1.0], (),
        dt0=0.5,
    )
    graph = CouplingGraph({(1, 0): (0, 0), (2, 0): (1, 0)})
    problem = CosimProblem(
        subsystems=(a, b, c),
        graph=graph,
        t_init=0.0,
        t_end=1.0,
    )
    trace = run_f3ornits(problem, _options())
    assert trace.subsystems["a"].column("y0")[0] == 2.5
    assert trace.subsystems["b"].column("y0")[0] == 5.0
    assert trace.subsystems["c"].column("y0")[0] == 6.0


def test_sink_wakes_within_the_producers_schedule():
    problem = _pair_problem(_sine_source(), _integrating_sink())
    trace = run_f3ornits(problem, _options())
    source_times = set(trace.subsystems["source"].column("t"))
    sink_times = trace.subsystems["sink"].column("t")
    assert set(sink_times) <= source_times
    assert sink_times[-1] == 5.0
    assert all(b > a for a, b in zip(sink_times, sink_times[1:]))


def test_sink_coasts_when_source_is_constant():
    problem = _pair_problem(_const_source(), _integrating_sink())
    trace = run_f3ornits(problem, _options())
    # startup wake, then one long coast to the horizon
    assert trace.subsystems["sink"].column("t") == [0.0, 0.5, 5.0]


def test_imposed_step_subsystem_stays_on_its_grid():
    sink = dataclasses.replace(_integrating_sink(), imposed_step=0.25)
    problem = _pair_problem(_sine_source(), sink, t_end=2.0)
    trace = run_f3ornits(problem, _options())
    assert trace.subsystems["sink"].column("t") == [0.25 * i for i in range(9)]


@pytest.mark.parametrize("step,t_end", [(0.163366, 20.0), (0.1, 2000.0)])
def test_an_imposed_grid_is_counted_from_t_init(step, t_end):
    # rule (a) puts the n-th event at fl(t_init + n * step), then t_end; a
    # running sum of the steps drifts off that grid, for 0.163366 by an ulp
    # at n = 122 and for 0.1 by 7.2e-10 at n = 20000
    locked = dataclasses.replace(_sine_source(), imposed_step=step)
    problem = CosimProblem((locked,), CouplingGraph(), 0.0, t_end)
    t = run_f3ornits(problem, _options()).subsystems["source"].column("t")
    assert t[:-1] == [0.0 + n * step for n in range(len(t) - 1)]
    assert t[-1] == t_end and 0.0 < t_end - t[-2] <= step


def _reversed(problem):
    """The same problem with its subsystems in reverse order and its links
    renumbered to match."""
    n = len(problem.subsystems)
    links = {
        (n - 1 - k, i): (n - 1 - l, j)
        for (k, i), (l, j) in problem.graph.links.items()
    }
    return dataclasses.replace(
        problem, subsystems=problem.subsystems[::-1],
        graph=CouplingGraph(links),
    )


def _two_mass_from(dt0):
    """two_mass to t = 5 s, both subsystems starting with step dt0."""
    problem = build_two_mass(TwoMassParams(t_end=5.0)).problem
    specs = tuple(dataclasses.replace(s, dt0=dt0) for s in problem.subsystems)
    return dataclasses.replace(problem, subsystems=specs)


def test_reversed_subsystems_and_renumbered_links_leave_the_trace_unchanged():
    # due order, wiring and pruning all run backwards on the reversed problem
    problem = _two_mass_from(0.05)
    tol = Tolerances(dt_min=0.05, dt_max=0.5)
    for opts in (
        MasterOptions(tolerances=tol),
        MasterOptions(tolerances=tol, smoothing=True, calibration="cls"),
    ):
        plain = run_f3ornits(problem, opts)
        flipped = run_f3ornits(_reversed(problem), opts)
        assert list(flipped.subsystems) == ["mass_right", "mass_left"]
        for label, a in plain.subsystems.items():
            assert a.rows == flipped.subsystems[label].rows
        assert plain.total_events == flipped.total_events


def test_divergence_carries_label_and_last_good_time():
    boom = SubsystemSpec(
        "boom", 1, 0, 1,
        lambda t, x, u: [x[0] * x[0]],
        lambda t, x, u: [x[0]],
        (10.0,),
        dt0=0.5,
    )
    problem = CosimProblem(
        subsystems=(boom,),
        graph=CouplingGraph(),
        t_init=0.0,
        t_end=5.0,
    )
    with pytest.raises(DivergenceError) as err:
        run_f3ornits(problem, _options())
    assert "boom" in str(err.value)
    assert err.value.t_last_good == 0.0


@pytest.mark.parametrize("options", [
    MasterOptions(),
    MasterOptions(smoothing=True),
    MasterOptions(calibration="cls"),
], ids=["plain", "smoothing", "cls"])
def test_an_overflowing_exchange_is_a_divergence(options):
    # a negative coupling stiffness blows up with finite states: the divided
    # differences (or, smoothing, the plan's derivative) overflow first, a
    # plain ValueError that is a divergence at the window start, not a crash
    problem = build_two_mass(TwoMassParams(k2=-50000.0, t_end=20.0)).problem
    with pytest.raises(DivergenceError) as err:
        run_f3ornits(problem, options)
    cause = err.value.__cause__
    assert type(cause) is ValueError
    assert "finite" in str(cause)
    assert 0.0 < err.value.t_last_good < 20.0


def test_an_order_two_publication_that_overflows_is_a_divergence(
    monkeypatch, tmp_path
):
    # a source locked to a grid of 1 s publishes 0, 0, -0.7e308 and 0.3e308:
    # every sample and divided difference is finite, but the order-2
    # polynomial's d1 + d2 * h (1e308 + 0.85e308) is not, at t = 3
    ys = (0.0, 0.0, -0.7e308, 0.3e308)
    source = SubsystemSpec(
        "source", 1, 0, 1,
        lambda t, x, u: [0.0],
        lambda t, x, u: [ys[round(t)]],
        (0.0,),
        imposed_step=1.0,
        dt0=1.0,
    )
    problem = CosimProblem((source,), CouplingGraph(), 0.0, 5.0)
    with pytest.raises(DivergenceError) as err:
        run_f3ornits(problem, MasterOptions(force_order=2))
    assert type(err.value.__cause__) is ValueError
    assert err.value.t_last_good == 2.0
    # which the command line reports as a divergence, exit code 2
    monkeypatch.setattr(cli, "run_f3ornits", lambda _, options: run_f3ornits(
        problem, options
    ))
    args = ["run", "--model", "two_mass", "--force-order", "2",
            "--output-dir", str(tmp_path)]
    assert cli.main(args) == 2


def test_event_budget_guard(monkeypatch):
    monkeypatch.setattr(master, "MAX_EVENTS", 3)
    problem = _pair_problem(_sine_source(), _integrating_sink())
    with pytest.raises(RuntimeError, match=r"event budget exceeded \(3 events\)"):
        run_f3ornits(problem, _options())


def test_a_dt_max_over_the_event_budget_is_refused_before_any_window(monkeypatch):
    # 5 s in windows of at most 0.05 is exactly a budget of 100; a finer
    # dt_max cannot end, where a subsystem with outputs and no imposed
    # step is bounded by it
    def no_window(*args):
        raise AssertionError("a window was walked")

    monkeypatch.setattr(master, "step_to", no_window)
    monkeypatch.setattr(master, "MAX_EVENTS", 100)
    problem = _pair_problem(_sine_source(), _integrating_sink())
    _options(tolerances=Tolerances(dt_min=0.01, dt_max=0.05)).validate(problem)
    fine = _options(tolerances=Tolerances(dt_min=0.01, dt_max=0.049))
    with pytest.raises(
        ConfigError, match=r"^key 'dt_max': 0.049 needs more than 100 events"
    ):
        run_f3ornits(problem, fine)
    # a source locked to a grid is not bounded by dt_max, nor is a sink
    # without outputs
    locked = dataclasses.replace(_sine_source(), imposed_step=0.5)
    fine.validate(_pair_problem(locked, _integrating_sink()))


def test_an_output_not_finite_at_t_init_is_a_divergence(tmp_path, capsys):
    # the coupling force k2 * (x1 - x2) overflows at t_init; both masters
    # refuse it there, naming its subsystem, before any sample history or
    # polynomial takes it, and the command line exits 2
    params = ["k2=1e11", "x1_0=1e300", "x2_0=-1e300"]
    problem = build_two_mass(TwoMassParams(
        k2=1e11, x1_0=1e300, x2_0=-1e300, t_end=5.0
    )).problem
    for run, flags in ((lambda: run_f3ornits(problem, MasterOptions()), []),
                       (lambda: run_jacobi(problem, 0.1),
                        ["--method", "jacobi", "--dt", "0.1"])):
        with pytest.raises(DivergenceError) as err:
            run()
        assert (err.value.label, err.value.t_last_good) == ("mass_right", 0.0)
        args = ["run", "--model", "two_mass", "--t-end", "5",
                "--output-dir", str(tmp_path), *flags]
        for param in params:
            args += ["--param", param]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "diverged: mass_right after t = 0\n"


def test_the_initial_exchange_checks_outputs_once_its_passes_settle():
    # the consumer's g is not finite while its input is still the first
    # pass's zero, and finite once the source's output reaches it
    source = _const_source(2.5)
    consumer = SubsystemSpec(
        "consumer", 1, 1, 1, lambda t, x, u: [0.0],
        lambda t, x, u: [math.inf if u[0] == 0.0 else u[0]], (0.0,), dt0=0.5,
    )
    problem = CosimProblem((source, consumer), CouplingGraph({(1, 0): (0, 0)}),
                           0.0, 1.0)
    assert master._initial_exchange(problem) == [(2.5,), (2.5,)]


def test_times_strictly_increase_per_subsystem():
    trace = run_f3ornits(
        _two_mass_from(0.05),
        MasterOptions(tolerances=Tolerances(dt_min=0.05, dt_max=0.5)),
    )
    for st_ in trace.subsystems.values():
        t = st_.column("t")
        assert all(b > a for a, b in zip(t, t[1:]))
        assert t[0] == 0.0 and t[-1] == 5.0


def test_jacobi_grid_and_counts():
    model = build_two_mass(TwoMassParams(t_end=5.0))
    trace = run_jacobi(model.problem, 0.5)
    assert trace.total_events == 10
    assert trace.subsystems["mass_left"].column("t") == [0.5 * i for i in range(11)]


def test_jacobi_rejects_a_grid_over_the_event_budget(monkeypatch):
    # 1e7 windows used to run for minutes; the budget check comes before
    # the first window is walked
    def no_window(*args):
        raise AssertionError("a window was walked")

    monkeypatch.setattr(master, "step_to", no_window)
    model = build_two_mass(TwoMassParams(t_end=1.0))
    with pytest.raises(ConfigError, match=r"key 'dt': 1e-07 needs more than 5000000"):
        run_jacobi(model.problem, 1e-7)


def test_problem_validation_rejects_mismatches():
    src = _const_source()
    graph = CouplingGraph()
    with pytest.raises(ConfigError, match="t_end"):
        CosimProblem((src,), graph, 0.0, 0.0).validate()
    for dt0 in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="dt0"):
            CosimProblem((dataclasses.replace(src, dt0=dt0),), graph, 0.0, 1.0)
    # the source has no inputs, so a link into its input 0 is invalid
    bad_slot = CouplingGraph({(0, 0): (0, 0)})
    with pytest.raises(ConfigError, match="no input slot 0"):
        CosimProblem((src,), bad_slot, 0.0, 1.0).validate()


def test_problem_refuses_a_subsystem_without_a_startup_step():
    # a free subsystem starts at its spec's dt0; a spec without one names
    # its label when the problem is validated, before any event runs
    src = dataclasses.replace(_const_source(), dt0=None)
    problem = CosimProblem((src,), CouplingGraph(), 0.0, 1.0)
    with pytest.raises(ConfigError, match=r"^source: no startup step dt0$"):
        problem.validate()
    with pytest.raises(ConfigError, match="source"):
        run_f3ornits(problem, _options())
    with pytest.raises(ConfigError, match="source"):
        run_jacobi(problem, 0.1)


@pytest.mark.parametrize("bound", [None, 0.01])
@pytest.mark.parametrize("t_init,t_end", [
    (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
])
def test_problem_validation_rejects_a_non_finite_horizon(t_init, t_end, bound):
    # an infinite horizon used to pass without a micro-step bound and run
    # into the event valve, and to be refused for its micro-step budget
    # with one
    src = dataclasses.replace(_sine_source(), max_micro_step=bound)
    problem = CosimProblem((src,), CouplingGraph(), t_init, t_end)
    with pytest.raises(ConfigError, match="t_init and t_end must be finite"):
        problem.validate()


def test_problem_validation_bounds_an_imposed_step_by_the_event_budget(
    monkeypatch,
):
    # 5 s in steps of 1e-6 is exactly the budget; a finer imposed step used
    # to pass validation and run toward the event valve
    def no_window(*args):
        raise AssertionError("a window was walked")

    monkeypatch.setattr(master, "step_to", no_window)
    model = build_two_mass(TwoMassParams(t_end=5.0))

    def with_step(step):
        left, right = model.problem.subsystems
        right = dataclasses.replace(right, imposed_step=step)
        return dataclasses.replace(model.problem, subsystems=(left, right))

    with_step(1e-6).validate()
    with pytest.raises(
        ConfigError,
        match=r"mass_right's imposed step: 9.9e-07 needs more than 5000000 events",
    ):
        run_f3ornits(with_step(0.99e-6), MasterOptions())


def test_problem_validation_reads_the_budget_the_event_loop_stops_at(
    monkeypatch,
):
    def no_window(*args):
        raise AssertionError("a window was walked")

    monkeypatch.setattr(master, "step_to", no_window)
    monkeypatch.setattr(master, "MAX_EVENTS", 100)

    def with_step(step):
        sink = dataclasses.replace(_integrating_sink(), imposed_step=step)
        return _pair_problem(_sine_source(), sink, t_end=5.0)

    with_step(0.05).validate()
    with pytest.raises(
        ConfigError, match=r"sink's imposed step: 0.049 needs more than 100 events"
    ):
        run_f3ornits(with_step(0.049), _options())


def test_only_consumers_that_take_cubics_smooth(tmp_path):
    # the master decides per consumer whether it smooths: smoothing on and
    # cubics within its input degree
    model = build_two_mass(TwoMassParams(t_end=10.0))
    left, right = model.problem.subsystems
    right = dataclasses.replace(right, max_input_degree=1)
    problem = dataclasses.replace(model.problem, subsystems=(left, right))
    trace = run_f3ornits(problem, MasterOptions(smoothing=True))
    trace.write_csv(tmp_path, "run")

    def smoothed_cells(label):
        cols = read_trace_csv(tmp_path / f"run_{label}.csv")
        return [c for h, col in cols.items() if h.endswith("_smoothed") for c in col]

    assert set(smoothed_cells("mass_right")) == {0.0}
    assert 1.0 in smoothed_cells("mass_left")


def test_duplicate_labels_rejected():
    graph = CouplingGraph()
    problem = CosimProblem(
        subsystems=(_const_source(1.0, "same"), _const_source(2.0, "same")),
        graph=graph,
        t_init=0.0,
        t_end=1.0,
    )
    with pytest.raises(ConfigError, match="unique"):
        run_f3ornits(problem, _options())


#: the module globals bench/tracer.py wraps, and what it reads off a call:
#: (module, name, check of the call's arguments and result)
TRACED = (
    (master, "step_to", lambda args, r: isinstance(args[0], SubsystemSpec)),
    (master, "build_plan", lambda args, r: r[0].smoothed in (True, False)),
    (master, "select_order", None),
    (master, "estimate_output", None),
    (master, "normalized_error", None),
    (master, "update_damped_bounds", None),
    (master, "propose", lambda args, r: r.rho > 0.0),
    (master, "reconcile", lambda args, r: all(
        args[0][k].estimated >= 0.0 for k in range(len(r))
    )),
    (inputs, "cap_degree", lambda args, r: r is args[0] or args[0].degree > args[1]),
    (orders, "fit_extrapolation", None),
)


def test_every_traced_call_stays_a_call_through_its_global(monkeypatch):
    # the benchmark's traced repetition times each of these by replacing
    # the global its caller looks up; a call fused into its caller would
    # vanish from the trace, and a broken hook contract would stop it
    calls = collections.Counter()

    def counted(name, fn, check):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            assert check is None or check(args, result), name
            return result
        return wrapper

    for module, name, check in TRACED:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name), check))
    model = build_two_mass(TwoMassParams(t_end=5.0))
    trace = run_f3ornits(model.problem, MasterOptions())

    specs = model.problem.subsystems
    windows = [trace.subsystems[s.label].steps for s in specs]
    rows = sum(st.n_rows for st in trace.subsystems.values())
    outputs = sum(w * s.n_out for w, s in zip(windows, specs))
    assert calls["step_to"] == sum(windows) == rows - len(specs)
    assert calls["build_plan"] == calls["cap_degree"] == sum(
        w * s.n_in for w, s in zip(windows, specs)
    )
    for name in ("select_order", "estimate_output", "normalized_error",
                 "update_damped_bounds", "fit_extrapolation"):
        assert calls[name] == outputs, name
    assert calls["propose"] == sum(
        w for w, s in zip(windows, specs) if s.imposed_step is None and s.n_out
    )
    assert calls["reconcile"] == trace.total_events + 1


@pytest.mark.parametrize("record", [
    InputPlan(Polynomial(0.0, (1.0,)), 0.0, False),
    DampedBounds(damp_max=1.0, damp_min=0.0, alpha=1.0, global_max=1.0, global_min=0.0),
    OrderDecision(order=1, candidate_errors={0: 0.5, 1: 0.25}),
    StepProposal(rho=1.0, dt_next=0.1, t_next_estimated=1.1),
    Polynomial(t_ref=0.0, coeffs=(1.0,)),
], ids=lambda r: type(r).__name__)
def test_exchanged_records_refuse_assignment(record):
    # tuple records, frozen as the dataclasses were; dataclasses'
    # FrozenInstanceError is an AttributeError too
    for name in (*record._fields, "anything"):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name, 0.0))
    assert type(record)(**record._asdict()) == record
