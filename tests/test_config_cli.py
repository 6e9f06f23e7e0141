"""Config parsing, materialization, CSV round-trips, and the CLI contract."""

import functools
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits import cli, master, parallel, report
from f3ornits.config import (
    RunConfig,
    config_from_mapping,
    materialize,
    parse_kv_text,
)
from f3ornits.errors import (
    CalibrationError,
    ConfigError,
    ContractViolation,
    DivergenceError,
    SequencingError,
    read_value,
)
from f3ornits.coupling import CouplingGraph
from f3ornits.master import CosimProblem, MasterOptions, run_f3ornits
from f3ornits.models import (
    build_model,
    build_two_mass,
    monolithic_reference,
    reference_gap,
)
from f3ornits.report import (
    F3_VARIANTS,
    JACOBI_GRID_STEPS,
    ComparisonRow,
    compute_rmse,
    run_comparison,
)
from f3ornits.stepper import Tolerances
from f3ornits.subsystem import Derivatives, SubsystemSpec
from f3ornits.trace import format_float, read_trace_csv


# ------------------------------------------------------------------ parsing

def test_parse_kv_ignores_comments_and_blanks():
    raw = parse_kv_text(
        "# header\n\nmodel = two_mass   # trailing\n  t_end = 5\n"
    )
    assert raw == {"model": "two_mass", "t_end": "5"}


def test_parse_kv_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv_text("model = car\njust words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("model = car\nmodel = car\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv_text("= 3\n")


def test_mapping_routes_dotted_keys():
    cfg = config_from_mapping({
        "model": "two_mass",
        "smoothing": "yes",
        "param.k1": "2.5",
        "dt0.mass_left": "0.02",
        "caps.mass_right.imposed_step": "0.25",
    })
    assert cfg.smoothing is True
    # a dotted value stays text until materialize knows its field
    assert cfg.params == {"k1": "2.5"}
    assert cfg.dt0_per_label == {"mass_left": "0.02"}
    assert cfg.caps_overrides == {"mass_right": {"imposed_step": "0.25"}}
    model = materialize(cfg).model
    left, right = model.problem.subsystems
    assert (model.params.k1, left.dt0, right.imposed_step) == (2.5, 0.02, 0.25)


def test_mapping_names_every_unknown_key():
    with pytest.raises(ConfigError, match="bogus.*caps.mass_left.colour"):
        config_from_mapping({
            "model": "car",
            "bogus": "1",
            "caps.mass_left.colour": "red",
        })
    with pytest.raises(ConfigError, match="missing required key 'model'"):
        config_from_mapping({"t_end": "5"})
    with pytest.raises(ConfigError, match="'nu'"):
        config_from_mapping({"model": "car", "nu": "soft"})


@pytest.mark.parametrize("hint,value,want", [
    (int, "7", 7), (int, "7.0", 7), (int, "1e3", 1000), (int, 7.0, 7),
    (int, "9007199254740993", 9007199254740993),
    (int | None, "-2", -2), (float, "0.1", 0.1), (float, 3, 3.0),
    (bool, "Yes", True), (bool, "off", False), (str, "runs", "runs"),
])
def test_read_value_gives_the_field_its_type(hint, value, want):
    got = read_value("k", value, hint)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("hint,value,refusal", [
    (int, "7.6", "must be an integer"), (int, "nan", "must be finite"),
    (int, "abc", "cannot read"), (float, "inf", "must be finite"),
    (float, "abc", "cannot read"), (bool, "maybe", "cannot read"),
])
def test_read_value_refuses_under_the_key(hint, value, refusal):
    with pytest.raises(ConfigError, match=f"^key 'k': {refusal}"):
        read_value("k", value, hint)


def test_paired_spellings_read_one_number_alike():
    # a plain key and its dotted twin, both text, land as the same exact int
    def setup(model, **raw):
        return materialize(config_from_mapping({"model": model, **raw}))

    for text, want in (("7.0", 7), ("9007199254740993", 9007199254740993)):
        for key in ("seed", "param.seed"):
            seed = setup("car", **{key: text}).model.params.seed
            assert seed == want and type(seed) is int, (key, text)
    order = setup("two_mass", force_order="2.0").options.force_order
    capped = setup("two_mass", **{"caps.mass_right.max_input_degree": "2.0"})
    degree = capped.model.problem.subsystems[1].max_input_degree
    assert (order, degree) == (2, 2) and type(order) is type(degree) is int


# ------------------------------------------------------------ materializing

def test_materialize_derives_step_bounds_from_the_model():
    setup = materialize(RunConfig(model="two_mass"))
    tol = setup.options.tolerances
    assert tol.dt_min == min(s.dt0 for s in setup.model.problem.subsystems) == 0.01
    assert tol.dt_max == pytest.approx(200.0 / 10.0)
    assert setup.variable == ("mass_left", 0)


def test_materialize_defaults_are_the_master_defaults():
    options = materialize(RunConfig(model="two_mass")).options
    defaults = MasterOptions()
    assert options == replace(
        defaults,
        tolerances=replace(defaults.tolerances, dt_min=0.01, dt_max=20.0),
    )


def test_materialize_respects_explicit_bounds_and_variable():
    setup = materialize(RunConfig(
        model="two_mass", dt_min=0.2, dt_max=2.0, rmse_variable="mass_right:0",
    ))
    assert setup.options.tolerances.dt_min == 0.2
    assert setup.options.tolerances.dt_max == 2.0
    assert setup.variable == ("mass_right", 0)


def test_materialize_validates_choice_fields():
    with pytest.raises(ConfigError, match="'method'"):
        materialize(RunConfig(model="two_mass", method="gauss"))
    with pytest.raises(ConfigError, match="'calibration'"):
        materialize(RunConfig(model="two_mass", calibration="spline"))
    with pytest.raises(ConfigError, match="'error_norm'"):
        materialize(RunConfig(model="two_mass", error_norm="euclid"))
    with pytest.raises(ConfigError, match="'dt'"):
        materialize(RunConfig(model="two_mass", method="jacobi"))
    with pytest.raises(ConfigError, match="'seed'"):
        materialize(RunConfig(model="car"))


@pytest.mark.parametrize("value", ["3", "-1"])
def test_force_order_out_of_range_names_the_key(value):
    # a config read from text states the order; the method has orders 0..2
    cfg = config_from_mapping({"model": "two_mass", "force_order": value})
    with pytest.raises(ConfigError, match=r"key 'force_order': .* not in 0\.\.2"):
        materialize(cfg)
    assert materialize(replace(cfg, force_order=2)).options.force_order == 2


def test_materialize_applies_dt0_and_caps_overrides():
    setup = materialize(RunConfig(
        model="two_mass",
        dt0=0.2,
        dt0_per_label={"mass_right": 0.4},
        caps_overrides={"mass_right": {"imposed_step": 0.5}},
    ))
    problem = setup.model.problem
    assert [s.dt0 for s in problem.subsystems] == [0.2, 0.4]
    assert problem.subsystems[1].imposed_step == 0.5
    assert problem.subsystems[0].imposed_step is None


def test_materialize_reports_a_refused_capability_once_under_its_key():
    # the spec names its label; the key already does, so it is said once
    with pytest.raises(ConfigError) as exc:
        materialize(RunConfig(
            model="two_mass", caps_overrides={"mass_left": {"imposed_step": 0.0}},
        ))
    assert str(exc.value) == (
        "key 'caps.mass_left.imposed_step': imposed_step must be finite and "
        "positive, got 0.0"
    )


def test_materialize_bounds_an_imposed_step_by_the_event_budget():
    # 5 s in steps of 1e-6 is exactly the budget; anything finer cannot end
    budget = master.MAX_EVENTS
    assert 5.0 / 1e-6 == budget
    setup = materialize(RunConfig(
        model="two_mass", t_end=5.0,
        caps_overrides={"mass_right": {"imposed_step": 1e-6}},
    ))
    assert setup.model.problem.subsystems[1].imposed_step == 1e-6
    with pytest.raises(ConfigError, match="'caps.mass_right.imposed_step'"):
        materialize(RunConfig(
            model="two_mass", t_end=5.0,
            caps_overrides={"mass_right": {"imposed_step": 0.99e-6}},
        ))


def test_materialize_bounds_dt_max_by_the_event_budget(monkeypatch):
    # 5 s in windows of at most 1e-6 is exactly the budget; a finer dt_max
    # cannot end, and compare refuses it before any row runs
    assert 5.0 / 1e-6 == master.MAX_EVENTS
    setup = materialize(RunConfig(model="two_mass", t_end=5.0, dt_min=1e-7,
                                  dt_max=1e-6))
    assert setup.options.tolerances.dt_max == 1e-6
    with pytest.raises(ConfigError,
                       match=r"^key 'dt_max': 9.9e-07 needs more than 5000000"):
        materialize(RunConfig(model="two_mass", t_end=5.0, dt_min=1e-7,
                              dt_max=0.99e-6))

    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(cli, "run_comparison", no_rows)
    assert cli.main(["compare", "--model", "two_mass", "--dt-min", "1e-7",
                     "--dt-max", "1e-7", "--t-end", "1"]) == 1


def test_materialize_rejects_stray_labels():
    with pytest.raises(ConfigError, match="ghost"):
        materialize(RunConfig(model="two_mass", dt0_per_label={"ghost": 0.1}))
    with pytest.raises(ConfigError, match="ghost"):
        materialize(RunConfig(
            model="two_mass", caps_overrides={"ghost": {"imposed_step": 1.0}}
        ))
    with pytest.raises(ConfigError, match="rmse_variable"):
        materialize(RunConfig(model="two_mass", rmse_variable="mass_left"))
    with pytest.raises(ConfigError, match="out of range"):
        materialize(RunConfig(model="two_mass", rmse_variable="mass_right:4"))


def test_materialize_passes_t_end_and_seed_through_params():
    setup = materialize(RunConfig(model="car", seed=11, t_end=12.0))
    assert setup.model.params.seed == 11
    assert setup.model.params.t_end == 12.0


# -------------------------------------------------------------------- rmse

def test_rmse_conventions():
    t = [0.0, 1.0, 2.0, 3.0]
    ref = [0.0, 1.0, 0.0, -1.0]
    assert compute_rmse(t, ref, t, ref) == 0.0
    amplitude = max(ref) - min(ref)
    shifted = [v + 0.01 * amplitude for v in ref]
    assert compute_rmse(t, shifted, t, ref) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        compute_rmse(t, ref, t, [2.0, 2.0, 2.0, 2.0])


def test_rmse_resamples_onto_the_reference_grid():
    # trace sampled twice as densely as the reference, same underlying line
    trace_t = [0.0, 0.5, 1.0, 1.5, 2.0]
    trace_y = [2 * v for v in trace_t]
    ref_t = [0.0, 1.0, 2.0]
    ref_y = [0.0, 2.0, 4.0]
    assert compute_rmse(trace_t, trace_y, ref_t, ref_y) == 0.0


def _numpy_rmse(trace_t, trace_y, ref_t, ref_y):
    ref = np.asarray(ref_y, dtype=float)
    interp = np.interp(np.asarray(ref_t, dtype=float),
                       np.asarray(trace_t, dtype=float),
                       np.asarray(trace_y, dtype=float))
    # residuals in units of the span, divided by their peak before squaring:
    # a span of 1e-304 must not underflow the squares, nor 1e200 overflow them
    rel = (interp - ref) / float(ref.max() - ref.min())
    peak = float(np.abs(rel).max())
    if peak == 0.0 or math.isinf(peak):
        return 100.0 * peak
    return 100.0 * (peak * math.sqrt(float(np.mean((rel / peak) ** 2))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rmse_matches_a_numpy_interp_oracle(data):
    value = st.floats(-1e3, 1e3)
    t = data.draw(st.floats(-5.0, 5.0))
    trace_t = [t]
    for step in data.draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=30)):
        t += step
        trace_t.append(t)
    trace_y = data.draw(st.lists(value, min_size=len(trace_t), max_size=len(trace_t)))
    # reference times inside, outside and exactly on the trace's knots
    inside = st.floats(trace_t[0] - 1.0, trace_t[-1] + 1.0)
    ref_t = data.draw(st.lists(st.one_of(inside, st.sampled_from(trace_t)),
                               min_size=2, max_size=40))
    ref_y = data.draw(st.lists(value, min_size=len(ref_t), max_size=len(ref_t)))
    if max(ref_y) == min(ref_y):
        ref_y[0] += 1.0
    got = compute_rmse(trace_t, trace_y, ref_t, ref_y)
    want = _numpy_rmse(trace_t, trace_y, ref_t, ref_y)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_rmse_of_a_series_scaled_by_1e200_is_the_same_percent():
    # the residuals' squares overflow, the score must not: a run whose
    # states grow to 1e273 is scored, not ended by an OverflowError
    trace_t = [0.0, 1.0, 2.0, 3.0]
    trace_y = [0.0, 0.5, -0.25, 1.0]
    ref_t = [0.0, 0.5, 1.5, 2.5, 3.0]
    ref_y = [0.1, 0.2, 0.0, 0.4, 0.9]
    scaled = compute_rmse(trace_t, [1e200 * y for y in trace_y],
                          ref_t, [1e200 * r for r in ref_y])
    assert scaled == pytest.approx(
        compute_rmse(trace_t, trace_y, ref_t, ref_y), rel=1e-12
    )


def test_comparison_row_labels():
    row = ComparisonRow("jacobi", "", False, "", 0.1, 2000, 0.4, "ok")
    assert row.setting() == "dt=0.1"
    row = ComparisonRow("f3ornits", "cls", True, "damped", 0.01, 700, 0.2, "ok")
    assert row.setting() == "cls|smoothed|damped"


def test_comparison_matrix_shape():
    from f3ornits.models import TwoMassParams

    model = build_two_mass(TwoMassParams(t_end=5.0))
    setup = materialize(RunConfig(model="two_mass", t_end=5.0))
    rows = run_comparison(model, setup.options, ("mass_left", 0))
    assert len(rows) == 5 + 12
    assert [r.method for r in rows[:5]] == ["jacobi"] * 5
    assert all(r.method == "f3ornits" for r in rows[5:])
    assert all(r.status == "ok" and r.rmse_percent >= 0.0 for r in rows)
    assert len({r.setting() for r in rows}) == 17


# ------------------------------------------- comparison rows across processes

@pytest.fixture
def deadline():
    """A hung call fails its test after 60 s instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the call did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exc", [
    DivergenceError("monolith", 1.5),
    ConfigError("key 'tol_rel': must be finite, got 'nan'"),
    ContractViolation("mass_right: degree 3 over its cap 1"),
    CalibrationError("duplicate sample times"),
    SequencingError("window end 1.0 before its start 2.0"),
], ids=lambda exc: type(exc).__name__)
def test_package_exceptions_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)


@pytest.mark.parametrize("config", [
    RunConfig(model="two_mass", t_end=5.0),
    RunConfig(model="car", seed=7, t_end=5.0),
    RunConfig(model="two_mass", t_end=20.0, params={"k2": -50000.0}),
], ids=["two_mass", "car", "all_diverging"])
def test_comparison_is_the_same_on_one_and_two_cpus(
    config, tmp_path, monkeypatch, deadline,
):
    setup = materialize(config)
    files = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)))
        rows = run_comparison(setup.model, setup.options, setup.variable)
        assert_no_child_left()
        out = tmp_path / str(cpus)
        files.append((
            rows,
            report.write_report_csv(rows, out / "report.csv").read_bytes(),
            report.write_scatter_csv(rows, out / "scatter.csv").read_bytes(),
        ))
    assert files[0] == files[1]
    statuses = {r.status for r in files[0][0]}
    assert statuses == ({"diverged"} if config.params else {"ok"})


def plant_rows(monkeypatch, fail):
    """Rows that run in no time and diverge, unless fail(i) raises for row i
    (row i being JACOBI_GRID_STEPS's i-th grid step, then F3_VARIANTS' in
    turn).  In the calling process each row first sleeps 0.1 s, so a child
    takes most rows."""
    caller = os.getpid()
    dts = JACOBI_GRID_STEPS
    variants = F3_VARIANTS

    def planted(i):
        if os.getpid() == caller:
            time.sleep(0.1)
        fail(i)
        raise DivergenceError("planted", 0.0)

    monkeypatch.setattr(
        report, "run_jacobi", lambda problem, dt: planted(dts.index(dt))
    )
    monkeypatch.setattr(report, "run_f3ornits", lambda problem, opts: planted(
        len(dts) + variants.index(
            (opts.calibration, opts.smoothing, opts.error_norm)
        )
    ))
    return planted


def planted_comparison(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)))
    setup = materialize(RunConfig(model="two_mass", t_end=5.0))
    try:
        return run_comparison(setup.model, setup.options, setup.variable)
    finally:
        assert_no_child_left()


def test_a_row_failing_in_a_child_reaches_the_caller(monkeypatch, deadline):
    def fail(i):
        if i == 14:
            raise KeyError(f"planted in row {i}")

    planted = plant_rows(monkeypatch, fail)
    raised = []
    for cpus in (1, 2):
        with pytest.raises(KeyError) as info:
            planted_comparison(cpus, monkeypatch)
        raised.append(info)
    assert [str(info.value) for info in raised] == ["'planted in row 14'"] * 2
    # with two CPUs no exception crosses a pipe: the caller runs the row no
    # process brought back, and its traceback passes through the planted
    # row, as on one CPU
    frames = [frame.f_code for frame, _ in traceback.walk_tb(raised[1].tb)]
    assert planted.__code__ in frames


def test_the_lowest_failing_row_wins(monkeypatch, deadline):
    def fail(i):
        if i == 6:
            time.sleep(1.0)  # in more than one process row 12 raises first
            raise ValueError("row 6")
        if i == 12:
            raise ValueError("row 12")

    plant_rows(monkeypatch, fail)
    for cpus in (1, 2, 3):
        with pytest.raises(ValueError, match="^row 6$"):
            planted_comparison(cpus, monkeypatch)


def test_a_failing_row_stops_the_rows_above_it(tmp_path, monkeypatch, deadline):
    log = tmp_path / "started"

    def fail(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")
        if i == 1:
            raise ValueError("row 1")
        time.sleep(0.3)

    plant_rows(monkeypatch, fail)
    with pytest.raises(ValueError, match="^row 1$"):
        planted_comparison(2, monkeypatch)
    # row 0 and row 1 once each, then row 1 again in the caller: no process
    # took a row above the failing one
    assert sorted(map(int, log.read_text().split())) == [0, 1, 1]


class Located(Exception):
    """Its __init__ takes more than its message, so a pickled copy fails to
    rebuild."""

    def __init__(self, label, t):
        super().__init__(f"{label} failed at t = {t}")


def holding_a_lambda(message):
    exc = ValueError(message)
    exc.hook = lambda: None  # refuses to pickle
    return exc


@pytest.mark.parametrize("make", [
    lambda: Located("planted", 1.5), lambda: holding_a_lambda("planted"),
], ids=["two_init_arguments", "lambda_attribute"])
def test_a_row_exception_that_does_not_pickle_is_the_one_cpu_one(
    make, tmp_path, monkeypatch, deadline,
):
    caller = os.getpid()
    log = tmp_path / "raised_in_a_child"

    def fail(i):
        if i == 12:
            with open(log, "a") as fh:
                fh.write(f"{int(os.getpid() != caller)}\n")
            raise make()

    plant_rows(monkeypatch, fail)
    raised = []
    for cpus in (1, 2):
        with pytest.raises(Exception) as info:
            planted_comparison(cpus, monkeypatch)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == (type(make()), str(make()))
    # on two CPUs a child raised it first, then the caller ran the row again
    assert log.read_text().split() == ["0", "1", "0"]


def test_a_killed_child_is_an_error_not_a_hang(monkeypatch, deadline):
    caller = os.getpid()

    def fail(i):
        if i == 10 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    plant_rows(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="ended without its rows"):
        planted_comparison(2, monkeypatch)


def test_an_interrupted_caller_kills_and_reaps_its_children(
    monkeypatch, deadline,
):
    caller = os.getpid()

    def fail(i):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(15)

    plant_rows(monkeypatch, fail)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        planted_comparison(2, monkeypatch)
    assert time.perf_counter() - start < 5


def test_more_processes_than_cpus_run_each_row_once(
    tmp_path, monkeypatch, deadline,
):
    # the queue hands out each index once: a lost or doubled index would
    # show as a missing or repeated line of the log every row appends to
    dts = tuple(0.001 * (i + 1) for i in range(400))
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run_jacobi(problem, dt):
        os.write(log, f"{dts.index(dt)}\n".encode())
        raise DivergenceError("planted", 0.0)

    monkeypatch.setattr(report, "run_jacobi", run_jacobi)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(6)))
    setup = materialize(RunConfig(model="two_mass", t_end=5.0))
    try:
        rows = run_comparison(
            setup.model, setup.options, setup.variable, jacobi_dts=dts
        )
    finally:
        os.close(log)
    assert_no_child_left()
    assert [r.dt for r in rows[:400]] == list(dts)
    ran = sorted(map(int, (tmp_path / "log").read_text().split()))
    assert ran == list(range(400))


def test_cli_compare_prints_its_table_once(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "f3ornits.cli", "compare", "--model", "two_mass",
         "--t-end", "5", "--output-dir", str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("method    setting") == 1
    assert proc.stdout.count("wrote ") == 1
    assert len(proc.stdout.splitlines()) == 2 + 17 + 1 + 1


def test_cli_compare_leaves_no_process_behind(tmp_path, capsys, deadline):
    two_mass = ["compare", "--model", "two_mass", "--output-dir", str(tmp_path)]
    assert cli.main(two_mass + ["--t-end", "5"]) == 0
    assert_no_child_left()
    assert cli.main(two_mass + ["--t-end", "5", "--jacobi-dts", "nan"]) == 1
    assert_no_child_left()
    assert cli.main(two_mass + ["--t-end", "20", "--param", "k2=-50000"]) == 2
    assert_no_child_left()


# ------------------------------------------------------ the one forked child

def test_a_child_carries_a_message_larger_than_a_pipe_child_to_parent(deadline):
    message = os.urandom(1 << 20)
    child = parallel.Child(lambda: message, "sending process", "message")
    try:
        assert child.receive() == message
    finally:
        child.close()
    assert_no_child_left()


def test_a_child_that_ends_before_replying_is_an_error_not_a_hang(deadline):
    def leave():
        raise ValueError("planted")

    child = parallel.Child(leave, "sending process", "message")
    try:
        with pytest.raises(
            RuntimeError,
            match=rf"^sending process {child.pid} ended without its message "
                  r"\(exit status 1\)$",
        ):
            child.receive()
    finally:
        child.close()
    assert_no_child_left()


def test_one_rule_says_when_a_process_may_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2})
    assert parallel.cpus(run_f3ornits) == 3
    assert parallel.cpus(functools.wraps(run_f3ornits)(lambda: None)) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert parallel.cpus() == 1
    finally:
        release.set()
        thread.join()


# ------------------------------------------------------ a run's one process

#: a fresh interpreter runs `cli.main(argv)` and prints which of the modules
#: only a fork needs it loaded
FORK_MODULES = """
import sys
from f3ornits import cli
assert cli.main(sys.argv[1:]) == 0
print(sorted({"f3ornits.parallel", "pickle"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    ["--model", "two_mass", "--t-end", "20"],
    ["--model", "car", "--seed", "7", "--t-end", "2"],
    # the car's vehicle and controller, over the car_long horizon, where
    # the process could fork
    pytest.param(["--model", "car", "--seed", "1", "--t-end", "300"],
                 marks=pytest.mark.skipif(
                     len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                     reason="a fork needs a second CPU in the affinity set",
                 )),
], ids=["two_mass", "short_car", "car"])
def test_a_run_that_forks_nothing_loads_no_fork_machinery(argv, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", FORK_MODULES, "run", *argv,
         "--output-dir", str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def network(heavy: int = 0, trips=(None, None, None)):
    """Three damped oscillators in a loop, 0 -> 1 -> 2 -> 0, each locked to
    a grid of 0.05, so all three are due at every event.  The heavy one
    takes 600 micro steps per window, the others 60.  Each f adds trip(t),
    0.0 unless trips[k] replaces it."""
    specs = []
    for k in range(3):
        trip = trips[k] or (lambda t: 0.0)
        constants = (("trip", trip), ("w", 1.0 + 0.5 * k))
        f = Derivatives(("x1", "-w * w * x0 - 0.2 * x1 + u0 + trip(t)"), constants)
        specs.append(SubsystemSpec(
            f"osc{k}", 2, 1, 1, f, Derivatives(("x0",), constants),
            (1.0 - 0.5 * k, 0.0), max_micro_step=0.05 / (600 if k == heavy else 60),
            imposed_step=0.05, dt0=0.05,
        ))
    graph = CouplingGraph({(0, 0): (2, 0), (1, 0): (0, 0), (2, 0): (1, 0)})
    return CosimProblem(tuple(specs), graph, 0.0, 6.0)


#: which oscillator is the heavy one; the ids keep the names these cases
#: had when a partner process walked the heavy oscillator
HEAVY_IDS = ["partner_walks_osc0", "partner_walks_osc1"]


def trip_after(t_fail, exc):
    def trip(t):
        if t > t_fail:
            raise exc
        return 0.0
    return trip


def raised_by(problem):
    """The exception run_f3ornits raises on the problem."""
    with pytest.raises(Exception) as info:
        run_f3ornits(problem, MasterOptions())
    return info.value


@pytest.mark.parametrize("heavy", [0, 1], ids=HEAVY_IDS)
def test_the_lowest_failing_window_of_an_event_wins(heavy):
    trips = (trip_after(3.0, ValueError("osc0 tripped")),
             trip_after(3.0, ValueError("osc1 tripped")), None)
    exc = raised_by(network(heavy, trips))
    assert isinstance(exc, ValueError) and str(exc) == "osc0 tripped"
    # the exception is the one of the window's own walk
    frames = [frame.f_code.co_name for frame, _ in traceback.walk_tb(exc.__traceback__)]
    assert frames[-1] == "trip"


@pytest.mark.parametrize("heavy", [0, 1], ids=HEAVY_IDS)
def test_a_later_plan_failure_loses_to_an_earlier_walk(heavy, monkeypatch):
    problem = network(heavy, (trip_after(3.0, ValueError("osc0 tripped")), None, None))

    # osc1's plans, built after osc0's, fail at the same event as osc0's walk
    planning, plan, plans = [], master.build_plan, master._plan

    def build_plan(log, t_start, t_end, *args):
        if t_end > 3.0 and planning == ["osc1"]:
            raise ValueError("osc1's plan tripped")
        return plan(log, t_start, t_end, *args)

    def labelled(rt, t_event):
        planning[:] = [rt.spec.label]
        return plans(rt, t_event)

    monkeypatch.setattr(master, "build_plan", build_plan)
    monkeypatch.setattr(master, "_plan", labelled)
    exc = raised_by(problem)
    assert isinstance(exc, ValueError) and str(exc) == "osc0 tripped"
    # without osc0's trip, osc1's plan is what fails
    exc = raised_by(network(heavy))
    assert isinstance(exc, DivergenceError) and "osc1" in str(exc)


def test_every_failing_window_wins_over_every_failing_publication(monkeypatch):
    publish, failing = master._publish, []

    def planted(rt, t_event, *args):
        if t_event > 3.0 and rt.spec.label in failing:
            raise ValueError(f"{rt.spec.label} published")
        return publish(rt, t_event, *args)

    monkeypatch.setattr(master, "_publish", planted)
    failing[:] = ["osc0", "osc1"]
    exc = raised_by(network())
    assert str(exc) == "osc0 published"
    # a walk that fails comes before any publication, a lower one too
    failing[:] = ["osc0"]
    walk_fails = (None, trip_after(3.0, ValueError("osc1 tripped")), None)
    exc = raised_by(network(trips=walk_fails))
    assert str(exc) == "osc1 tripped"


def on_one_cpu(call):
    """call(), with this process pinned to the first CPU of its affinity set."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return call()
    finally:
        os.sched_setaffinity(0, cpus)


def test_cli_run_leaves_no_process_behind(tmp_path, capsys, deadline):
    car = ["run", "--model", "car", "--seed", "7", "--output-dir", str(tmp_path)]
    assert cli.main(car + ["--t-end", "20"]) == 0
    assert_no_child_left()
    assert cli.main(car + ["--t-end", "20", "--tol-rel", "nan"]) == 1
    assert_no_child_left()
    # the controller diverges after t = 13
    diverging = car + ["--t-end", "20", "--param", "mass=1e-9"]
    assert cli.main(diverging) == 2
    assert_no_child_left()
    unpinned = capsys.readouterr().err.splitlines()[-1]
    assert on_one_cpu(lambda: cli.main(diverging)) == 2
    assert capsys.readouterr().err.splitlines()[-1] == unpinned
    assert unpinned.startswith("diverged: ")


def test_a_refused_fork_leaves_the_work_in_this_process(monkeypatch, deadline):
    setup = materialize(RunConfig(model="two_mass", t_end=5.0))

    def rows(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)))
        return run_comparison(setup.model, setup.options, setup.variable)

    one = rows(1)
    forks = []

    def refuse():
        forks.append(os.getpid())
        raise OSError("planted: no more processes")

    monkeypatch.setattr(os, "fork", refuse)
    fds = len(os.listdir("/proc/self/fd"))
    # compare's rows stay with the processes already running
    assert rows(2) == one
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == fds
    assert_no_child_left()


# ----------------------------------------------------------- CSV round trip

def test_trace_csv_round_trips_bit_exactly(tmp_path):
    two_mass = materialize(RunConfig(model="two_mass", t_end=5.0))
    car = materialize(RunConfig(model="car", seed=7, smoothing=True))
    runs = {
        "rt": run_f3ornits(two_mass.model.problem, two_mass.options),
        "car": run_f3ornits(car.model.problem, car.options),
        "jacobi": master.run_jacobi(two_mass.model.problem, 0.1),
    }
    assert any(runs["car"].subsystems["vehicle"].column("u0_smoothed"))
    # every column of every subsystem reads back as the trace holds it
    for prefix, run in runs.items():
        paths = run.write_csv(tmp_path, prefix)
        assert [p.name for p in paths] == [
            f"{prefix}_{label}.csv" for label in run.subsystems
        ] + [f"{prefix}_summary.csv"]
        for label, st in run.subsystems.items():
            cols = read_trace_csv(tmp_path / f"{prefix}_{label}.csv")
            assert list(cols) == st.header()
            for name in st.header():
                assert cols[name] == st.column(name), (prefix, label, name)


def test_format_float_survives_parsing():
    for x in (0.1, 1 / 3, 1e-300, -math.pi, 6.02e23, 5.0):
        assert float(format_float(x)) == x


# -------------------------------------------------------------------- CLI

def _read_bytes_without_wall_time(path):
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.startswith(b"wall_time_s"))


def test_cli_runs_are_byte_deterministic(tmp_path):
    args = [
        "run", "--model", "two_mass", "--t-end", "5",
        "--prefix", "det",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--output-dir", str(a)]) == 0
    assert cli.main(args + ["--output-dir", str(b)]) == 0
    for name in ("det_mass_left.csv", "det_mass_right.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert _read_bytes_without_wall_time(
        a / "det_summary.csv"
    ) == _read_bytes_without_wall_time(b / "det_summary.csv")


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = two_mass\nmethod = jacobi\ndt = 0.5\nt_end = 5\n"
        f"output_dir = {tmp_path / 'from_file'}\nprefix = p\n"
    )
    assert cli.main(["run", "--config", str(cfg), "--t-end", "2"]) == 0
    cols = read_trace_csv(tmp_path / "from_file" / "p_mass_left.csv")
    assert cols["t"][-1] == 2.0


def test_cli_env_var_sets_output_dir_but_flag_wins(tmp_path, monkeypatch):
    envdir = tmp_path / "from_env"
    flagdir = tmp_path / "from_flag"
    monkeypatch.setenv("F3ORNITS_OUTPUT_DIR", str(envdir))
    args = ["run", "--model", "two_mass", "--method", "jacobi",
            "--dt", "0.5", "--t-end", "2"]
    assert cli.main(args) == 0
    assert (envdir / "run_summary.csv").exists()
    assert cli.main(args + ["--output-dir", str(flagdir)]) == 0
    assert (flagdir / "run_summary.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["run", "--model", "hovercraft"]) == 1
    assert "hovercraft" in capsys.readouterr().err
    assert cli.main(["run", "--model", "car", "--t-end", "2"]) == 1
    assert "seed" in capsys.readouterr().err
    code = cli.main([
        "run", "--model", "two_mass", "--method", "jacobi", "--dt", "0.4",
        "--t-end", "70", "--param", "k2=1e5",
        "--output-dir", str(tmp_path),
    ])
    assert code == 2
    assert "mass_right" in capsys.readouterr().err
    # a reference that blows up is a divergence too, not a CSV of nan
    code = cli.main([
        "reference", "--model", "two_mass", "--param", "m1=1e-12",
        "--t-end", "1", "--output-dir", str(tmp_path),
    ])
    assert code == 2
    assert "monolith" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--smoothing"], ["--calibration", "cls"]])
def test_cli_exchange_overflow_exits_2(extra, tmp_path, capsys):
    # a blow-up that overflows the exchanged data before any state turns
    # non-finite is a divergence too, not a traceback and exit 1
    code = cli.main([
        "run", "--model", "two_mass", "--param", "k2=-50000", "--t-end", "20",
        "--output-dir", str(tmp_path), *extra,
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("diverged: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["tol_rel", "nu", "t_end", "dt_max", "dt"])
def test_cli_rejects_non_finite_settings(key, value, tmp_path, capsys):
    # a NaN or infinite setting would silently switch off step control or
    # run toward the event valve; it must fail as a configuration error
    # that names the key
    code = cli.main([
        "run", "--model", "two_mass", "--method", "jacobi", "--dt", "0.1",
        f"--{key.replace('_', '-')}={value}", "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_options_reject_non_finite_values(value):
    for key in ("tol_rel", "tol_abs", "rho_min", "rho_max", "nu", "dt_min",
                "dt_max"):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            Tolerances(**{key: value})


def test_cli_rejects_non_positive_parameters(capsys):
    assert cli.main(["run", "--model", "two_mass", "--param", "m1=0"]) == 1
    assert "'m1'" in capsys.readouterr().err
    assert cli.main([
        "run", "--model", "car", "--seed", "7", "--param", "tau_diff=0",
    ]) == 1
    assert "'tau_diff'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["run", "--model", "two_mass", "--param", "x1_0=nan"], "'x1_0'"),
    (["run", "--model", "two_mass", "--param", "x1_0=inf"], "'x1_0'"),
    (["run", "--model", "two_mass", "--param", "t_switch=nan"], "'t_switch'"),
    (["run", "--model", "car", "--param", "seed=nan"], "'seed'"),
    (["run", "--model", "car", "--param", "seed=inf"], "'seed'"),
    (["run", "--model", "car", "--seed", "7", "--param", "preset_force=1"],
     "'preset_force'"),
    (["run", "--model", "two_mass",
      "--set", "caps.mass_right.max_input_degree=nan"],
     "'caps.mass_right.max_input_degree'"),
    (["run", "--model", "two_mass",
      "--set", "caps.mass_right.max_input_degree=-1"],
     "'caps.mass_right.max_input_degree'"),
    (["run", "--model", "two_mass", "--set", "caps.mass_left.imposed_step=0"],
     "'caps.mass_left.imposed_step'"),
    (["run", "--model", "two_mass",
      "--set", "caps.mass_right.imposed_step=1e-7"],
     "'caps.mass_right.imposed_step'"),
    (["reference", "--model", "two_mass", "--micro-step", "0"], "'micro_step'"),
    (["reference", "--model", "two_mass", "--micro-step", "nan"], "'micro_step'"),
    (["reference", "--model", "two_mass", "--micro-step", "1e-8",
      "--record-dt", "1e-5"], "'micro_step'"),
    (["reference", "--model", "two_mass", "--record-dt", "inf"], "'record_dt'"),
    (["reference", "--model", "two_mass", "--micro-step", "2e-3"], "'record_dt'"),
    (["run", "--model", "car", "--seed", "7", "--param", "tau_diff=1e-9"],
     "controller"),
    (["compare", "--model", "two_mass", "--jacobi-dts", "nan,0.1"], "--jacobi-dts"),
    (["run", "--model", "two_mass", "--method", "jacobi", "--dt", "1e-7"],
     "'dt'"),
    (["compare", "--model", "two_mass", "--jacobi-dts", "1e-7"], "'dt'"),
    (["run", "--model", "two_mass", "--tol-rel", "-1"], "'tol_rel'"),
    (["run", "--model", "two_mass", "--rho-min", "2"], "'rho_min'"),
    (["run", "--model", "two_mass", "--nu", "-1"], "'nu'"),
    (["run", "--model", "two_mass", "--dt-min", "1", "--dt-max", "0.5"],
     "'dt_max'"),
    # dt_min derives from dt0; dt_max from the appended --t-end 2
    (["run", "--model", "two_mass", "--dt0", "50"], "'dt0'"),
    (["run", "--model", "two_mass", "--set", "dt0.mass_left=nan"],
     "'dt0.mass_left'"),
    (["run", "--model", "two_mass", "--set", "dt0=-1",
      "--set", "dt0.mass_right=0.5"], "'dt0'"),
    (["run", "--model", "two_mass", "--dt-min", "0.5"], "'t_end'"),
    # every dotted override goes through one rule that names its key
    (["run", "--model", "two_mass", "--param", "k9=1"], "'param.k9'"),
    (["run", "--model", "car", "--param", "seed=7.6"], "'param.seed'"),
    (["run", "--model", "two_mass",
      "--set", "caps.mass_right.max_input_degree=1.5"],
     "'caps.mass_right.max_input_degree'"),
    (["run", "--model", "two_mass", "--set", "dt0.ghost=0.1"], "'dt0.ghost'"),
    (["run", "--model", "two_mass", "--set", "caps.ghost.imposed_step=1"],
     "'caps.ghost.imposed_step'"),
    # each is refused under the key the user typed; --set beats --t-end 2
    (["run", "--model", "two_mass", "--set", "t_end=nan"], "key 't_end'"),
    (["reference", "--model", "two_mass", "--micro-step", "abc"], "'micro_step'"),
    (["reference", "--model", "two_mass", "--record-dt", "abc"], "'record_dt'"),
    (["compare", "--model", "two_mass", "--jacobi-dts", "0.1,abc"],
     "--jacobi-dts"),
], ids=[
    "x1_0-nan", "x1_0-inf", "t_switch-nan", "seed-nan", "seed-inf",
    "preset_force", "caps-nan", "caps-degree-negative", "caps-step-zero",
    "caps-step-over-budget", "micro_step-0", "micro_step-nan",
    "micro_step-over-budget", "record_dt-inf", "record_dt-odd-stride",
    "tau_diff-over-budget",
    "jacobi_dts-nan", "jacobi-dt-over-budget", "jacobi_dts-over-budget",
    "tol_rel-negative", "rho_min-over-1", "nu-negative", "dt_max-below-dt_min",
    "dt0-over-derived-dt_max", "dt0-label-nan", "dt0-global-negative",
    "dt_min-over-t_end-derived-dt_max",
    "param-unknown", "param-seed-non-integral", "caps-degree-non-integral",
    "dt0-stray-label", "caps-stray-label",
    "t_end-nan", "micro_step-text", "record_dt-text", "jacobi_dts-text",
])
def test_cli_rejects_meaningless_inputs(argv, key, tmp_path, capsys):
    # each of these used to end in a raw traceback or in a run without
    # meaning; it must be a configuration error that names the key
    assert cli.main(argv + ["--t-end", "2", "--output-dir", str(tmp_path)]) == 1
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "--t-ned", "5"],
    [],
    ["reference", "--model", "two_mass", "--scheme", "rk3"],
], ids=["misspelled-flag", "no-subcommand", "bad-choice"])
def test_cli_usage_errors_exit_1(argv, capsys):
    # exit 2 means divergence; a typo must not pass for one
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: f3ornits") and "configuration error: " in err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert "--t-end" in capsys.readouterr().out


def test_cli_rejects_malformed_pairs(capsys):
    assert cli.main(["run", "--model", "car", "--param", "k1"]) == 1
    assert "NAME=VALUE" in capsys.readouterr().err
    assert cli.main(["run", "--model", "two_mass", "--set", "colour=red"]) == 1
    assert "colour" in capsys.readouterr().err


def test_cli_run_and_score_need_no_numpy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from f3ornits import cli\n"
        "sys.exit(cli.main(['run', '--model', 'two_mass', '--t-end', '5',"
        f" '--score', '--output-dir', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "rmse[mass_left:0]" in proc.stdout


def test_cli_run_score_prints_rmse(tmp_path, capsys):
    code = cli.main([
        "run", "--model", "two_mass", "--t-end", "5", "--score",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rmse[mass_left:0]" in out
    assert "reference h=0.001: h-vs-2h gap[mass_left:0] = " in out


def test_cli_scores_a_horizon_off_the_reference_grid(tmp_path, capsys):
    # 2.0005 s is no multiple of two_mass's reference step of 1e-3; the run
    # used to write its CSVs and then exit 1 on the reference
    code = cli.main([
        "run", "--model", "two_mass", "--t-end", "2.0005", "--score",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    assert "rmse[mass_left:0]" in capsys.readouterr().out


def test_cli_compare_writes_report(tmp_path, capsys):
    code = cli.main([
        "compare", "--model", "two_mass", "--t-end", "5",
        "--jacobi-dts", "0.1,0.5",
        "--output-dir", str(tmp_path), "--prefix", "m",
    ])
    assert code == 0
    report = (tmp_path / "m_report.csv").read_text().splitlines()
    assert len(report) == 1 + 2 + 12
    scatter = (tmp_path / "m_scatter.csv").read_text().splitlines()
    assert len(scatter) == 1 + 2 + 12
    out = capsys.readouterr().out
    assert "f3ornits" in out
    assert "reference h=0.001: h-vs-2h gap[mass_left:0] = " in out


def test_cli_compare_writes_its_files_before_a_diverging_reference(
    tmp_path, capsys,
):
    # every row diverges and so does the reference; compare exits 2 on the
    # reference after it wrote both CSVs, and says so first
    code = cli.main([
        "compare", "--model", "two_mass", "--param", "k2=-50000",
        "--t-end", "20", "--jacobi-dts", "0.5",
        "--output-dir", str(tmp_path), "--prefix", "m",
    ])
    assert code == 2
    captured = capsys.readouterr()
    report, scatter = tmp_path / "m_report.csv", tmp_path / "m_scatter.csv"
    assert f"wrote {report} and {scatter}" in captured.out
    assert report.is_file() and scatter.is_file()
    assert captured.err.startswith("diverged: monolith")


def test_cli_reference_matches_library_call(tmp_path, capsys):
    code = cli.main([
        "reference", "--model", "two_mass", "--t-end", "2",
        "--record-dt", "0.5", "--output-dir", str(tmp_path), "--prefix", "r",
    ])
    assert code == 0
    cols = read_trace_csv(tmp_path / "r_reference.csv")
    from f3ornits.models import TwoMassParams

    model = build_two_mass(TwoMassParams(t_end=2.0))
    ref = monolithic_reference(model, record_dt=0.5)
    assert cols["t"] == list(ref.t)
    assert cols["mass_left:1"] == list(ref.series[("mass_left", 1)])
    out = capsys.readouterr().out
    assert "(rk4, h=0.001)" in out
    for (label, j), gap in reference_gap(model, record_dt=0.5).items():
        assert f"h-vs-2h gap[{label}:{j}] = {gap:.2e} %" in out


def test_cli_reference_rows_are_format_float_cells(tmp_path):
    code = cli.main([
        "reference", "--model", "car", "--seed", "7", "--t-end", "1",
        "--output-dir", str(tmp_path), "--prefix", "r",
    ])
    assert code == 0
    ref = monolithic_reference(build_model("car", {"seed": 7, "t_end": 1.0}))
    keys = sorted(ref.series)
    lines = [",".join(["t"] + [f"{lb}:{j}" for lb, j in keys])]
    for i, t in enumerate(ref.t):
        lines.append(",".join(
            [format_float(t)] + [format_float(ref.series[k][i]) for k in keys]
        ))
    expected = "".join(line + "\n" for line in lines).encode()
    assert (tmp_path / "r_reference.csv").read_bytes() == expected
