"""Config parsing, materialization, CSV round-trips, and the CLI contract."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f3ornits import cli, master
from f3ornits.config import (
    RunConfig,
    config_from_mapping,
    materialize,
    parse_kv_text,
)
from f3ornits.errors import ConfigError
from f3ornits.master import MasterOptions, run_f3ornits
from f3ornits.models import (
    build_model,
    build_two_mass,
    monolithic_reference,
    reference_gap,
)
from f3ornits.report import ComparisonRow, compute_rmse, run_comparison
from f3ornits.stepper import Tolerances
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
    assert cfg.params == {"k1": 2.5}
    assert cfg.dt0_per_label == {"mass_left": 0.02}
    assert cfg.caps_overrides == {"mass_right": {"imposed_step": 0.25}}


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


# ------------------------------------------------------------ materializing

def test_materialize_derives_step_bounds_from_the_model():
    setup = materialize(RunConfig(model="two_mass"))
    tol = setup.options.tolerances
    assert tol.dt_min == min(setup.model.problem.dt0) == 0.01
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
    assert problem.dt0 == (0.2, 0.4)
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
    rms = math.sqrt(float(np.mean((interp - ref) ** 2)))
    return 100.0 * rms / float(ref.max() - ref.min())


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
])
def test_cli_rejects_meaningless_inputs(argv, key, tmp_path, capsys):
    # each of these used to end in a raw traceback or in a run without
    # meaning; it must be a configuration error that names the key
    assert cli.main(argv + ["--t-end", "2", "--output-dir", str(tmp_path)]) == 1
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
