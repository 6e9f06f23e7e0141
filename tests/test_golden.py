"""Golden traces: identical configs must keep writing identical CSV bytes.

Each case runs one pinned configuration, writes its trace CSVs and compares
their sha256 digests with values recorded when the case was pinned.  The
summary's ``wall_time_s`` line is left out of the digest: it is the only
line that differs between two runs of the same config.

A refactor must leave every digest unchanged.  A change that alters traces
on purpose re-pins the affected digests and says so.
"""

import hashlib

import pytest

from f3ornits.config import config_from_mapping, materialize
from f3ornits.master import run_f3ornits, run_jacobi

#: case name -> (raw config keys, {file name: sha256 without wall_time_s})
GOLDEN = {
    "two_mass_default": (
        {"model": "two_mass"},
        {
            "run_mass_left.csv": "350279bc3b92dc13fec4e5a7265ec32696fbed043e62683c16b3047eaa964ca8",
            "run_mass_right.csv": "1d3f8f69b65f55c023d2b33fa3b2d362b98e3e2ec646683bad806d192e17c7c9",
            "run_summary.csv": "125079cfe059566a5f45a99092529729311e5965873a5838c3e730225a57faa0",
        },
    ),
    # crosses the stiffness switch at t = 100 s
    "two_mass_cls_smoothed": (
        {"model": "two_mass", "calibration": "cls", "smoothing": "true",
         "t_end": "120"},
        {
            "run_mass_left.csv": "30ea0b04d67a73209c5b2e5bb2ac3435ed341b693c5c60f3406de01e380c6364",
            "run_mass_right.csv": "5d24b73626998234ad94fc5cfc4b32bfc3d243a1626d089e070b3ea52f55ca4f",
            "run_summary.csv": "302968df36ffdc991ccfa351a742ef1c3ddddd609d0bb3a5155d0f2cb8b6df84",
        },
    ),
    "car_seed_7": (
        {"model": "car", "seed": "7"},
        {
            "run_vehicle.csv": "7bbb709f7cdf480723eca9ac26c5e05b2a59597ddcfafc98cf03c1c207ea92ea",
            "run_controller.csv": "91101dbe71611a419ec809f9f439e6ef92cae73533fe77928bc7cce58a762905",
            "run_summary.csv": "2eb36da42d60d8253c4d66556cf4a3519cb0f303c0aac2e06ba60966fb56f7f1",
        },
    ),
    "jacobi_dt_0.1": (
        {"model": "two_mass", "method": "jacobi", "dt": "0.1", "t_end": "20"},
        {
            "run_mass_left.csv": "6d31da9389f8bb7562106ab2802ce7c37e0970198a595dedadc732670d0afd68",
            "run_mass_right.csv": "f1f75b4f9bd199e934386f7ae3e6e4444e865710fd8943c0316c00ec3c65e076",
            "run_summary.csv": "26571bf9d5166fb5b69245ea458fa24b8911bdff3dcd7f190fd86c6a83e97e14",
        },
    ),
    # rule (a): mass_right locked to a fixed grid
    "imposed_step": (
        {"model": "two_mass", "t_end": "40",
         "caps.mass_right.imposed_step": "0.25"},
        {
            "run_mass_left.csv": "6b3c3f39193e961193f3cc6620480072cce32f4e832ddaad9a1002f6e51be2d1",
            "run_mass_right.csv": "ab9764b4035694284fefc9f9818cb7052dacdffb56dc00d6e7737902bb65b1d2",
            "run_summary.csv": "e0ef02f17c595f91787ad670f1ef8e6eec37408e344f5972c87a39834279061d",
        },
    ),
    # mass_right's inputs capped to lines; only mass_left's are smoothed
    "degree_cap_smoothed": (
        {"model": "two_mass", "t_end": "40",
         "caps.mass_right.max_input_degree": "1", "smoothing": "true"},
        {
            "run_mass_left.csv": "6cf49dd6f7ec94d813395ab4b34ab864052a2c5d9349807a7efb625886471fec",
            "run_mass_right.csv": "393b96ea5fb628090ca1d6055dcb7c363eda7d7e8c7d0de4029535c7f855cce2",
            "run_summary.csv": "4206edca8be7fcb650efc78e53748938abf106d052bf67d1d7c13dbd853bd481",
        },
    ),
}


def _digest(path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(ln for ln in lines if not ln.startswith(b"wall_time_s,"))
    return hashlib.sha256(kept).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_csvs_match_pinned_digests(case, tmp_path):
    raw, expected = GOLDEN[case]
    cfg = config_from_mapping(raw)
    setup = materialize(cfg)
    problem = setup.model.problem
    if cfg.method == "jacobi":
        trace = run_jacobi(problem, cfg.dt)
    else:
        trace = run_f3ornits(problem, setup.options)
    paths = trace.write_csv(tmp_path, "run")
    assert {p.name: _digest(p) for p in paths} == expected
