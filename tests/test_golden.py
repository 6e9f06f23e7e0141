"""Golden traces: identical configs must keep writing identical CSV bytes.

Each case runs one pinned configuration, writes its trace CSVs (or, with
`f3ornits reference`, the monolithic reference's CSV) and compares their
sha256 digests with values recorded when the case was pinned.  The
summary's ``wall_time_s`` line is left out of the digest: it is the only
line that differs between two runs of the same config.

A refactor must leave every digest unchanged.  A change that alters traces
on purpose re-pins the affected digests and says so.
"""

import hashlib

import pytest

from f3ornits.cli import main
from f3ornits.config import config_from_mapping, materialize
from f3ornits.master import run_f3ornits, run_jacobi

#: case name -> (raw config keys, {file name: sha256 without wall_time_s})
GOLDEN = {
    "two_mass_default": (
        {"model": "two_mass"},
        {
            "run_mass_left.csv": "b10824a8965d3c7206321099445111621ca9d8ed1c722cc1466154a3c6a3f15f",
            "run_mass_right.csv": "28b2b7975c8378c51664712cf7e5c8dc9afa3436b5440d885e8d876f7f46d1f1",
            "run_summary.csv": "4f248d6a100120b7ffdbf284543292ff722581158a6e23e193983b7aa4c54047",
        },
    ),
    # crosses the stiffness switch at t = 100 s
    "two_mass_cls_smoothed": (
        {"model": "two_mass", "calibration": "cls", "smoothing": "true",
         "t_end": "120"},
        {
            "run_mass_left.csv": "6c41a114420f88cae0e05e681a9e86cd5486d4ad5e57751ff212af83d6d88acf",
            "run_mass_right.csv": "eec5c4fa270159b273dd07aab0f645ba208e3b00e6d8f07cd15a5464aaa69a74",
            "run_summary.csv": "8a1a7eb7c4714b5b681729ea91429913ed738e78b2734425b24b42be6e1eff3f",
        },
    ),
    "car_seed_7": (
        {"model": "car", "seed": "7"},
        {
            "run_vehicle.csv": "3fa6b46cff606f15a66cfe7f1737fff10e119df889c459245b93f3f119fed5a5",
            "run_controller.csv": "f53955a9bf3e3abf9066265be94ced1b3718a5572cb35f2859013b024a9efcdb",
            "run_summary.csv": "2eb36da42d60d8253c4d66556cf4a3519cb0f303c0aac2e06ba60966fb56f7f1",
        },
    ),
    # the benchmark's car_long workload at seed 1: the config its run_s is
    # measured on
    "car_long_seed_1": (
        {"model": "car", "seed": "1", "t_end": "300"},
        {
            "run_vehicle.csv": "9a44807990c8b7b79792530e48e326538d8e1de264a829175c1bbc3384fd7b8a",
            "run_controller.csv": "144652e5611355dfd950bf25daaa11da42b0e143fb002dab69aae943d8bb42fd",
            "run_summary.csv": "7400c34c315aa5314e6d1edda8d3e96a3445505c53e5b9dcc7c1137c25edfcdd",
        },
    ),
    "jacobi_dt_0.1": (
        {"model": "two_mass", "method": "jacobi", "dt": "0.1", "t_end": "20"},
        {
            "run_mass_left.csv": "2bfc23b59e752a79b43cbb8a02d47daa1dc120e752566a37f666d03a023ae83e",
            "run_mass_right.csv": "a2fe08f4677b52168984372403f22c5219d2f00cc32dff64fd96c5f737091b1e",
            "run_summary.csv": "26571bf9d5166fb5b69245ea458fa24b8911bdff3dcd7f190fd86c6a83e97e14",
        },
    ),
    # rule (a): mass_right locked to a fixed grid
    "imposed_step": (
        {"model": "two_mass", "t_end": "40",
         "caps.mass_right.imposed_step": "0.25"},
        {
            "run_mass_left.csv": "b4ba79abe4eed8e2c150c1d254310cda15691299703c0769d70f8ce9c250ae20",
            "run_mass_right.csv": "01bbd3cdef4a2b27f87ee17a3018b43bde542ff8f22b27f358f4498b5db23b96",
            "run_summary.csv": "060b962d60ce1ebca1a5928c19a38b63a46f16ee3b4bd75c4ae8b5bb6135a640",
        },
    ),
    # smoothing with a locked reader: mass_right's windows follow its grid,
    # not its producer's publications
    "imposed_step_smoothed": (
        {"model": "two_mass", "t_end": "40", "smoothing": "true",
         "caps.mass_right.imposed_step": "0.25"},
        {
            "run_mass_left.csv": "ffbace5b9b06def7b66de9d1f985d85b6ef734a54b621d691449cbee9568baf4",
            "run_mass_right.csv": "98360167527d642c95e2024ae447c596b88775c25f3afe70ef623e7b1e28fdba",
            "run_summary.csv": "5c92e1e138b74c666396cb76cfe247019503dd70220dae4cd1c10a9016b1ef0d",
        },
    ),
    # mass_right's inputs capped to lines; only mass_left's are smoothed
    "degree_cap_smoothed": (
        {"model": "two_mass", "t_end": "40",
         "caps.mass_right.max_input_degree": "1", "smoothing": "true"},
        {
            "run_mass_left.csv": "7acae6d74f516658b8eb517c32e55629c78672f14a0e9c695892bc66acba61f8",
            "run_mass_right.csv": "7aff7d60e8eb57441c80ce470ae17e1fb416557b7c0eff74b833dbf87a086aea",
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


#: case name -> (`f3ornits reference` arguments, sha256 of the CSV it writes)
GOLDEN_REFERENCE = {
    "two_mass_rk4": (
        ["--model", "two_mass", "--t-end", "20"],
        "b5678d34ae9ca68d9608015f9faec6313e9eab036c1e072f9816764d677d7713",
    ),
    "two_mass_rk2": (
        ["--model", "two_mass", "--t-end", "20", "--scheme", "rk2"],
        "2c40fae127b19522b3c4e51f70bff0dab2013832c18218e4c33b22cccd9693a1",
    ),
    "car_seed_7_rk4": (
        ["--model", "car", "--seed", "7", "--t-end", "30"],
        "53ba7d21f29326c62626d9aa852d2085678c887adb52fd79c2bdefcd31fc2ba2",
    ),
    "car_seed_7_rk2": (
        ["--model", "car", "--seed", "7", "--t-end", "30", "--scheme", "rk2"],
        "0a3c9b2b6159bb769198ddcd423ab09d97870cff8d024aeb22ae56ad8068f3d8",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REFERENCE))
def test_reference_csvs_match_pinned_digests(case, tmp_path, capsys):
    args, expected = GOLDEN_REFERENCE[case]
    assert main(["reference", *args, "--output-dir", str(tmp_path)]) == 0
    assert _digest(tmp_path / "run_reference.csv") == expected
