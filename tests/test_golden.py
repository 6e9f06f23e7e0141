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
            "run_mass_left.csv": "0f501bad4ce539c5c760f87a6653631cf8e1d36a3e6f6c39d8da67aca1a11ede",
            "run_mass_right.csv": "8f415ec83f95040320a64d096d1daa230530668f0913d503f898284505aafa97",
            "run_summary.csv": "4f248d6a100120b7ffdbf284543292ff722581158a6e23e193983b7aa4c54047",
        },
    ),
    # crosses the stiffness switch at t = 100 s
    "two_mass_cls_smoothed": (
        {"model": "two_mass", "calibration": "cls", "smoothing": "true",
         "t_end": "120"},
        {
            "run_mass_left.csv": "b0d4baeebf09cc3ab25a4227da4e9b5bdc5d76780d10086cacfc5c0372ea8839",
            "run_mass_right.csv": "e3877e00c956089d06dfae5c876d1fc93c6b9b72ded55385f9c885f24430ca3d",
            "run_summary.csv": "76f0b302cd3babf07a8b54becd55770cbe1f8df76cf3ed0bc56e0ae2a4b0a5a6",
        },
    ),
    "car_seed_7": (
        {"model": "car", "seed": "7"},
        {
            "run_vehicle.csv": "289505141d3a3ea24b491f41b005e4f099909b9a28d507c2170baca06d6aa5ba",
            "run_controller.csv": "d28cd0140a3fd52b0ed4f34169f07a1f867afed5369d85d612cf420bb79806a7",
            "run_summary.csv": "2eb36da42d60d8253c4d66556cf4a3519cb0f303c0aac2e06ba60966fb56f7f1",
        },
    ),
    # the benchmark's car_long workload at seed 1: the config its run_s is
    # measured on
    "car_long_seed_1": (
        {"model": "car", "seed": "1", "t_end": "300"},
        {
            "run_vehicle.csv": "38f49198f60288c28f744244e8262c7f4e139a2f8f9ddc8367dec1c0c0c524de",
            "run_controller.csv": "728b7a6bbb02d09e4b2c66ff4f413ac76809997bd7ea73bc86c3663aafd3dd9f",
            "run_summary.csv": "7400c34c315aa5314e6d1edda8d3e96a3445505c53e5b9dcc7c1137c25edfcdd",
        },
    ),
    "jacobi_dt_0.1": (
        {"model": "two_mass", "method": "jacobi", "dt": "0.1", "t_end": "20"},
        {
            "run_mass_left.csv": "d14d797e9c17f6565994ae02a25fb0c43bf6e5d905512f1ad39b11a13de6145a",
            "run_mass_right.csv": "b1a20adbcf2f3c5421cc94b50b186a2bd597591f9e3e91511d2f453459586f65",
            "run_summary.csv": "26571bf9d5166fb5b69245ea458fa24b8911bdff3dcd7f190fd86c6a83e97e14",
        },
    ),
    # rule (a): mass_right locked to a fixed grid
    "imposed_step": (
        {"model": "two_mass", "t_end": "40",
         "caps.mass_right.imposed_step": "0.25"},
        {
            "run_mass_left.csv": "f763581525d17dc6802b5f00549873f19a69d4a11eb3da1b134fdc7229b810ec",
            "run_mass_right.csv": "a32ecc45ba2d0db1dd8a09970ad6102e1c071bc42b5138075f90e35b93729848",
            "run_summary.csv": "891126915ea754afbcb969dcc5dfe1f7009d183c771b229f2e504d8c62816d45",
        },
    ),
    # smoothing with a locked reader: mass_right's windows follow its grid,
    # not its producer's publications
    "imposed_step_smoothed": (
        {"model": "two_mass", "t_end": "40", "smoothing": "true",
         "caps.mass_right.imposed_step": "0.25"},
        {
            "run_mass_left.csv": "a6c9faff1354cd96c687c9dc207e6365d36f41bac5a87c9fe04248caec369e7c",
            "run_mass_right.csv": "5224387539e5305703497acb47ce17e35e5cb10e97159f81743edd0aca4fcf66",
            "run_summary.csv": "5c92e1e138b74c666396cb76cfe247019503dd70220dae4cd1c10a9016b1ef0d",
        },
    ),
    # mass_right's inputs capped to lines; only mass_left's are smoothed
    "degree_cap_smoothed": (
        {"model": "two_mass", "t_end": "40",
         "caps.mass_right.max_input_degree": "1", "smoothing": "true"},
        {
            "run_mass_left.csv": "d973ab5dda3ac7ae2e85df85e445a2f4635eeb51a1dad82fe70f146f626129b6",
            "run_mass_right.csv": "051d7b78349136fb338ae6c749494e9c187236a7caf50c710316b8e8799dc532",
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
