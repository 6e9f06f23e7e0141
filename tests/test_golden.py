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
            "run_mass_left.csv": "74cfc6c6da730c0584b018fdb6d4a39e7abe44cd77343411ed4c3ccf0cb1afcc",
            "run_mass_right.csv": "81334071af8d7587c95e0e6948df8e3d598b233c75f2b520ed5d5b50c0a1d3cf",
            "run_summary.csv": "1fd8b0feb7aee7a4116de70266fc985289175917705636c15e2439b35655d77f",
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
            "run_vehicle.csv": "7bbb709f7cdf480723eca9ac26c5e05b2a59597ddcfafc98cf03c1c207ea92ea",
            "run_controller.csv": "91101dbe71611a419ec809f9f439e6ef92cae73533fe77928bc7cce58a762905",
            "run_summary.csv": "2eb36da42d60d8253c4d66556cf4a3519cb0f303c0aac2e06ba60966fb56f7f1",
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
            "run_mass_left.csv": "fa487fed16f0e26a2bff363d5f596508d762909e41a49de98bf2f5febca58a1c",
            "run_mass_right.csv": "067b7996e9e4f83c0fad2aa065a7d586086e122650bce3da019de79271a96ef7",
            "run_summary.csv": "ffdc261f13ce727f42ac45ab428b3f9be4a5606f2e8ac5114c394bfd9b005816",
        },
    ),
    # mass_right's inputs capped to lines; only mass_left's are smoothed
    "degree_cap_smoothed": (
        {"model": "two_mass", "t_end": "40",
         "caps.mass_right.max_input_degree": "1", "smoothing": "true"},
        {
            "run_mass_left.csv": "414b735f1c9021f50c41f603b8cb2e50a388ea6b5614d8fd5798009dfaae4785",
            "run_mass_right.csv": "e3b575d0026c115cb2895fb902f3a727c7c8cc8edcaa7597f6473acd32b78e01",
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
        "da281b251b84c1b4f59872001a426c09952d2a7f28c5f2193d0f62934656848b",
    ),
    "car_seed_7_rk4": (
        ["--model", "car", "--seed", "7", "--t-end", "30"],
        "53ba7d21f29326c62626d9aa852d2085678c887adb52fd79c2bdefcd31fc2ba2",
    ),
    "car_seed_7_rk2": (
        ["--model", "car", "--seed", "7", "--t-end", "30", "--scheme", "rk2"],
        "90d684b8fa286d512f85c35169bc7b2e58a376b62116acf21f9dca474225ae7e",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REFERENCE))
def test_reference_csvs_match_pinned_digests(case, tmp_path, capsys):
    args, expected = GOLDEN_REFERENCE[case]
    assert main(["reference", *args, "--output-dir", str(tmp_path)]) == 0
    assert _digest(tmp_path / "run_reference.csv") == expected
