"""Benchmark of the f3ornits co-simulation master.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh process (bench/rep.py),
one after the other, until S seconds have passed.  With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json (medians over the repetitions);
with --trace 1 it alternates untraced and traced repetitions and prints the
per-layer metrics, measured by wrappers installed from outside the program
(bench/tracer.py).  Every repetition is checked; a repetition that fails a
check counts as a failed operation.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workload inputs are drawn from --seed.  The two_mass_default repetitions are
scored here against the monolithic reference, which is computed once per
run before the timed repetitions start.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402  (stdlib only at import time)

ROOT = rep.ROOT
WORK = ROOT / ".bench_work"

#: set-up only processes per --trace 0 run, on top of each repetition's own
SETUP_PROBES = 9
#: a repetition that takes longer than this is killed and counted as failed
REP_TIMEOUT_S = 120.0

#: units of figures printed for people that are not in BENCHMARK.json
EXTRA_UNITS = {
    "run_wall_s": "s",
    "speed_err_mps": "m/s",
    "master.jacobi_s": "s",
    "models.reference_s": "s",
    "report.rmse_s": "s",
    "trace.write_csv_s": "s",
}
#: units of figures that must repeat exactly for a given seed
EXACT_UNITS = ("count", "ratio", "B")


class CsvTrace:
    """Just enough of a RunTrace for report.score_trace: CSVs read back."""

    def __init__(self, program, out: Path, prefix: str):
        self.program, self.out, self.prefix = program, out, prefix

    def output_series(self, label: str, j: int):
        cols = self.program.trace.read_trace_csv(self.out / f"{self.prefix}_{label}.csv")
        return cols["t"], cols[f"y{j}"]


class Scorer:
    """Scores two_mass_default CSVs like `f3ornits run --score` does."""

    def __init__(self, workload: str, seed: int):
        self.program = rep.import_program()
        self.setup = self.program.config.materialize(
            rep.workload_config(self.program, workload, seed)
        )
        # score_trace's reference, computed (and cached) before any timing
        self.program.models.monolithic_reference(self.setup.model)
        self.workload = workload

    def __call__(self, out: Path) -> float:
        return self.program.report.score_trace(
            CsvTrace(self.program, out, self.workload), self.setup.model,
            self.setup.variable,
        )


def run_child(args, out: Path, traced=False, setup_only=False) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(out),
    ]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {REP_TIMEOUT_S:g} s"}
    if proc.returncode == rep.STALE_TRACER_EXIT:
        sys.stderr.write(proc.stderr)
        raise SystemExit("the tracer is out of date; per-layer figures would be wrong")
    if proc.returncode != 0:
        return {"traced": traced, "error": proc.stderr.strip()[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def problems(workload: str, res: dict, first: dict | None, first_traced: dict | None,
             exact_layers: list[str]) -> list[str]:
    """Why a repetition fails its checks (empty when it passes)."""
    if "error" in res:
        return [res["error"]]
    found = []
    if workload == "car_long" and res["speed_off_band"]:
        found.append(
            f"{res['speed_off_band']} of {res['speed_samples']} closing speeds "
            f"leave the {rep.SPEED_BAND:.0%} band around v_target"
        )
    if workload == "compare_t20":
        bad = [r for r in res["rows"] if r[0] == "f3ornits" and r[1] != "ok"]
        if bad:
            found.append(f"{len(bad)} adaptive comparison rows diverged")
    if first is not None:
        kind = "traced" if res["traced"] != first["traced"] else "repeated"
        for key in ("events", "rmse_pct", "speed_err_mps", "digests"):
            if res.get(key) != first.get(key):
                found.append(f"{key} differs between {kind} runs")
    if res["traced"] and first_traced is not None:
        for key in exact_layers:
            if res["layers"][key] != first_traced["layers"][key]:
                found.append(f"{key} differs between traced runs")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=rep.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (rep.SRC / "f3ornits" / "master.py").is_file():
        print(f"no program sources under {rep.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    exact_layers = [
        m["name"] for m in spec["per_layer"]
        if m["unit"] in EXACT_UNITS and not m["name"].startswith("bench.")
    ]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = run_child(args, work / "probe", setup_only=True)
            if "error" in probe:
                print(probe["error"], file=sys.stderr)
                return 1
            setups.append(probe["setup_s"])
    scorer = Scorer(args.workload, args.seed) if args.workload == "two_mass_default" else None

    reps: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        out = work / f"rep{len(reps)}"
        res = run_child(args, out, traced=traced)
        if "error" not in res and scorer is not None:
            res["rmse_pct"] = scorer(out)
        reps.append(res)
        kinds = {r["traced"] for r in reps}
        if time.perf_counter() >= deadline and len(kinds) == 1 + args.trace:
            break

    first = first_traced = None
    failed = 0
    for i, res in enumerate(reps):
        found = problems(args.workload, res, first, first_traced, exact_layers)
        for msg in found:
            print(f"check failed, repetition {i}: {msg}")
        failed += bool(found)
        if "error" not in res:
            first = first or res
            if res["traced"]:
                first_traced = first_traced or res

    plain = [r for r in reps if "error" not in r and not r["traced"]]
    traced = [r for r in reps if "error" not in r and r["traced"]]
    if not plain or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1
    run_s = statistics.median(r["run_s"] for r in plain)

    if args.trace:
        shown = {
            key: (first_traced["layers"][key] if units.get(key) in EXACT_UNITS
                  else statistics.median(r["layers"][key] for r in traced))
            for key in first_traced["layers"]
        }
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        shown["bench.trace_overhead_pct"] = 100.0 * (traced_run_s / run_s - 1.0)
    else:
        setups += [r["setup_s"] for r in plain]
        shown = {
            "run_s": run_s,
            "run_wall_s": statistics.median(r["run_wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "events": first["events"],
            "rmse_pct": first["rmse_pct"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        if "speed_err_mps" in first:
            shown["speed_err_mps"] = first["speed_err_mps"]

    print(
        f"{args.workload}, seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced repetitions, {len(setups)} set-ups; medians, "
        f"in quiet seconds except run_wall_s and the per-layer times"
    )
    print("  repetitions, quiet s / wall s: " + "  ".join(
        f"{r['run_s']:.3f}/{r['run_wall_s']:.3f}{'T' * r['traced']}"
        for r in plain + traced
    ))
    for key, value in shown.items():
        unit = units.get(key) or EXTRA_UNITS.get(key, "")
        print(f"  {key:<36} {value:>16.6g} {unit}")
    missing = sorted(set(units) - set(shown))
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": shown[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
