"""One repetition of one benchmark workload, in a process of its own.

    python3 bench/rep.py --workload NAME --seed N --out DIR [--traced] [--setup-only]

A fresh process per repetition means every repetition pays the imports and
an empty in-process reference cache, as each CLI call does, and its peak
resident memory is its own.  Times are quiet seconds (see QuietClock).  The repetition prints one JSON line: set-up
and run seconds, peak RSS, the cost and accuracy figures the parent checks,
digests of the CSVs it wrote and, when traced, the per-layer metrics.
"""

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("two_mass_default", "car_long", "compare_t20")

#: exit code when the tracer no longer fits the program (bench/tracer.py)
STALE_TRACER_EXIT = 3

#: a closing speed further than this share from v_target fails (criterion 6)
SPEED_BAND = 0.10
#: closing speeds are checked over this final share of the run (criterion 6)
SPEED_TAIL = 0.20


def _calibration():
    """A fixed slice of pure-Python float work, like the RK4 inner loop."""
    x = [0.1, 0.0]
    for _ in range(40):
        k = [x[1], -x[0] - 0.1 * x[1]]
        xs = [x[i] + 0.0005 * k[i] for i in range(2)]
        x = [x[i] + 0.001 * xs[i] for i in range(2)]
    return x


class QuietClock:
    """Seconds at the machine's quiet speed, rescaled tick by tick.

    On a shared 2-vCPU host (Xeon at 2.0 GHz, Python 3.11) one repetition
    of two_mass_default took between 2.8 s and 5.2 s of wall time, with CPU
    time tracking wall time: the host slows this process in bursts of tens
    of milliseconds to seconds.  Every TICK_S a SIGALRM handler times
    _calibration; the wall time since the previous tick is scaled by
    NOMINAL_S over that time.  The sum is what the work would have taken at
    the speed at which _calibration takes NOMINAL_S, the quiet speed of that
    host.  Over five seeds per workload this cut the run-to-run spread of
    run_s (quartile distance over median) from 21-32 % to 1-4 %.  The
    handler's own time is left out; it is about 0.3 % of the wall time.
    """

    TICK_S = 0.02
    NOMINAL_S = 50e-6

    def start(self) -> None:
        self._quiet = 0.0
        self._ratio = self._calibrate()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def stop(self) -> float:
        """Quiet seconds since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # drops a tick still pending
        return self._quiet + (time.perf_counter() - self._mark) * self._ratio

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        _calibration()
        return self.NOMINAL_S / (time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._ratio = self._calibrate()
        self._quiet += (t0 - self._mark) * self._ratio
        self._mark = time.perf_counter()


def import_program():
    """The f3ornits modules from this checkout's src/, never from elsewhere."""
    if not (SRC / "f3ornits" / "master.py").is_file():
        raise SystemExit(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("config", "master", "models", "report", "trace")
    mods = {n: importlib.import_module(f"f3ornits.{n}") for n in names}
    for mod in mods.values():
        if SRC not in Path(mod.__file__).resolve().parents:
            raise SystemExit(f"{mod.__name__} was imported from {mod.__file__}")
    return argparse.Namespace(**mods)


def workload_config(program, workload: str, seed: int):
    """The RunConfig of a workload; every input is drawn from the seed."""
    RunConfig = program.config.RunConfig
    x1_0 = random.Random(seed).uniform(0.05, 0.2)
    if workload == "two_mass_default":
        return RunConfig(model="two_mass", params={"x1_0": x1_0})
    if workload == "car_long":
        return RunConfig(model="car", seed=seed, t_end=300.0)
    if workload == "compare_t20":
        return RunConfig(model="two_mass", t_end=20.0, params={"x1_0": x1_0})
    raise SystemExit(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


def run_workload(program, workload, setup, model, out: Path):
    """The timed work: what one CLI call of the workload does."""
    if workload == "compare_t20":
        rows = program.report.run_comparison(model, setup.options, setup.variable)
        program.report.write_report_csv(rows, out / "run_report.csv")
        program.report.write_scatter_csv(rows, out / "run_scatter.csv")
        return None, rows
    trace = program.master.run_f3ornits(model.problem, setup.options)
    trace.write_csv(out, workload)
    return trace, []


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 per CSV written, without the summary's wall-time line."""
    digests = {}
    for p in sorted(out.glob("*.csv")):
        lines = p.read_bytes().splitlines(keepends=True)
        kept = b"".join(ln for ln in lines if not ln.startswith(b"wall_time_s,"))
        digests[p.name] = hashlib.sha256(kept).hexdigest()
    return digests


def closing_speeds(trace, v_target: float) -> dict:
    """Row-to-row vehicle speeds over the final SPEED_TAIL of the run."""
    t, x = trace.output_series("vehicle", 0)
    tail_start = t[-1] - SPEED_TAIL * (t[-1] - t[0])
    tail = [
        (x[r] - x[r - 1]) / (t[r] - t[r - 1])
        for r in range(1, len(t))
        if t[r] >= tail_start
    ]
    err = math.sqrt(sum((v - v_target) ** 2 for v in tail) / len(tail))
    off = sum(1 for v in tail if abs(v - v_target) > SPEED_BAND * v_target)
    return {"speed_err_mps": err, "speed_off_band": off, "speed_samples": len(tail),
            "rmse_pct": 100.0 * err / v_target}


def repetition(args, clock: QuietClock) -> int:
    """Set up, run and check one repetition; returns the exit code."""
    clock.start()
    program = import_program()
    tracer = None
    if args.traced:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import StaleTracer, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except StaleTracer as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return STALE_TRACER_EXIT
    setup = program.config.materialize(
        workload_config(program, args.workload, args.seed)
    )
    setup_s = clock.stop()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    model = tracer.instrument(setup.model) if tracer else setup.model
    args.out.mkdir(parents=True, exist_ok=True)
    wall0 = time.perf_counter()
    clock.start()
    trace, rows = run_workload(program, args.workload, setup, model, args.out)
    run_s = clock.stop()
    run_wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": csv_digests(args.out),
    }
    if rows:
        result["events"] = sum(r.steps for r in rows)
        result["rows"] = [[r.method, r.status, r.steps, r.rmse_percent] for r in rows]
        result["rmse_pct"] = statistics.fmean(
            r.rmse_percent for r in rows if r.method == "f3ornits" and r.status == "ok"
        )
    else:
        result["events"] = trace.total_events
    if args.workload == "car_long":
        result.update(closing_speeds(trace, setup.model.params.v_target))
    if tracer:
        try:
            tracer.check_reached(args.workload)
            result["layers"] = tracer.layer_metrics(run_wall_s, rows)
        except StaleTracer as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return STALE_TRACER_EXIT
        tracer.write_spans(args.out / "spans.csv")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    clock = QuietClock()
    try:
        return repetition(args, clock)
    finally:
        clock.stop()  # no tick may outlive an early return or an exception


if __name__ == "__main__":
    sys.exit(main())
