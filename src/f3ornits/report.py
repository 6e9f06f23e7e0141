"""Scoring runs against the monolithic reference and the comparison matrix.

The accuracy figure everywhere is a normalized RMSE: the co-simulated trace
is linearly interpolated onto the reference grid and the root-mean-square
difference is expressed as a percentage of the reference's peak-to-peak
amplitude (`compute_rmse`, in models.py, where the reference also states its
own h-vs-2h gap in this unit).  The comparison harness sweeps the fixed-step
baseline over five grid steps and the variable-step method over its twelve
option combinations (calibration x smoothing x error norm), reporting steps
and RMSE per run — the classic cost/accuracy trade-off table, plus a
scatter-ready CSV.

The rows run on the CPUs in the process's affinity set, one process per CPU
(`parallel.Child`) taking the next row from a shared queue, and the output
is byte-identical to a run on one CPU; `taskset -c 0` pins a run to one.
A child sends back, in one pickled message, only the rows it completed;
this process runs the others, so a failing row raises here, as on one CPU.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import DivergenceError
from .master import run_f3ornits, run_jacobi
from .models import BenchmarkModel, compute_rmse, monolithic_reference
from .trace import RunTrace, format_float

JACOBI_GRID_STEPS = (0.01, 0.05, 0.1, 0.2, 0.4)

#: the twelve variable-step variants, in report order
F3_VARIANTS = tuple(
    (calibration, smoothing, norm)
    for calibration in ("extrapolation", "cls")
    for smoothing in (False, True)
    for norm in ("magnitude", "amplitude", "damped")
)


def score_trace(
    trace: RunTrace, model: BenchmarkModel, variable: tuple[str, int]
) -> float:
    label, j = variable
    ref = monolithic_reference(model)
    t, y = trace.output_series(label, j)
    return compute_rmse(t, y, ref.t, ref.series[(label, j)])


@dataclass(frozen=True)
class ComparisonRow:
    method: str            # "jacobi" | "f3ornits"
    calibration: str       # "" for jacobi
    smoothing: bool
    error_norm: str        # "" for jacobi
    dt: float              # grid step (jacobi) or startup step (f3ornits)
    steps: int
    rmse_percent: float | None
    status: str            # "ok" | "diverged"

    def setting(self) -> str:
        if self.method == "jacobi":
            return f"dt={self.dt:g}"
        smooth = "smoothed" if self.smoothing else "unsmoothed"
        return f"{self.calibration}|{smooth}|{self.error_norm}"


def run_comparison(
    model: BenchmarkModel,
    options_template,
    variable: tuple[str, int],
    jacobi_dts=JACOBI_GRID_STEPS,
) -> list[ComparisonRow]:
    """The full baseline-vs-method matrix on one model.

    options_template is a MasterOptions whose calibration / smoothing /
    error_norm are replaced per variant; everything else (tolerances,
    force_order) is shared by all method runs.

    The rows are independent, so k = min(parallel.cpus(...), rows)
    processes take them first (`_forked_rows`), and this process then runs,
    in index order, every row none of them brought back: the rows, and so
    every byte written from them, or the exception of the lowest failing
    row, raised here, are those of the loop over the rows in order.
    `parallel.cpus` keeps the rows in this process when it has a second
    thread or when a function the rows call through this module has been
    wrapped, as the traced benchmark repetition does.  The monolithic
    reference every row is scored against is computed first, so that each
    process inherits it from the cache.
    """
    from . import parallel

    dt0 = model.problem.subsystems[0].dt0
    runs = [
        (("jacobi", "", False, "", dt), run_jacobi, (model.problem, dt))
        for dt in jacobi_dts
    ] + [
        (
            ("f3ornits", calibration, smoothing, norm, dt0),
            run_f3ornits,
            (model.problem, replace(
                options_template,
                calibration=calibration,
                smoothing=smoothing,
                error_norm=norm,
            )),
        )
        for calibration, smoothing, norm in F3_VARIANTS
    ]

    def row(i: int) -> ComparisonRow:
        setting, run, args = runs[i]
        try:
            trace = run(*args)
        except DivergenceError:
            return ComparisonRow(*setting, 0, None, "diverged")
        rmse = score_trace(trace, model, variable)
        return ComparisonRow(*setting, trace.total_events, rmse, "ok")

    try:
        monolithic_reference(model)
    except DivergenceError:
        pass  # a row that completes meets it again in score_trace and raises it
    k = min(parallel.cpus(
        run_jacobi, run_f3ornits, score_trace, monolithic_reference
    ), len(runs))
    done = _forked_rows(row, len(runs), k) if k > 1 else {}
    return [done[i] if i in done else row(i) for i in range(len(runs))]


def _forked_rows(row, n: int, k: int) -> dict:
    """{i: row(i)} for the rows this process and k - 1 forked children
    (`parallel.Child`) completed.

    Forked, not spawned: a child starts with the package imported, its
    kernels compiled and the reference cached.  All k take row indices from
    one shared queue, the next index each time one is free: the rows are
    very uneven, so a fixed split would not balance.  The queue is an
    unlinked file of 4-byte row indices whose offset all k processes share:
    Linux moves a shared file offset under a lock, so each read takes one
    whole index, and unlike a pipe the file holds any number of rows.  A
    process stops at the first row that raises, empties the queue and keeps
    only the rows it completed; each child sends those back in one message.
    Every row below a failing one was taken before it, so the first row
    left over is the lowest failing one.
    """
    import tempfile

    from . import parallel

    def drain() -> dict:
        done = {}
        while index := os.read(queue, 4):
            i = int.from_bytes(index, "big")
            try:
                done[i] = row(i)
            except Exception:  # run again, and raised, by the caller
                while os.read(queue, 65536):  # the rows above it are not needed
                    pass
                break
        return done

    children = []
    with tempfile.TemporaryFile() as fh:
        fh.write(b"".join(i.to_bytes(4, "big") for i in range(n)))
        fh.seek(0)
        queue = fh.fileno()
        try:
            for _ in range(k - 1):
                try:
                    children.append(
                        parallel.Child(drain, "comparison worker", "rows")
                    )
                except OSError:  # no more processes: those running share the rows
                    break
            done = drain()
            for child in children:
                done.update(child.receive())
        finally:
            for child in children:
                child.close()
    return done


def write_report_csv(rows, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([
            "method", "calibration", "smoothing", "error_norm",
            "dt", "steps", "rmse_percent", "status",
        ])
        for r in rows:
            w.writerow([
                r.method, r.calibration, int(r.smoothing), r.error_norm,
                format_float(r.dt), r.steps,
                "" if r.rmse_percent is None else format_float(r.rmse_percent),
                r.status,
            ])
    return path


def write_scatter_csv(rows, path) -> Path:
    """steps-vs-rmse pairs, one labelled point per completed run."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "steps", "rmse_percent"])
        for r in rows:
            if r.rmse_percent is None:
                continue
            w.writerow([
                f"{r.method} {r.setting()}", r.steps, format_float(r.rmse_percent)
            ])
    return path


def format_report(rows) -> str:
    """A fixed-width text table of the comparison, for terminal output."""
    header = f"{'method':<9} {'setting':<34} {'steps':>7} {'rmse %':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        rmse = "diverged" if r.rmse_percent is None else f"{r.rmse_percent:.4f}"
        lines.append(
            f"{r.method:<9} {r.setting():<34} {r.steps:>7} {rmse:>10}"
        )
    return "\n".join(lines)
