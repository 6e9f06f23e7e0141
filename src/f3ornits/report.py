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
"""

from __future__ import annotations

import csv
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
    """
    def row(setting: tuple, run, *args) -> ComparisonRow:
        try:
            trace = run(*args)
        except DivergenceError:
            return ComparisonRow(*setting, 0, None, "diverged")
        rmse = score_trace(trace, model, variable)
        return ComparisonRow(*setting, trace.total_events, rmse, "ok")

    rows = [
        row(("jacobi", "", False, "", dt), run_jacobi, model.problem, dt)
        for dt in jacobi_dts
    ]
    dt0 = model.problem.subsystems[0].dt0
    for calibration, smoothing, norm in F3_VARIANTS:
        opts = replace(
            options_template,
            calibration=calibration,
            smoothing=smoothing,
            error_norm=norm,
        )
        rows.append(row(
            ("f3ornits", calibration, smoothing, norm, dt0),
            run_f3ornits, model.problem, opts,
        ))
    return rows


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
