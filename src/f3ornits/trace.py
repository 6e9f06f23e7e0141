"""Run traces: per-subsystem time series plus CSV export/import.

One row per communication event of a subsystem: the fresh output samples,
their normalized errors, the orders selected for the next window, the
subsystem growth ratio, and the input polynomial actually integrated over
the window that just ended (coefficients about the window start, so files
are self-contained).  Floats are written with 17 significant digits and
round-trip exactly.  Trace and reference rows are written with one `%`
format each, built by `row_format`; other cells use `format_float`.  Both
read `_FLOAT_FMT`, so the float format lives in one place.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

_FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % x


def row_format(kinds: str, terminator: str = "\r\n") -> str:
    """A `%` format for one CSV row: an "f" cell is a float, a "d" cell an int.

    `row_format(kinds) % row` is the line `csv.writer` writes for the cells
    `format_float(x)` and `str(n)`: none of those contains a comma, a quote
    or a line break, so no cell is quoted.
    """
    return ",".join(_FLOAT_FMT if k == "f" else "%d" for k in kinds) + terminator


@dataclass
class SubsystemTrace:
    """Columns for one subsystem; all lists share the row index."""

    label: str
    n_out: int
    n_in: int
    t: list[float] = field(default_factory=list)
    outputs: list[tuple[float, ...]] = field(default_factory=list)
    errors: list[tuple[float, ...]] = field(default_factory=list)
    orders: list[tuple[int, ...]] = field(default_factory=list)
    rho: list[float] = field(default_factory=list)
    # per row, per input: (c0, c1, c2, c3, smoothed)
    input_coeffs: list[tuple[tuple[float, float, float, float, int], ...]] = field(
        default_factory=list
    )

    @property
    def n_rows(self) -> int:
        return len(self.t)

    @property
    def steps(self) -> int:
        """Completed macro steps (the t=0 exchange row is not a step)."""
        return max(0, len(self.t) - 1)

    def header(self) -> list[str]:
        cols = ["t"]
        cols += [f"y{j}" for j in range(self.n_out)]
        cols += [f"err{j}" for j in range(self.n_out)]
        cols += [f"order{j}" for j in range(self.n_out)]
        cols.append("rho")
        for i in range(self.n_in):
            cols += [f"u{i}_c0", f"u{i}_c1", f"u{i}_c2", f"u{i}_c3", f"u{i}_smoothed"]
        return cols

    def csv_lines(self):
        """Each row as the CSV line `csv.writer` would write for it."""
        fmt = row_format(
            "f" * (1 + 2 * self.n_out) + "d" * self.n_out + "f" + "ffffd" * self.n_in
        )
        for t, y, e, q, rho, u in zip(
            self.t, self.outputs, self.errors, self.orders, self.rho,
            self.input_coeffs,
        ):
            yield fmt % (t, *y, *e, *q, rho, *chain.from_iterable(u))


@dataclass
class RunTrace:
    """Everything a run produced, ready for reporting or CSV export."""

    subsystems: dict[str, SubsystemTrace]
    total_events: int = 0
    wall_time_s: float = 0.0

    def output_series(self, label: str, j: int) -> tuple[list[float], list[float]]:
        st = self.subsystems[label]
        return st.t, [y[j] for y in st.outputs]

    def write_csv(self, out_dir: str | os.PathLike, prefix: str) -> list[Path]:
        """One CSV per subsystem plus a summary; returns the paths written."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for label, st in self.subsystems.items():
            p = out / f"{prefix}_{label}.csv"
            with open(p, "w", newline="") as fh:
                csv.writer(fh).writerow(st.header())
                fh.writelines(st.csv_lines())
            paths.append(p)
        p = out / f"{prefix}_summary.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subsystem", "exchanges", "steps"])
            for label, st in self.subsystems.items():
                w.writerow([label, st.n_rows, st.steps])
            w.writerow(["total_events", self.total_events, ""])
            w.writerow(["wall_time_s", format_float(self.wall_time_s), ""])
        paths.append(p)
        return paths


def read_trace_csv(path: str | os.PathLike) -> dict[str, list[float]]:
    """Load one subsystem CSV back into columns keyed by header name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: dict[str, list[float]] = {h: [] for h in header}
        for row in reader:
            for h, cell in zip(header, row):
                cols[h].append(float(cell))
    return cols
