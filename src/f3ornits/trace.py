"""Run traces: per-subsystem rows plus CSV export/import.

One row per communication event of a subsystem: the fresh output samples,
their normalized errors, the orders selected for the next window, the
subsystem growth ratio, and the input polynomial actually integrated over
the window that just ended (coefficients about the window start, so files
are self-contained).  A row is stored once, as the tuple of cells its CSV
line holds; `SubsystemTrace._layout` names each cell and its kind, and the
header, `column` and the line format all read it.  Floats are written with
17 significant digits and round-trip exactly.  Trace and reference rows are
written with one `%` format each, built by `row_format`; other cells use
`format_float`.  Both read `_FLOAT_FMT`, so the float format lives in one
place.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from pathlib import Path

from .poly import shift_coeffs

_FLOAT_FMT = "%.17g"
#: the zero coefficients that pad an input's n coefficients to four
_PADS = tuple((0.0,) * (4 - n) for n in range(5))


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
    """One subsystem's rows, each a tuple of cells in `header()` order."""

    label: str
    n_out: int
    n_in: int
    rows: list[tuple] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def steps(self) -> int:
        """Completed macro steps (the t=0 exchange row is not a step)."""
        return max(0, len(self.rows) - 1)

    def _layout(self) -> list[tuple[str, str]]:
        """(header name, kind) per cell: kind "f" is a float, "d" an int."""
        cols = [("t", "f")]
        cols += [(f"y{j}", "f") for j in range(self.n_out)]
        cols += [(f"err{j}", "f") for j in range(self.n_out)]
        cols += [(f"order{j}", "d") for j in range(self.n_out)]
        cols.append(("rho", "f"))
        for i in range(self.n_in):
            cols += [(f"u{i}_c{c}", "f") for c in range(4)]
            cols.append((f"u{i}_smoothed", "d"))
        return cols

    def header(self) -> list[str]:
        return [name for name, _ in self._layout()]

    def column(self, name: str) -> list:
        """One column by its header name, the key `read_trace_csv` uses."""
        k = self.header().index(name)
        return [row[k] for row in self.rows]

    def record(self, t, outputs, errors, orders, rho, plans) -> None:
        """Append one row.  Each input plan is packed as its coefficients
        about the window start (`shift_coeffs`), padded to four, and whether
        it was smoothed; a missing plan packs as zeros."""
        cells = [t, *outputs, *errors, *orders, rho]
        for plan in plans:
            if plan is None:
                cells += (0.0, 0.0, 0.0, 0.0, 0)
            else:
                (t_ref, cs), start, smoothed = plan
                if start != t_ref:
                    cs = shift_coeffs(cs, start - t_ref)
                cells += cs + _PADS[len(cs)] + (1 if smoothed else 0,)
        self.rows.append(tuple(cells))

    def csv_lines(self):
        """Each row as the CSV line `csv.writer` would write for it."""
        fmt = row_format("".join(kind for _, kind in self._layout()))
        return map(fmt.__mod__, self.rows)


@dataclass
class RunTrace:
    """Everything a run produced, ready for reporting or CSV export."""

    subsystems: dict[str, SubsystemTrace]
    total_events: int = 0
    wall_time_s: float = 0.0

    def output_series(self, label: str, j: int) -> tuple[list[float], list[float]]:
        st = self.subsystems[label]
        return st.column("t"), st.column(f"y{j}")

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
