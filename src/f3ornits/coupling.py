"""Coupling links between subsystems and per-output sample histories.

The graph records which producer output feeds each consumer input; the
arities it is checked against live on the subsystems.  The scheduler reads
from the links who must wake up for communication and who may coast.

A SampleHistory holds one output's exchanged samples together with the
newest row of their divided-difference table, which order selection scores
its candidates from and extrapolation publishes from.  Its `push` checks
each sample once and is the one place a divided difference is computed;
the constrained fits take the samples from it unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Sequence

from .errors import CalibrationError, SequencingError
from .poly import MAX_ORDER, TIME_GAP_REL

#: ring-buffer capacity per output: highest order + 2 samples
HISTORY_CAPACITY = MAX_ORDER + 2


@dataclass(frozen=True)
class CouplingGraph:
    """A map (consumer, input slot) -> (producer, output slot)."""

    links: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    def producers_of(self, k: int) -> tuple[int, ...]:
        """Distinct subsystems feeding at least one input of k, sorted."""
        return tuple(
            sorted({src[0] for slot, src in self.links.items() if slot[0] == k})
        )

    def validate(self, arities: Sequence[tuple[int, int]]) -> list[str]:
        """Fatal diagnostics against one (n_in, n_out) pair per subsystem.

        An empty list means the graph is usable.  Validation never raises.
        A subsystem feeding itself is allowed.
        """
        out: list[str] = []
        n = len(arities)
        for (k, i), (l, j) in self.links.items():
            if not (0 <= k < n) or not (0 <= l < n):
                out.append(f"link ({k},{i}) <- ({l},{j}) names an unknown subsystem")
                continue
            if not (0 <= i < arities[k][0]):
                out.append(f"subsystem {k} has no input slot {i}")
            if not (0 <= j < arities[l][1]):
                out.append(f"subsystem {l} has no output slot {j}")
        for k, (n_in, _) in enumerate(arities):
            for i in range(n_in):
                if (k, i) not in self.links:
                    out.append(f"input ({k},{i}) is not fed by any output")
        return out


class SampleHistory:
    """Bounded record of (time, value) samples for one output variable.

    Keeps the HISTORY_CAPACITY most recent exchanged samples with strictly
    increasing times, oldest first, as the tuples `times` and `values`;
    older samples are evicted silently.

    It also keeps the newest row of the Newton divided-difference table
    (Stoer & Bulirsch, Introduction to Numerical Analysis, 2.1-2.2):
    `d1` = f[t_n, t_n-1] once two samples are held and `d2` =
    f[t_n, t_n-1, t_n-2] once three are, with y_n = values[-1].  Each push
    extends the row by one sample, so order selection reads every
    candidate's prediction from it without fitting anything, and
    orders.fit_extrapolation publishes that row's polynomial.

    `push` is the only writer and the one place an exchanged sample is
    checked, once, on arrival; the calibration fits read the samples
    without checking them again.  A time that does not advance is a
    SequencingError; a non-finite time or value, or a time closer to its
    predecessor than poly.TIME_GAP_REL relative to max(1, |t|), is a
    CalibrationError; a divided difference that overflows is a ValueError,
    as Polynomial refuses a non-finite coefficient.  A refused sample
    leaves the history as it was.
    """

    __slots__ = ("times", "values", "d1", "d2")

    def __init__(self):
        self.times: tuple[float, ...] = ()
        self.values: tuple[float, ...] = ()
        self.d1 = self.d2 = 0.0

    def __len__(self) -> int:
        return len(self.times)

    def push(self, t: float, value: float) -> None:
        times, values = self.times, self.values
        n = len(times)
        if n and t <= times[-1]:
            raise SequencingError(
                f"sample at t = {t!r} does not advance past {times[-1]!r}"
            )
        if not (isfinite(t) and isfinite(value)):
            raise CalibrationError(
                f"calibration data must be finite (got {value!r} at t = {t!r})"
            )
        if n:
            t_n = times[-1]
            scale = t if t > 1.0 else -t if t < -1.0 else 1.0  # max(1.0, abs(t))
            if t - t_n < TIME_GAP_REL * scale:
                raise CalibrationError(
                    f"times must be strictly increasing and distinct "
                    f"(got {t_n!r} then {t!r})"
                )
            d1 = (value - values[-1]) / (t - t_n)
            d2 = (d1 - self.d1) / (t - times[-2]) if n > 1 else self.d2
            if not (isfinite(d1) and isfinite(d2)):
                raise ValueError(
                    f"divided differences at t = {t!r} must be finite "
                    f"(got {d1!r}, {d2!r})"
                )
            self.d1, self.d2 = d1, d2
            if n >= HISTORY_CAPACITY:  # a full history drops its oldest
                times, values = times[1:], values[1:]
        self.times, self.values = times + (t,), values + (value,)

    def newest(self, count: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The `count` most recent samples, oldest first."""
        if count < 1 or count > len(self.times):
            raise SequencingError(
                f"requested {count} samples, history holds {len(self.times)}"
            )
        return self.times[-count:], self.values[-count:]
