"""Coupling links between subsystems and per-output sample histories.

The graph records which producer output feeds each consumer input; the
arities it is checked against live on the subsystems.  The scheduler reads
from the links who must wake up for communication and who may coast.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .errors import SequencingError
from .subsystem import MAX_ORDER

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
    increasing times; older samples are evicted silently.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf: deque[tuple[float, float]] = deque(maxlen=HISTORY_CAPACITY)

    def __len__(self) -> int:
        return len(self._buf)

    def push(self, t: float, value: float) -> None:
        if self._buf and t <= self._buf[-1][0]:
            raise SequencingError(
                f"sample at t = {t!r} does not advance past {self._buf[-1][0]!r}"
            )
        self._buf.append((t, value))

    def newest(self, count: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The `count` most recent samples, oldest first."""
        if count < 1 or count > len(self._buf):
            raise SequencingError(
                f"requested {count} samples, history holds {len(self._buf)}"
            )
        items = list(self._buf)[-count:]
        return tuple(t for t, _ in items), tuple(v for _, v in items)
