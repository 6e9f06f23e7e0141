"""Coupling topology between subsystems and per-output sample histories.

The graph records, for every subsystem, how many inputs and outputs it has and
which producer output feeds each input.  Subsystems are tagged by whether they
exchange data at all, which the scheduler later uses to decide who must wake
up for communication and who may coast.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import SequencingError
from .subsystem import MAX_ORDER

#: ring-buffer capacity per output: highest order + 2 samples
HISTORY_CAPACITY = MAX_ORDER + 2


class TopologyTag(Enum):
    NINO = "no-input-no-output"
    NI = "no-input"
    NO = "no-output"
    IO = "input-output"


def classify(n_in: int, n_out: int) -> TopologyTag:
    """Tag a subsystem by its coupling arity."""
    if n_in < 0 or n_out < 0:
        raise ValueError("arities must be non-negative")
    if n_in == 0 and n_out == 0:
        return TopologyTag.NINO
    if n_in == 0:
        return TopologyTag.NI
    if n_out == 0:
        return TopologyTag.NO
    return TopologyTag.IO


@dataclass(frozen=True)
class CouplingGraph:
    """Arities plus a map (consumer, input slot) -> (producer, output slot)."""

    n_in: tuple[int, ...]
    n_out: tuple[int, ...]
    links: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    @property
    def n_sys(self) -> int:
        return len(self.n_in)

    def topology(self, k: int) -> TopologyTag:
        return classify(self.n_in[k], self.n_out[k])

    def producers_of(self, k: int) -> tuple[int, ...]:
        """Distinct subsystems feeding at least one input of k, sorted."""
        return tuple(
            sorted({src[0] for slot, src in self.links.items() if slot[0] == k})
        )

    def validate(self) -> list[str]:
        """Collect fatal diagnostics; an empty list means the graph is usable.

        Validation never raises.  A subsystem feeding itself is allowed.
        """
        out: list[str] = []
        if len(self.n_in) != len(self.n_out):
            out.append(
                f"arity vectors disagree: {len(self.n_in)} vs {len(self.n_out)} subsystems"
            )
            return out
        n = self.n_sys
        fed: set[tuple[int, int]] = set()
        for (k, i), (l, j) in self.links.items():
            if not (0 <= k < n) or not (0 <= l < n):
                out.append(f"link ({k},{i}) <- ({l},{j}) names an unknown subsystem")
                continue
            if not (0 <= i < self.n_in[k]):
                out.append(f"subsystem {k} has no input slot {i}")
            if not (0 <= j < self.n_out[l]):
                out.append(f"subsystem {l} has no output slot {j}")
            if (k, i) in fed:
                out.append(f"input ({k},{i}) is fed twice")
            fed.add((k, i))
        for k in range(n):
            for i in range(self.n_in[k]):
                if (k, i) not in fed:
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
