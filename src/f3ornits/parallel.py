"""Work on more than one CPU: when a process may fork, and the partner.

`cpus` is the one rule for both users of a second CPU: `compare`'s rows
(report.py) and the partner process of a run (`Partner`, master.py).  A
process forks nothing where the platform cannot tell its CPUs or cannot
fork, where it has a second thread, which a fork would leave behind, or
where a function its work calls has been wrapped from outside, as the
benchmark's tracer does: a wrapper keeps its records in the memory of its
own process, which a child would never reach.  Each of `compare`'s row
processes counts as one CPU (`one_share`), so no row forks a partner of its
own and the rows do not ask for more CPUs than there are.

A `Partner` is one forked process that walks the windows of a fixed set of
subsystems for the master: per event the master writes their windows to a
pipe, walks its own, and reads back each window's state and outputs.  The
child walks each window with `subsystem.step_to`, the kernel the master
would have called on the same inputs, so every float is the master's.
"""

from __future__ import annotations

import contextlib
import os

from .poly import Polynomial
from .subsystem import step_to

#: failed non-blocking reads before a reader blocks in select, 1-3 us each
#: on a shared 2-vCPU host: a few milliseconds, so a request or a reply that
#: comes within an event's time is taken without a wake-up, which took
#: 15-50 us there
SPINS = 2000

#: set while this process runs one share of compare's rows
_sharing = False


def cpus(*functions) -> int:
    """The CPUs this process may spread its work over by forking: those of
    its affinity set, or 1 where the module docstring says it forks nothing
    (any of `functions` wrapped, functools.wraps setting `__wrapped__`)."""
    if _sharing or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    import threading

    if threading.active_count() > 1 or any(
        hasattr(fn, "__wrapped__") for fn in functions
    ):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def one_share():
    """Inside it, this process and every child it forks count as one CPU."""
    global _sharing
    previous, _sharing = _sharing, True
    try:
        yield
    finally:
        _sharing = previous


class Partner:
    """A forked process that walks windows of the subsystems `specs`.

    A window is (owner, state, t_start, t_target, inputs): owner indexes
    `specs`, inputs are the input polynomials.  `send` writes the windows
    of one event to the child as doubles: per window its owner, t_start,
    t_target, the state and, per input, its degree, t_ref and coefficients.
    `receive` reads back, per window, its new state and outputs, or None
    where the child's walk raised or gave a number that is not a float:
    the master walks that window again in its own process, which raises
    the exception itself, with its own traceback.  The child holds no
    state of its own, so a window walked in either process leaves both
    ready for the next.

    Both ends read non-blocking pipes, SPINS times, then block in select.
    Events come far more often than SPINS failed reads take, so the child
    keeps its CPU busy for as long as the run lasts.  The child leaves when the master's end of the request pipe closes, and
    a child that has ended is a RuntimeError at the next `receive`, never
    a hang.  `close` kills and reaps it.  The child never returns into the
    caller's code: it leaves by os._exit, so it writes no file and flushes
    no inherited buffer.  `select` and `struct` are imported here, so a
    run that never forks does not load them.
    """

    def __init__(self, specs):
        import select
        import struct

        self._select, self._struct = select.select, struct
        self.specs = specs
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        for fd in (requests, self._replies):
            os.set_blocking(fd, False)
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self._requests, self._replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._requests)
                os.close(self._replies)
                self._serve(requests, replies)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self._owners: list[int] = []

    def send(self, windows) -> None:
        values, owners = [], []
        for owner, state, t_start, t_target, inputs in windows:
            owners.append(owner)
            values += (owner, t_start, t_target, *state)
            for t_ref, coeffs in inputs:
                values += (len(coeffs) - 1, t_ref, *coeffs)
        self._owners = owners
        try:
            self._write(self._requests, values)
        except BrokenPipeError:
            raise self._ended() from None

    def receive(self) -> list:
        values = self._read(self._replies)
        if values is None:
            raise self._ended()
        results, at = [], 0
        for owner in self._owners:
            spec = self.specs[owner]
            if values[at]:
                mid = at + 1 + spec.n_states
                results.append((list(values[at + 1:mid]), values[mid:mid + spec.n_out]))
                at = mid + spec.n_out
            else:
                results.append(None)
                at += 1
        return results

    def close(self) -> None:
        import signal

        os.close(self._requests)
        os.close(self._replies)
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):  # reaped by someone else
            os.waitpid(self.pid, 0)

    def _ended(self) -> RuntimeError:
        return RuntimeError(f"partner process {self.pid} ended during the run")

    def _serve(self, requests: int, replies: int) -> None:
        """The child: walk each event's windows until the master closes."""
        specs = self.specs
        while (values := self._read(requests)) is not None:
            out, at = [], 0
            while at < len(values):
                spec = specs[int(values[at])]
                t_start, t_target = values[at + 1], values[at + 2]
                at += 3 + spec.n_states
                state = list(values[at - spec.n_states:at])
                inputs = []
                for _ in range(spec.n_in):
                    end = at + 3 + int(values[at])
                    # the master's polynomial, checked when it was built
                    poly = (values[at + 1], values[at + 2:end])
                    inputs.append(tuple.__new__(Polynomial, poly))
                    at = end
                try:
                    x, y = step_to(spec, state, inputs, t_start, t_target)
                    if {*map(type, x), *map(type, y)} != {float}:
                        raise TypeError("a state or an output is not a float")
                except Exception:
                    out.append(0.0)
                else:
                    out += (1.0, *x, *y)
            self._write(replies, out)

    def _write(self, fd: int, values: list) -> None:
        """One message: the count of doubles, then the doubles."""
        data = memoryview(
            self._struct.pack(f"{len(values) + 1}d", len(values), *values)
        )
        while data:
            data = data[os.write(fd, data):]

    def _read(self, fd: int) -> tuple[float, ...] | None:
        """One message's doubles; None once the writer has closed."""
        data, spins, size = b"", 0, None
        while size is None or len(data) < size:
            try:
                chunk = os.read(fd, 65536)
            except BlockingIOError:
                spins += 1
                if spins > SPINS:
                    self._select([fd], [], [])
                continue
            if not chunk:
                return None
            data += chunk
            if size is None and len(data) >= 8:
                size = 8 + 8 * int(self._struct.unpack_from("d", data)[0])
        return self._struct.unpack_from(f"{size // 8 - 1}d", data, 8)
