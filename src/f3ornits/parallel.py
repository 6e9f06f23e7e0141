"""Work on more than one CPU: when a process may fork, the one kind of
forked child, and the partner.

`cpus` is the one rule for both users of a second CPU: `compare`'s rows
(report.py) and the partner process of a run (`Partner`, master.py).  A
process forks nothing where the platform cannot tell its CPUs or cannot
fork, where it has a second thread, which a fork would leave behind, or
where a function its work calls has been wrapped from outside, as the
benchmark's tracer does: a wrapper keeps its records in the memory of its
own process, which a child would never reach.  Each of `compare`'s row
processes counts as one CPU (`one_share`), so no row forks a partner of its
own and the rows do not ask for more CPUs than there are.

Both fork a `Child` and keep one failure rule: a child brings back only
work that completed, and the parent does again, in index order, whatever
no child brought back, so it raises the real exception itself, with its
own traceback, as on one CPU.
"""

from __future__ import annotations

import contextlib
import os

from .poly import Polynomial
from .subsystem import step_to

#: failed non-blocking reads before a reader blocks in select, 1-3 us each
#: on a shared 2-vCPU host: a few milliseconds, so a request or a reply that
#: comes within an event's time is taken without a wake-up, which took
#: 15-50 us there.  Each failed read yields the CPU: where both ends share
#: one, a reader that spun its time slice away kept the writer from writing
#: (there, two car runs with partners at once took 23 s each where one took
#: 0.57 s; yielding, 0.9 s)
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


class Child:
    """A forked process that runs `work(child)` and leaves by os._exit,
    status 0 once `work` returns, 1 if it raises: it never returns into the
    caller's code, so it writes no file and flushes no inherited buffer.

    Each end sends whole messages over a pipe of its own, an 8-byte length
    and then a pickle, one at a time: each waits for the other's reply.  A
    reader spins on its non-blocking pipe SPINS times, yielding its CPU
    after each failed read, then blocks in select.  Once the other end has
    closed, `receive` gives None in the child; in the parent, `send` and
    `receive` raise a RuntimeError naming the child's role, its pid, the
    `reply` the parent waited for and its exit status.  `close`, which the
    parent calls on every path, kills and reaps the child once.  `pickle`
    and `select` are imported here, so a process that never forks does not
    load them.
    """

    def __init__(self, work, role: str, reply: str):
        import pickle
        import select

        self._pickle, self._select = pickle, select.select
        self.role, self.reply, self.status = role, reply, None
        requests, self._out = os.pipe()
        self._in, replies = os.pipe()
        for fd in (requests, self._in):
            os.set_blocking(fd, False)
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self._out, self._in, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._out)
                os.close(self._in)
                self._in, self._out = requests, replies
                work(self)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)

    def send(self, message) -> None:
        data = self._pickle.dumps(message, self._pickle.HIGHEST_PROTOCOL)
        data = memoryview(len(data).to_bytes(8, "little") + data)
        try:
            while data:
                data = data[os.write(self._out, data):]
        except BrokenPipeError:
            if not self.pid:
                raise
            raise self._ended() from None

    def receive(self):
        """The next message; where the other end has closed, None in the
        child and the ended-child RuntimeError in the parent."""
        data, spins, size = b"", 0, None
        while size is None or len(data) < size:
            try:
                chunk = os.read(self._in, 65536)
            except BlockingIOError:
                spins += 1
                if spins > SPINS:
                    self._select([self._in], [], [])
                else:
                    os.sched_yield()
                continue
            if not chunk:
                if self.pid:
                    raise self._ended()
                return None
            data += chunk
            if size is None and len(data) >= 8:
                size = 8 + int.from_bytes(data[:8], "little")
        return self._pickle.loads(data[8:])

    def close(self) -> int:
        """Kill and reap the child, once; its exit status."""
        if self.status is None:
            import signal

            os.close(self._out)
            os.close(self._in)
            # a child whose pipe has closed is already exiting: its status
            # stays the one it exits with
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status

    def _ended(self) -> RuntimeError:
        return RuntimeError(
            f"{self.role} {self.pid} ended without its {self.reply} "
            f"(exit status {self.close()})"
        )


class Partner(Child):
    """A forked process that walks windows of the subsystem `spec`.

    A window is step_to's (state, inputs, t_start, t_target): inputs are
    the input polynomials, which travel as plain tuples and are rebuilt
    unchecked: the master checked them.  `send` hands the child one
    window; `receive` gives back its new state and outputs, or None where
    the child's walk raised or gave a number that is not a float, which
    might not cross the pipe: the master walks that window again, and
    raises the exception itself.  The child holds no state of its own, so
    a window walked in either process leaves both ready for the next.
    Events come far more often than SPINS failed reads take, so the child
    keeps a CPU of its own busy for as long as the run lasts, and gives one
    it shares away.
    """

    def __init__(self, spec):
        self.spec = spec
        super().__init__(self._serve, "partner process", "window")

    def send(self, state, inputs, t_start, t_target) -> None:
        super().send((state, [tuple(poly) for poly in inputs], t_start, t_target))

    def _serve(self, child: Child) -> None:
        """The child: walk each window until the master closes."""
        spec, rebuild = self.spec, tuple.__new__
        for state, inputs, t_start, t_target in iter(child.receive, None):
            inputs = [rebuild(Polynomial, poly) for poly in inputs]
            try:
                x, y = step_to(spec, state, inputs, t_start, t_target)
                if {*map(type, x), *map(type, y)} != {float}:
                    raise TypeError("a state or an output is not a float")
                result = x, y
            except Exception:
                result = None
            super().send(result)  # Child's send: the reply is no window
