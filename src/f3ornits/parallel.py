"""Work on more than one CPU: when a process may fork, and the one kind of
forked child.

`compare`'s rows (report.py) are the one user of a second CPU; a run takes
one process.  A process forks nothing where the platform cannot tell its
CPUs or cannot fork, where it has a second thread, which a fork would leave
behind, or where a function its work calls has been wrapped from outside,
as the benchmark's tracer does: a wrapper keeps its records in the memory
of its own process, which a child would never reach.

A `Child` brings back only work that completed, and the parent does again,
in index order, whatever no child brought back, so it raises the real
exception itself, with its own traceback, as on one CPU.
"""

from __future__ import annotations

import contextlib
import os


def cpus(*functions) -> int:
    """The CPUs this process may spread its work over by forking: those of
    its affinity set, or 1 where the module docstring says it forks nothing
    (any of `functions` wrapped, functools.wraps setting `__wrapped__`)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    import threading

    if threading.active_count() > 1 or any(
        hasattr(fn, "__wrapped__") for fn in functions
    ):
        return 1
    return len(os.sched_getaffinity(0))


class Child:
    """A forked process that runs `work()`, sends what it returns to the
    parent and leaves by os._exit, status 0 once that is sent, 1 if `work`
    raises: it never returns into the caller's code, so it writes no file
    and flushes no inherited buffer.

    The one message goes over a pipe from child to parent, an 8-byte length
    and then a pickle.  `receive` reads it; where the child has closed its
    end without sending it whole, it raises a RuntimeError naming the
    child's role, its pid, the `reply` the parent waited for and its exit
    status.  `close`, which the parent calls on every path, kills and reaps
    the child once.  `pickle` is imported here, so a process that never
    forks does not load it.
    """

    def __init__(self, work, role: str, reply: str):
        import pickle

        self._pickle = pickle
        self.role, self.reply, self.status = role, reply, None
        self._in, out = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self._in)
            os.close(out)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._in)
                data = pickle.dumps(work(), pickle.HIGHEST_PROTOCOL)
                data = memoryview(len(data).to_bytes(8, "little") + data)
                while data:
                    data = data[os.write(out, data):]
                code = 0
            finally:
                os._exit(code)
        os.close(out)

    def receive(self):
        """The child's message, read to the end of the pipe."""
        data = b""
        while chunk := os.read(self._in, 65536):
            data += chunk
        if len(data) < 8 or len(data) != 8 + int.from_bytes(data[:8], "little"):
            raise self._ended()
        return self._pickle.loads(data[8:])

    def close(self) -> int:
        """Kill and reap the child, once; its exit status."""
        if self.status is None:
            import signal

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
