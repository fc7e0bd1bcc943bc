"""A forked child process that serves its parent over pipes.

`scenario.GridCsvWriter` renders CSV rows in one, and `control.solve_p`
evaluates stage maps ahead of need in another.  Each does the same work
in-process when there is no child: without os.fork, when the process may
use one CPU only, or when the pipe or the fork fails.
"""

from __future__ import annotations

import os
import signal
import struct
from contextlib import suppress

_HEAD = struct.Struct("=qq")  # a frame's header (lo, hi): two native int64


def frame(lo: int, hi: int) -> bytes:
    """The header (lo, hi) of a frame.  Its payload, if any, follows it on
    the pipe as a second write: a C-contiguous float64 array written from its
    own buffer, so that no grid-sized array is copied on its way into the pipe."""
    return _HEAD.pack(lo, hi)


def frame_heads(pipe):
    """The header (lo, hi) of each frame on the reader pipe; read each payload before the next."""
    while head := pipe.read(_HEAD.size):
        yield _HEAD.unpack(head)


class Child:
    """Forks a child that runs serve(*files) and exits with its return value.

    The first pipe carries the parent's frames to the child; with pipes=2 a
    second one carries the child's replies back.  serve gets the child's
    ends, a binary reader then a writer, and files holds the parent's, a
    writer then a reader.  The child runs with garbage collection off, since
    collecting the parent's garbage could flush its files, and ends by
    os._exit, which flushes no buffer: serve flushes its own replies.  pid
    is None when no child was forked: without os.fork, and where
    os.sched_getaffinity says the process may use one CPU only, since a
    child then only takes turns with its parent.  Leaving a with-block
    waits for the child, or kills it if the block raised.
    """

    def __init__(self, serve, pipes: int = 1):
        self.pid, self.files = None, []
        if not hasattr(os, "fork") or _one_cpu():
            return
        ends = []
        try:
            for _ in range(pipes):
                ends.append(os.pipe())
            pid = os.fork()
        except OSError:  # no file descriptor or no process to spare
            _close(fd for pair in ends for fd in pair)
            return
        # the parent writes pipe 0 and reads pipe 1; the child the reverse
        mine = [w if i == 0 else r for i, (r, w) in enumerate(ends)]
        theirs = [r if i == 0 else w for i, (r, w) in enumerate(ends)]
        if pid == 0:
            status = 255
            try:
                import gc
                gc.disable()
                _close(mine)
                self.files = list(map(os.fdopen, theirs, ("rb", "wb")))  # os._exit closes them
                status = serve(*self.files)
            finally:
                os._exit(status)
        _close(theirs)
        self.pid = pid
        self.files = list(map(os.fdopen, mine, ("wb", "rb")))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.pid is None:
            return
        if exc_type is None:
            self.wait()
        else:
            self.kill()

    def send(self, *data) -> bool:
        """Write each of data (bytes or a C-contiguous array) down the first
        pipe, then flush it; False if there is no child or it has died (then
        it is reaped)."""
        if self.pid is not None:
            try:
                for part in data:
                    self.files[0].write(part)
                self.files[0].flush()
                return True
            except OSError:  # the child has died
                self.kill()
        return False

    def receive(self, out):
        """out, filled from the second pipe; None if there is no child or it
        has died (then it is reaped)."""
        if self.pid is not None:
            with suppress(OSError):  # a failed read ends the child too
                if self.files[1].readinto(out) == out.nbytes:
                    return out
            self.kill()  # it has died
        return None

    def wait(self) -> int:
        """Close the pipes, wait for the child to exit, and return its exit code."""
        for f in self.files:
            with suppress(BrokenPipeError):  # the exit status says why
                f.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def kill(self):
        """Kill the child, whatever it is doing, and reap it."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None
        for f in self.files:
            with suppress(OSError):  # the pipe has no reader left
                f.close()


def _one_cpu() -> bool:
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2


def _close(fds):
    for fd in fds:
        os.close(fd)
