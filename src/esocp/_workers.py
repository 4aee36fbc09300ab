"""Forked worker processes: when they may be used, and ``Child``, the one place
where esocp forks a process, which returns its value or reports its exception,
dies and is reaped.  ``ordered_map``'s workers (the replay's chunks, the CLI's
tables) and the split sweep's helper are Children."""

from __future__ import annotations

import os
import pickle  # numpy has imported it already

_in_child = False  # set in every Child's own process


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def can_fork() -> bool:
    """Whether work may go to forked processes here: with two or more usable CPUs,
    where ``os.fork`` exists, outside a ``Child`` (Children never fork) and with
    no other thread running (a forked child would inherit the locks it holds).
    threading is imported here: at the top it would cost every caller's start-up."""
    import threading

    return usable_cpus() >= 2 and hasattr(os, "fork") and not _in_child and threading.active_count() == 1


def ordered_map(fn, items):
    """Yield fn(item) for each item, in order, across the usable CPUs.

    One ``Child`` per usable CPU claims items, one 4-byte index record at a time,
    from a pipe filled before the first fork (so no lock exists), runs fn on them
    (a closure will do), stops at its first exception and returns each index it
    ran with fn's result or exception.  The first failing item's exception is
    raised when its item comes up, once every child has finished; an item that
    no child returned, or a dead child, raises ``ChildProcessError``.  If this
    process fails or is interrupted while it waits, every child is killed and
    reaped.  In-process with one item or where ``can_fork()`` says no.
    """
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers < 2 or not can_fork():
        yield from map(fn, items)
        return
    # At most 128 records (512 bytes, the least PIPE_BUF POSIX allows: one write
    # that an empty pipe takes whole); past 128 items a record names a run of them.
    run = -(-len(items) // 128)

    def work() -> dict:
        ran = {}
        while record := os.read(claims, 4):  # end of file once every record is claimed
            first = int.from_bytes(record, "little") * run
            for i in range(first, min(first + run, len(items))):
                try:
                    ran[i] = True, fn(items[i])
                except Exception as exc:
                    ran[i] = False, _portable(exc)
                    return ran
        return ran

    claims, feed = os.pipe()
    children, done = [], {}
    try:
        with open(feed, "wb", buffering=0) as pipe:  # closed before the fork: no child holds it
            pipe.write(b"".join(r.to_bytes(4, "little") for r in range(-(-len(items) // run))))
        for _ in range(workers):
            children.append(Child(work))
        for child in children:
            done.update(child.join() or {})
    finally:
        for child in children:
            child.kill()
        os.close(claims)
    for i in range(len(items)):
        if i not in done:
            raise ChildProcessError(f"no worker process returned item {i} of {len(items)}")
        ok, result = done[i]
        if not ok:
            raise result
        yield result


def _portable(exc: BaseException) -> BaseException:
    """exc, or if it does not survive pickling a RuntimeError carrying its type name and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class Child:
    """A process forked to run fn(*args), and the pipe through which it reports.

    The child never returns into the caller's stack: it runs fn, sends what
    fn returned or the exception it raised (see ``_portable``) through the
    pipe, pickled and tagged "value" or "error", and exits, with status 0
    only if fn returned.  Its exit closes every descriptor it holds, so a
    caller that waits on a pipe or socket whose other end only the child
    holds sees end of file there, and ``join`` then raises what the child
    reported.  The caller must end every Child with ``join`` or ``kill``.
    """

    def __init__(self, fn, *args):
        self.pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.pipe)
            os.close(write_end)
            raise
        if self.pid == 0:
            global _in_child
            _in_child = True
            status = 1
            try:
                os.close(self.pipe)
                try:
                    data = pickle.dumps(("value", fn(*args)))
                    status = 0
                except BaseException as exc:
                    data = pickle.dumps(("error", _portable(exc)))
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(data)
            finally:
                os._exit(status)
        os.close(write_end)  # else children forked later would hold it open

    def join(self):
        """Wait for the child to exit and reap it.  Returns fn's value (None if
        it exited 0 without sending one) or raises fn's exception, or
        ``ChildProcessError`` if it was killed or exited non-zero without one."""
        # Read through a duplicate: if this process is interrupted mid-read,
        # the pipe itself is still open for ``kill`` to close.
        with os.fdopen(os.dup(self.pipe), "rb") as pipe:
            data = pipe.read()  # until the child's end closes as it exits
        _, status = os.waitpid(self.pid, 0)
        pid, self.pid = self.pid, None
        os.close(self.pipe)
        code = os.waitstatus_to_exitcode(status)
        if data and code >= 0:  # a killed child may have sent only part of it
            tag, outcome = pickle.loads(data)
            if tag == "error":
                raise outcome
            return outcome
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"child process {pid} died without reporting an error: it {how}")

    def kill(self) -> None:
        """SIGKILL and reap the child, unless ``join`` already reaped it."""
        if self.pid is not None:
            import signal  # not at the top: its enums cost every caller's start-up

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            os.close(self.pipe)
