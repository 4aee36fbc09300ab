"""Forked worker processes: when they may be used, an ordered map over a
process pool for the CLI, and ``Child``, the one place where esocp itself
forks a process, and where that process reports its exception, dies and is
reaped.  ``fork_each`` runs one Child per item (the replay's shares, which
write to shared memory); the split sweep's helper is a Child too."""

from __future__ import annotations

import os
import pickle  # numpy has imported it already


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def can_fork() -> bool:
    """Whether work may go to forked processes here.

    It may with two or more usable CPUs, the fork start method, no other
    thread running (a forked child would inherit the locks it holds) and
    outside a process pool's worker (pools never nest), as
    ``multiprocessing.parent_process()`` tells.  A ``Child`` passes that
    test, but none forks (a replay share or the split sweep's helper).  The
    multiprocessing and threading modules are imported here, not at the
    top, because importing them costs every caller's start-up.
    """
    if usable_cpus() < 2:
        return False
    import multiprocessing
    import threading

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
        and multiprocessing.parent_process() is None
    )


def ordered_map(fn, items):
    """Yield fn(item) for each item, in order, across the usable CPUs.

    fn must be a module-level function and every item picklable (workers
    receive both through a pipe).  Workers are forked, so they start with
    every module this process has imported.  This is the in-process map with
    one item or where ``can_fork()`` says no.  An exception raised by fn is
    re-raised here when its item comes up.
    """
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers > 1 and can_fork():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            yield from pool.map(fn, items)
        return
    yield from map(fn, items)


def fork_each(fn, items) -> None:
    """Run fn(item) for every item, each in a ``Child`` forked for it, and
    wait for all of them.

    Nothing passes between the processes but errors: a child starts with a
    copy of this process, fn included (a closure will do), and fn must leave
    its results in memory shared before the fork.  This runs fn in-process,
    item after item, with one item or where ``can_fork()`` says no.  The
    children are joined in order, so the first failing item's error is
    raised here (see ``Child.join``).  If this process fails or is
    interrupted while it waits, every child is killed and reaped.
    """
    items = list(items)
    if len(items) < 2 or not can_fork():
        for item in items:
            fn(item)
        return
    children = []
    try:
        for item in items:
            children.append(Child(fn, item))
        for child in children:
            child.join()
    finally:
        for child in children:
            child.kill()


class Child:
    """A process forked to run fn(*args), and the pipe through which it reports.

    The child never returns into the caller's stack: it runs fn, sends any
    exception it raises through the pipe (pickled; one that does not survive
    pickling goes as a RuntimeError carrying its type name and message) and
    exits, with status 0 only if fn returned.  Its exit closes every
    descriptor it holds, so a caller that waits on a pipe or socket whose
    other end only the child holds sees end of file there, and ``join``
    then raises what the child reported.  The caller must end every Child
    with ``join`` or ``kill``.
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
            status = 1
            try:
                os.close(self.pipe)
                fn(*args)
                status = 0
            except BaseException as exc:
                try:
                    data = pickle.dumps(exc)
                    pickle.loads(data)
                except Exception:
                    data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(data)
            finally:
                os._exit(status)
        os.close(write_end)  # else children forked later would hold it open

    def join(self) -> None:
        """Wait for the child to exit and reap it.  Raises its exception, or
        ``ChildProcessError`` if it died or exited non-zero without sending one."""
        # Read through a duplicate: if this process is interrupted mid-read,
        # the pipe itself is still open for ``kill`` to close.
        with os.fdopen(os.dup(self.pipe), "rb") as pipe:
            data = pipe.read()  # until the child's end closes as it exits
        _, status = os.waitpid(self.pid, 0)
        pid, self.pid = self.pid, None
        os.close(self.pipe)
        if data:
            raise pickle.loads(data)
        code = os.waitstatus_to_exitcode(status)
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
