"""Forked worker processes: when they may be used, an ordered map over them
for the CLI, one child per item for work that writes to shared memory (the
replay), and the pipe through which a forked child reports its exception
(shared with the split sweep's helper)."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def can_fork() -> bool:
    """Whether work may go to forked processes here.

    It may with two or more usable CPUs, the fork start method, no other
    thread running (a forked child would inherit the locks it holds) and
    outside a worker process (pools never nest).  The multiprocessing and
    threading modules are imported here, not at the top, because importing
    them costs every caller's start-up.
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
    """Run fn(item) for every item, each in a child forked for it, and wait
    for all of them.

    Nothing passes between the processes but errors: a child starts with a
    copy of this process, fn included (a closure will do), and fn must leave
    its results in memory shared before the fork.  This runs fn in-process,
    item after item, with one item or where ``can_fork()`` says no.  An
    exception raised by fn in a child is re-raised here with its type and
    message (the first failing item's, in order); a child that dies or exits
    non-zero without reporting raises ``ChildProcessError``.  If this process fails
    or is interrupted while it waits, every child is killed and reaped.
    """
    items = list(items)
    if len(items) < 2 or not can_fork():
        for item in items:
            fn(item)
        return
    import signal

    children = {}  # pid -> read end of the child's error pipe, until reaped
    try:
        for item in items:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                # The child never returns into the caller's stack.
                status = 1
                try:
                    fn(item)
                    status = 0
                except BaseException as exc:
                    send_error(write_end, exc)
                finally:
                    os._exit(status)
            os.close(write_end)  # else later children would hold it open
            children[pid] = read_end
        for pid in list(children):
            error = read_error(children[pid])  # its end closes when it exits
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if error is not None:
                raise error
            if status:
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"worker process {pid} {how} without reporting an error")
    finally:
        for pid, read_end in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)


def send_error(fd: int, exc: BaseException) -> None:
    """In a forked child: pickle exc to the parent through pipe fd and close
    it.  An exception that does not survive pickling goes as a RuntimeError
    carrying its type name and message."""
    import pickle

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(data)


def read_error(fd: int) -> BaseException | None:
    """In the parent: the exception a child sent through pipe fd with
    ``send_error``, or None if it sent none.  Reads until every write end is
    closed; fd itself stays open."""
    import pickle

    with os.fdopen(os.dup(fd), "rb") as pipe:
        data = pipe.read()
    return pickle.loads(data) if data else None
