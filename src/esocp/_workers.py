"""Ordered map over forked worker processes, shared by the CLI and the replay."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def ordered_map(fn, items):
    """Yield fn(item) for each item, in order, across the usable CPUs.

    fn must be a module-level function and every item picklable (workers
    receive both through a pipe).  Workers are forked, so they start with
    every module this process has imported; the pool modules are imported
    here, not at the top, because importing them costs every caller's
    start-up.  This is the in-process map with one usable CPU or one item,
    without the fork start method, with other threads running (a forked child
    would inherit the locks they hold), or inside a worker process (pools
    never nest).  An exception raised by fn is re-raised here when its item
    comes up.
    """
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers > 1:
        import multiprocessing
        import threading

        if (
            "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1
            and multiprocessing.parent_process() is None
        ):
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                yield from pool.map(fn, items)
            return
    yield from map(fn, items)
