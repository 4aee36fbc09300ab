"""Spans around the calls that cross esocp's module boundaries.

The traced run swaps the attributes each esocp module resolves at call time
(``esocp.partial_info.first_exercise_prices``, ``esocp.simulate.update_belief``,
``Lattice.level_prices``, ``FilterGrid.locate``, ...) for timing wrappers, runs
one operation, and puts the originals back.  Nothing inside ``src/`` knows it
is being traced.

Two kinds of record are kept in memory and written out at the end:

* a span per call of a wrapped entry point: run id, span id, parent id, name,
  start, end, the time its children covered and a work count;
* for hot leaf calls (thousands per operation: node prices, belief brackets,
  threshold scans, random streams) one aggregate per (parent span, name):
  call count, total seconds and work count.  A leaf wraps a call that reaches
  no other wrapped call, so its time is a child interval of its parent span.

A span's self time is its duration minus the time its child spans and leaf
calls covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

# Slack for comparing intervals read from one monotonic clock.
_CLOCK_SLACK_S = 1e-6


@dataclass
class Span:
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    child_s: float  # time covered by child spans and leaf calls
    work: float  # workload-specific count (node-steps, paths x steps, bytes, ...)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Leaf:
    run_id: str
    parent_id: int
    name: str
    calls: int
    seconds: float
    work: float


@dataclass
class _Open:
    span_id: int
    child_s: float = 0.0
    leaves: dict = field(default_factory=dict)


def _no_work(args, kwargs, out) -> float:
    return 0


class Tracer:
    """Collects spans and leaf aggregates for the operations of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.leaves: list[Leaf] = []
        self.run_id = ""
        self._stack: list[_Open] = []
        self._next_id = 0

    def span(self, name: str, fn, work=_no_work):
        """Wrap fn so that each call records one span."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = _Open(self._next_id)
            self._next_id += 1
            self._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            if parent is not None:
                parent.child_s += end - start
            self.spans.append(
                Span(
                    self.run_id,
                    frame.span_id,
                    None if parent is None else parent.span_id,
                    name,
                    start,
                    end,
                    frame.child_s,
                    work(args, kwargs, out),
                )
            )
            for leaf_name, (calls, seconds, count) in frame.leaves.items():
                self.leaves.append(Leaf(self.run_id, frame.span_id, leaf_name, calls, seconds, count))
            return out

        return traced

    def leaf(self, name: str, fn, work=_no_work):
        """Wrap fn so that its calls add to an aggregate under the open span."""

        def traced(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            frame = self._stack[-1]
            frame.child_s += elapsed
            agg = frame.leaves.get(name)
            if agg is None:
                agg = frame.leaves[name] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += work(args, kwargs, out)
            return out

        return traced


def check_spans(spans: list[Span], leaves: list[Leaf]) -> list[str]:
    """Violations of the nesting rules; an empty list means the trace is sound.

    Every child lies inside its parent's interval, the children together
    cover no more than the parent's duration, and so no child's self time
    exceeds its parent's span.
    """
    by_id = {(s.run_id, s.span_id): s for s in spans}
    covered: dict[tuple, float] = {}
    problems = []
    for s in spans:
        if s.duration < 0.0 or s.self_s < -_CLOCK_SLACK_S:
            problems.append(f"{s.name}#{s.span_id}: duration {s.duration:.3g}s, self {s.self_s:.3g}s")
        if s.parent_id is None:
            continue
        parent = by_id[(s.run_id, s.parent_id)]
        if s.start < parent.start or s.end > parent.end:
            problems.append(f"{s.name}#{s.span_id} lies outside its parent {parent.name}#{parent.span_id}")
        if s.self_s > parent.duration + _CLOCK_SLACK_S:
            problems.append(f"{s.name}#{s.span_id} self time exceeds parent {parent.name}#{parent.span_id}")
        key = (s.run_id, s.parent_id)
        covered[key] = covered.get(key, 0.0) + s.duration
    for leaf in leaves:
        key = (leaf.run_id, leaf.parent_id)
        covered[key] = covered.get(key, 0.0) + leaf.seconds
        if leaf.seconds > by_id[key].duration + _CLOCK_SLACK_S:
            problems.append(f"leaf {leaf.name} exceeds its parent span #{leaf.parent_id}")
    for key, total in covered.items():
        parent = by_id[key]
        if total > parent.duration + _CLOCK_SLACK_S:
            problems.append(f"children of {parent.name}#{parent.span_id} cover more than its duration")
    return problems


# ---------------------------------------------------------------------------
# Where the wrappers go.


def _size_of_arg(index: int):
    return lambda args, kwargs, out: np.size(args[index])


def _out_size(args, kwargs, out) -> float:
    return np.size(out)


def _full_node_steps(args, kwargs, out) -> float:
    n = out.lattice.n_steps
    return n * (n + 1)  # 2 regime trees x sum_{k<N} (k+1) nodes


def _partial_node_steps(args, kwargs, out) -> float:
    n = out.lattice.n_steps
    return out.grid.n_points * n * (n + 1) // 2  # L layers x sum_{k<N} (k+1) nodes


def _path_steps(args, kwargs, out) -> float:
    full, n_paths = args[0], args[2]
    return n_paths * full.lattice.n_steps


def _grid_exact_hits(args, kwargs, out) -> float:
    return int(np.sum(out.up_lo == out.up_hi) + np.sum(out.dw_lo == out.dw_hi))


def _bytes_written(args, kwargs, out) -> float:
    argv = args[0]
    out_dir = argv[argv.index("--out") + 1]
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())


class _NumpyWithTimedRandom:
    """Stands in for numpy inside esocp.simulate; times random streams only."""

    def __init__(self, random) -> None:
        self.random = random

    def __getattr__(self, name):
        return getattr(np, name)


def _timed_numpy(tracer: Tracer) -> _NumpyWithTimedRandom:
    construct = tracer.leaf("simulate.rng", np.random.default_rng)

    class TimedGenerator:
        __slots__ = ("gen",)

        def __init__(self, gen) -> None:
            self.gen = gen

        random = tracer.leaf("simulate.rng", lambda self, *a, **k: self.gen.random(*a, **k), _out_size)

    return _NumpyWithTimedRandom(
        SimpleNamespace(default_rng=lambda *a, **k: TimedGenerator(construct(*a, **k)))
    )


def install(tracer: Tracer):
    """Swap in the timing wrappers.

    Returns a function that restores esocp, and the hooks whose attribute no
    longer exists (a layer that moved reads 0 instead of breaking the run).
    """
    from esocp import cli, filtering, full_info, lattice, partial_info, perpetual, simulate

    originals, missing = [], []

    def hook(owner, attr, wrap) -> None:
        original = vars(owner).get(attr)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        originals.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    for owner in (full_info, partial_info):
        for attr in ("build_lattice", "transition_matrix", "regime_return_probs"):
            hook(owner, attr, lambda f, attr=attr: tracer.leaf(f"lattice.{attr}", f))
    for owner in (full_info, cli):
        hook(owner, "price_full", lambda f: tracer.span("full_info.price_full", f, _full_node_steps))
    for owner in (partial_info, cli):
        hook(owner, "price_partial", lambda f: tracer.span("partial_info.price_partial", f, _partial_node_steps))
    for owner, layer in ((full_info, "full_info"), (partial_info, "partial_info")):
        hook(owner, "first_exercise_prices", lambda f, layer=layer: tracer.leaf(f"{layer}.first_exercise_prices", f))
    hook(lattice.Lattice, "level_prices", lambda f: tracer.leaf("lattice.level_prices", f, _out_size))
    hook(partial_info, "build_grid", lambda f: tracer.span("filtering.build_grid", f, _grid_exact_hits))
    hook(filtering.FilterGrid, "locate", lambda f: tracer.leaf("filtering.locate", f, _size_of_arg(1)))
    hook(simulate, "update_belief", lambda f: tracer.leaf("filtering.update_belief", f, _size_of_arg(0)))
    hook(simulate, "surface_threshold", lambda f: tracer.span("simulate.surface_threshold", f))
    hook(simulate, "replay_batch", lambda f: tracer.span("simulate.replay_batch", f, _path_steps))
    hook(simulate, "np", lambda f: _timed_numpy(tracer))
    hook(perpetual, "solve_perpetual", lambda f: tracer.span("perpetual.solve_perpetual", f))
    hook(cli, "main", lambda f: tracer.span("cli.main", f, _bytes_written))

    def restore() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return restore, missing


# ---------------------------------------------------------------------------
# Per-layer table.

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
LAYER_METRICS = {
    "lattice.setup_s": ("s", "lower"),
    "lattice.level_prices_s": ("s", "lower"),
    "lattice.level_prices_calls": ("count", "lower"),
    "lattice.level_prices_nodes": ("count", "lower"),
    "filtering.build_grid_s": ("s", "lower"),
    "filtering.grid_exact_hits": ("count", "higher"),
    "filtering.update_belief_s": ("s", "lower"),
    "filtering.update_belief_elems": ("count", "lower"),
    "filtering.locate_s": ("s", "lower"),
    "filtering.locate_elems": ("count", "lower"),
    "full_info.sweep_self_s": ("s", "lower"),
    "full_info.node_steps": ("count", "lower"),
    "full_info.node_steps_per_s": ("1/s", "higher"),
    "full_info.threshold_s": ("s", "lower"),
    "full_info.threshold_calls": ("count", "lower"),
    "partial_info.sweep_self_s": ("s", "lower"),
    "partial_info.node_steps": ("count", "lower"),
    "partial_info.node_steps_per_s": ("1/s", "higher"),
    "partial_info.threshold_s": ("s", "lower"),
    "perpetual.solve_s": ("s", "lower"),
    "simulate.replay_s": ("s", "lower"),
    "simulate.rng_s": ("s", "lower"),
    "simulate.threshold_s": ("s", "lower"),
    "simulate.self_s": ("s", "lower"),
    "simulate.path_steps": ("count", "lower"),
    "simulate.path_steps_per_s": ("1/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
}


def layer_table(spans: list[Span], leaves: list[Leaf], cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (spans of a single run id)."""

    def spans_named(name):
        return [s for s in spans if s.name == name]

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in spans_named(name))

    def leaf_sum(name, attr="seconds"):
        return sum(getattr(leaf, attr) for leaf in leaves if leaf.name == name)

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    full_s = total("full_info.price_full")
    full_steps = total("full_info.price_full", "work")
    partial_s = total("partial_info.price_partial")
    partial_steps = total("partial_info.price_partial", "work")
    replay_s = total("simulate.replay_batch")
    path_steps = total("simulate.replay_batch", "work")
    return {
        "lattice.setup_s": sum(leaf_sum(f"lattice.{n}") for n in ("build_lattice", "transition_matrix", "regime_return_probs")),
        "lattice.level_prices_s": leaf_sum("lattice.level_prices"),
        "lattice.level_prices_calls": leaf_sum("lattice.level_prices", "calls"),
        "lattice.level_prices_nodes": leaf_sum("lattice.level_prices", "work"),
        "filtering.build_grid_s": total("filtering.build_grid"),
        "filtering.grid_exact_hits": total("filtering.build_grid", "work"),
        "filtering.update_belief_s": leaf_sum("filtering.update_belief"),
        "filtering.update_belief_elems": leaf_sum("filtering.update_belief", "work"),
        "filtering.locate_s": leaf_sum("filtering.locate"),
        "filtering.locate_elems": leaf_sum("filtering.locate", "work"),
        "full_info.sweep_self_s": total("full_info.price_full", "self_s"),
        "full_info.node_steps": full_steps,
        "full_info.node_steps_per_s": rate(full_steps, full_s),
        "full_info.threshold_s": leaf_sum("full_info.first_exercise_prices"),
        "full_info.threshold_calls": leaf_sum("full_info.first_exercise_prices", "calls"),
        "partial_info.sweep_self_s": total("partial_info.price_partial", "self_s"),
        "partial_info.node_steps": partial_steps,
        "partial_info.node_steps_per_s": rate(partial_steps, partial_s),
        "partial_info.threshold_s": leaf_sum("partial_info.first_exercise_prices"),
        "perpetual.solve_s": total("perpetual.solve_perpetual"),
        "simulate.replay_s": replay_s,
        "simulate.rng_s": leaf_sum("simulate.rng"),
        "simulate.threshold_s": total("simulate.surface_threshold"),
        "simulate.self_s": total("simulate.replay_batch", "self_s"),
        "simulate.path_steps": path_steps,
        "simulate.path_steps_per_s": rate(path_steps, replay_s),
        "cli.self_s": total("cli.main", "self_s"),
        "cli.bytes_written": total("cli.main", "work"),
        "proc.cpu_s": cpu_s,
    }
