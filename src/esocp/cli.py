"""Command-line front end.

``main`` resolves the model parameters of every subcommand the same way
(file, then inline flags, then the built-in base case) and hands them to the
subcommand, which echoes a manifest of the resolved inputs and writes
plot-ready CSV when an output directory is given.  ``main`` then maps the
outcome to the exit code: 0 success, 1 engine/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from math import inf
from pathlib import Path

import numpy as np

from . import __version__
from ._workers import ordered_map
from .full_info import FullInfoResult, price_full, price_full_roots
from .model import PARAM_KEYS, ModelParams, check_beliefs, load_params, parse_rate, validate
from .partial_info import price_partial
from .perpetual import BracketError, NoFiniteBoundary, solve_perpetual
from .simulate import (
    RNG_NAME,
    agent_labels,
    aggregate_stats,
    replay_batch,
    replay_policies,
    simulate_joint_path,
)

# Base case used throughout the numerical study: at-the-money ten-year grant.
BASE_PARAMS = ModelParams(
    mu0=0.02,
    mu1=-0.02,
    sigma=0.30,
    lam=0.10,
    r=0.025,
    strike=100.0,
    maturity=10.0,
    spot=100.0,
    y0=0.0,
)


def _fmt(x: float) -> str:
    return repr(float(x))  # shortest round-trip decimal, or inf, -inf, nan


def _resolve_params(args: argparse.Namespace) -> ModelParams:
    if args.params is not None:
        path = Path(args.params)
        if not path.exists():
            raise UsageError(f"parameter file not found: {path}")
        params = load_params(path)
    else:
        params = BASE_PARAMS
    overrides = {
        field: getattr(args, field)
        for field in PARAM_KEYS.values()
        if field != "y0" and getattr(args, field) is not None
    }
    return validate(replace(params, **overrides, literal_exponent=args.literal_pl_exponent))


class UsageError(Exception):
    pass


def _check_sizes(args: argparse.Namespace) -> None:
    """Path counts, lattice sizes (--N, --L and their lists), --seed,
    --x-points, --x-min, --x-max and --smooth-degree out of range, or not
    finite, are usage errors."""
    bounds = (
        ("paths", 1), ("export_paths", 0), ("N", 1), ("L", 2), ("N_list", 1), ("L_list", 2), ("seed", 0),
        ("x_points", 1), ("x_min", 0), ("x_max", 0), ("smooth_degree", 0),
    )
    for dest, minimum in bounds:
        values = getattr(args, dest, None)
        for value in values if isinstance(values, list) else [values]:
            if value is not None and value < minimum:
                raise UsageError(f"--{dest.replace('_', '-')} must be >= {minimum}, got {value}")
            if value is not None and not value < inf:  # nan or +inf
                raise UsageError(f"--{dest.replace('_', '-')} must be finite, got {value}")


class _Output:
    """Manifest plus CSV sink; prints to stdout, writes files under --out.

    Creating one runs the whole manifest protocol: check the sizes, make
    --out, record the command (``args.command``), the version, every model
    parameter and then ``inputs`` in the order given, echo each entry as a
    ``# key=value`` line and write the same lines to manifest.txt.
    """

    def __init__(self, args: argparse.Namespace, params: ModelParams, **inputs):
        _check_sizes(args)
        self.out_dir = Path(args.out) if args.out else None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        entries = [("command", args.command), ("version", __version__)]
        entries += [(key, getattr(params, field)) for key, field in PARAM_KEYS.items()]
        entries += inputs.items()
        lines = [f"{key}={_fmt(v) if isinstance(v, float) else v}" for key, v in entries]
        if self.out_dir is not None:
            (self.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")
        for line in lines:
            print(f"# {line}")

    def write_csv(self, name: str, header: list[str], blocks) -> None:
        """Write the header line, then each block, a list of equal-length
        columns, as CSV rows ending in CRLF: floats (numpy float64 included)
        through ``_fmt``, every other cell through ``str``, nothing quoted."""
        if self.out_dir is None:
            return
        with open(self.out_dir / name, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for columns in blocks:
                cells = [[_fmt(v) if isinstance(v, float) else str(v) for v in column] for column in columns]
                fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))
        print(f"wrote {self.out_dir / name}")


def _check_beliefs(beliefs, labelled: bool = False) -> None:
    """--y0 values outside [0, 1] are usage errors; so are, where each names an
    outcome (labelled, as in ``simulate``), two distinct values with one label."""
    try:
        check_beliefs(beliefs, "--y0")
        if labelled:
            agent_labels(beliefs)
    except ValueError as exc:
        raise UsageError(exc) from None


def _roots(job: tuple[ModelParams, int, int, bool]) -> tuple[float, ...]:
    """Root values of one run: v0, v1 (insider runs only), u(0), u(0.5).

    job is (params, N, L, insider). Plain floats, so a worker sends back
    only these and not the priced arrays.
    """
    params, n, l, insider = job
    v = ()
    if insider:
        full = price_full(params, n, keep_boundaries=False)
        v = (float(full.v0_root), float(full.v1_root))
    partial = price_partial(params, n, l)
    return v + (float(partial.root_at(0.0)), float(partial.root_at(0.5)))


def _smoothed(values: np.ndarray, degree: int) -> np.ndarray:
    """Polynomial-regression smoothing, over the steps, of the finite part of a
    boundary.  A fit that numpy warns about (a rank-deficient one) is a
    ValueError."""
    steps = np.arange(values.size, dtype=float)
    finite = np.isfinite(values)
    out = np.full_like(values, np.inf)
    if finite.sum() > degree:
        # RankWarning is np.RankWarning in numpy 1.24 and np.exceptions.RankWarning in numpy 2: name neither
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                coeffs = np.polyfit(steps[finite], values[finite], degree)
            except Warning as exc:
                raise ValueError(f"cannot smooth the boundary with --smooth-degree {degree}: {exc}") from None
        out[finite] = np.polyval(coeffs, steps[finite])
    else:
        out[finite] = values[finite]
    return out


def _write_boundary(out: _Output, name: str, result: FullInfoResult, boundaries=None):
    """Both regimes' exercise boundaries per step, or the given pair of them."""
    b0, b1 = boundaries or (result.boundary(0), result.boundary(1))
    steps = range(b0.size)
    times = [k * result.lattice.h for k in steps]
    out.write_csv(name, ["step", "time_years", "boundary_regime0", "boundary_regime1"], [[steps, times, b0, b1]])


def cmd_price_full(args: argparse.Namespace, params: ModelParams) -> None:
    out = _Output(args, params, N=args.N, literal_pl_exponent=args.literal_pl_exponent)
    result = price_full(params, args.N)
    print(f"v0 = {result.v0_root:.6f}")
    print(f"v1 = {result.v1_root:.6f}")
    _write_boundary(out, "boundary.csv", result)


def cmd_price_partial(args: argparse.Namespace, params: ModelParams) -> None:
    y0_list = args.y0_list if args.y0_list else [params.y0]
    _check_beliefs(y0_list)
    out = _Output(
        args, params, N=args.N, L=args.L,
        y0_list=",".join(_fmt(y) for y in y0_list), literal_pl_exponent=args.literal_pl_exponent,
    )
    result = price_partial(params, args.N, args.L)
    values = [result.root_at(y0) for y0 in y0_list]
    for y0, value in zip(y0_list, values):
        print(f"u(y0={y0:g}) = {value:.6f}")
    out.write_csv("values.csv", ["y0", "value"], [[y0_list, values]])


def cmd_boundary(args: argparse.Namespace, params: ModelParams) -> None:
    out = _Output(args, params, N=args.N, literal_pl_exponent=args.literal_pl_exponent, smooth=args.smooth)
    result = price_full(params, args.N)
    # smoothed before any CSV is written, so a fit that fails writes none
    smoothed = [_smoothed(result.boundary(regime), args.smooth_degree) for regime in (0, 1)] if args.smooth else None
    _write_boundary(out, "boundary.csv", result)
    if smoothed:
        _write_boundary(out, "boundary_smoothed.csv", result, smoothed)
    if out.out_dir is None:
        b0, b1 = result.boundary(0), result.boundary(1)
        print(f"boundary at t=0: regime0 {_fmt(float(b0[0]))}, regime1 {_fmt(float(b1[0]))}")


def cmd_surface(args: argparse.Namespace, params: ModelParams) -> None:
    out = _Output(args, params, N=args.N, L=args.L, literal_pl_exponent=args.literal_pl_exponent)
    result = price_partial(params, args.N, args.L, keep_surface=True)
    h = result.lattice.h
    beliefs = [_fmt(y) for y in result.grid.points]
    n = len(beliefs)
    # one block per step: its step and time texts repeated over the layers
    blocks = ([[str(k)] * n, [_fmt(k * h)] * n, beliefs, result.surface[k]] for k in range(args.N + 1))
    out.write_csv("surface.csv", ["step", "time_years", "belief", "boundary_price"], blocks)
    if out.out_dir is None:
        print(f"surface at t=0: y=0 -> {_fmt(float(result.surface[0, 0]))}, "
              f"y=1 -> {_fmt(float(result.surface[0, -1]))}")


def cmd_perpetual(args: argparse.Namespace, params: ModelParams) -> None:
    out = _Output(args, params)
    solution = solve_perpetual(params)
    if isinstance(solution, NoFiniteBoundary):
        print(f"no finite exercise boundary: {solution.reason}")
        return
    for name in ("gamma", "beta", "delta", "A", "B", "C", "D", "E", "F", "x1", "x0"):
        print(f"{name} = {getattr(solution, name):.10g}")
    x_lo = args.x_min if args.x_min is not None else 0.0
    x_hi = args.x_max if args.x_max is not None else 1.5 * solution.x0
    xs = np.linspace(x_lo, x_hi, args.x_points)
    columns = [xs, [solution.v0(x) for x in xs], [solution.v1(x) for x in xs]]
    out.write_csv("perpetual.csv", ["x", "v0", "v1"], [columns])


def _export_paths(out: _Output, params, full, partial, seed: int, n_export: int, belief_starts) -> None:
    """Write paths 0..n_export-1 of the batch stream, with the thresholds each
    agent's replay compared the stock against."""
    agents = agent_labels(belief_starts)
    header = ["step", "time", "stock", "regime"] + [f"belief_y0={y0:g}" for y0 in belief_starts]
    header += ["insider_boundary"] + [f"outsider_boundary_y0={y0:g}" for y0 in belief_starts]
    header += ["exercise_insider"] + [f"exercise_outsider_y0={y0:g}" for y0 in belief_starts]
    lattice = full.lattice
    steps = range(lattice.n_steps + 1)
    times = [k * lattice.h for k in steps]
    for i in range(n_export):
        path = simulate_joint_path(params, lattice, full.q, full.p, (seed, i), belief_starts)
        by_name = {o.agent: o for o in replay_policies(path, full, dict.fromkeys(belief_starts, partial))}
        outcomes = [by_name[agent] for agent in agents]
        columns = [steps, times, path.stock, path.regime, *(path.beliefs[y0] for y0 in belief_starts)]
        columns += [o.thresholds for o in outcomes] + [[int(k == o.exercise_step) for k in steps] for o in outcomes]
        out.write_csv(f"path_{i:04d}.csv", header, [columns])


def cmd_simulate(args: argparse.Namespace, params: ModelParams) -> None:
    belief_starts = tuple(args.y0_list) if args.y0_list else (0.0, 0.5)
    _check_beliefs(belief_starts, labelled=True)
    n_export = min(args.export_paths, args.paths)
    out = _Output(
        args, params, N=args.N, L=args.L, seed=args.seed, paths=args.paths,
        export_paths=n_export, belief_starts=",".join(_fmt(y) for y in belief_starts), rng=RNG_NAME,
        literal_pl_exponent=args.literal_pl_exponent,
    )
    full = price_full(params, args.N)
    partial = price_partial(params, args.N, args.L, keep_surface=True)
    if out.out_dir is not None:
        _export_paths(out, params, full, partial, args.seed, n_export, belief_starts)
    results = replay_batch(full, partial, args.paths, args.seed, belief_starts)
    table = aggregate_stats(results, full.lattice.h)
    print(table.as_text())
    fields = ["agent", "n_paths", "mean_payoff", "std_payoff", "se_payoff", "exercise_frequency", "mean_exercise_time"]
    columns = [[getattr(a, field) for a in table.agents] for field in fields]
    out.write_csv("summary.csv", ["agent", "paths", *fields[2:]], [columns])
    if out.out_dir is not None:
        (out.out_dir / "summary.txt").write_text(table.as_text() + "\n")


# Parameter grid of the comparative-statics table.
TABLE1_MU0 = (0.02, 0.08, 0.18)
TABLE1_MU1 = (-0.02, -0.05, -0.10)
TABLE1_SIGMA = (0.20, 0.30, 0.40)
TABLE1_LAMBDA = (0.10, 0.20)


def cmd_table1(args: argparse.Namespace, params: ModelParams) -> None:
    out = _Output(args, params, N=args.N, L=args.L, literal_pl_exponent=args.literal_pl_exponent)
    cells = [
        replace(params, mu0=mu0, mu1=mu1, sigma=sigma, lam=lam)
        for lam in TABLE1_LAMBDA
        for sigma in TABLE1_SIGMA
        for mu0 in TABLE1_MU0
        for mu1 in TABLE1_MU1
    ]
    groups: dict[ModelParams, list[ModelParams]] = {}
    for cell in cells:
        groups.setdefault(replace(cell, mu0=0.0, mu1=0.0, lam=0.0), []).append(cell)
    # The insiders of the cells that share a lattice are one job; these go
    # first, then one outsider job per cell.  A group returns a failing run's
    # error as a value, so each error is raised when its cell comes up.
    def run(job):  # a group's list of runs, or one cell
        return price_full_roots(job, args.N) if isinstance(job, list) else _roots((job, args.N, args.L, False))

    results = ordered_map(run, [*groups.values(), *cells])
    print(f"{'mu0':>5} {'mu1':>5} {'sigma':>6} {'lambda':>6}   {'v0':>7} {'v1':>7} {'u(0)':>7} {'u(0.5)':>7}")
    insiders = {}
    for members in groups.values():
        insiders.update(zip(members, next(results)))
    rows = []
    for cell in cells:
        insider = insiders[cell]
        if isinstance(insider, Exception):
            raise insider
        (v0, v1), (u0, u05) = insider, next(results)
        rows.append((cell.mu0, cell.mu1, cell.sigma, cell.lam, v0, v1, u0, u05))
        print(
            f"{cell.mu0:>5.0%} {cell.mu1:>5.0%} {cell.sigma:>6.0%} {cell.lam:>6.0%}   "
            f"{v0:>7.1f} {v1:>7.1f} {u0:>7.1f} {u05:>7.1f}"
        )
    out.write_csv("table1.csv", ["mu0", "mu1", "sigma", "lambda", "v0", "v1", "u0", "u05"], [zip(*rows)])


def cmd_converge(args: argparse.Namespace, params: ModelParams) -> None:
    out = _Output(
        args, params, N_list=",".join(str(n) for n in args.N_list),
        L_list=",".join(str(l) for l in args.L_list), L=args.L, N=args.N,
        literal_pl_exponent=args.literal_pl_exponent,
    )
    jobs = [(params, n, args.L, True) for n in args.N_list]
    jobs += [(params, args.N, l, False) for l in args.L_list]
    # One ordered_map for both tables; each zip stops at the end of its own
    # list before asking the shared iterator for another result.
    results = ordered_map(_roots, jobs)
    tables = []
    for sizes, header in ((args.N_list, ["n", "v0", "v1", "u0", "u05"]), (args.L_list, ["l", "u0", "u05"])):
        name, rows = header[0].upper(), []
        for size, roots in zip(sizes, results):
            rows.append((size, *roots))
            print(f"{name}={size:>6d}: " + " ".join(f"{col}={v:.4f}" for col, v in zip(header[1:], roots)))
        out.write_csv(f"value_vs_{header[0]}.csv", header, [zip(*rows)])
        tables.append((name, header, rows))
    for name, header, rows in tables:
        if len(rows) >= 2:
            (size, *last), (prev_size, *prev) = rows[-1], rows[-2]
            for col, a, b in zip(header[1:], last, prev):
                print(f"|{col}({name}={size}) - {col}({name}={prev_size})| = {abs(a - b):.4f}")


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """Add subcommand ``name``, run by ``func(args, params)``, with the flags every subcommand shares."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--params", help="parameter file (key=value lines, '#' comments)")
    # y0 has no override: subcommands that need beliefs own a repeatable
    # --y0; the model-level prior comes from the parameter file.
    for key, field in PARAM_KEYS.items():
        if field != "y0":
            sp.add_argument(
                f"--{key}", dest=field, type=parse_rate, help=f"override {field} (accepts e.g. '2.5%%')"
            )
    sp.add_argument("--out", help="output directory for manifest and CSV files")
    sp.add_argument(
        "--literal-pl-exponent",
        action="store_true",
        help="use the mu*sqrt(h) growth exponent instead of the mu*h default",
    )
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esocp",
        description="American ESO valuation with full/partial information on a drift change point",
    )
    parser.add_argument("--version", action="version", version=f"esocp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _command(sub, "price-full", cmd_price_full, "insider (regime-observing) option values")
    sp.add_argument("--N", type=int, default=2500, help="lattice steps")

    sp = _command(sub, "price-partial", cmd_price_partial, "outsider (price-filtering) option values")
    sp.add_argument("--N", type=int, default=2500, help="lattice steps")
    sp.add_argument("--L", type=int, default=250, help="belief grid points")
    sp.add_argument("--y0", dest="y0_list", type=parse_rate, action="append",
                    help="initial belief to price at (repeatable)")

    sp = _command(sub, "boundary", cmd_boundary, "full-information exercise boundaries as CSV")
    sp.add_argument("--N", type=int, default=2500)
    sp.add_argument("--smooth", action="store_true", help="also write a polynomial-smoothed CSV")
    sp.add_argument("--smooth-degree", type=int, default=5)

    sp = _command(sub, "surface", cmd_surface, "partial-information exercise surface as CSV")
    sp.add_argument("--N", type=int, default=2500)
    sp.add_argument("--L", type=int, default=250)

    sp = _command(sub, "perpetual", cmd_perpetual, "closed-form infinite-horizon solution")
    sp.add_argument("--x-min", type=float, default=None)
    sp.add_argument("--x-max", type=float, default=None)
    sp.add_argument("--x-points", type=int, default=201)

    sp = _command(sub, "simulate", cmd_simulate, "simulate joint paths and replay both policies")
    sp.add_argument("--N", type=int, default=2500)
    sp.add_argument("--L", type=int, default=250)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--paths", type=int, default=4, help="paths in the summary statistics")
    sp.add_argument("--export-paths", type=int, default=4, help="paths written as CSV")
    sp.add_argument("--y0", dest="y0_list", type=parse_rate, action="append",
                    help="outsider initial beliefs (repeatable; default 0 and 0.5)")

    sp = _command(sub, "table1", cmd_table1, "comparative statics over the parameter grid")
    sp.add_argument("--N", type=int, default=2500)
    sp.add_argument("--L", type=int, default=250)

    sp = _command(sub, "converge", cmd_converge, "value-vs-N and value-vs-L refinement tables")
    sp.add_argument("--N-list", type=int, nargs="+", default=[156, 312, 625, 1250, 2500])
    sp.add_argument("--L-list", type=int, nargs="+", default=[50, 100, 150, 200, 250, 300])
    sp.add_argument("--N", type=int, default=2500, help="fixed N for the L sweep")
    sp.add_argument("--L", type=int, default=250, help="fixed L for the N sweep")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, _resolve_params(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
