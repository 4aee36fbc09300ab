import filecmp
import os
import signal
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from esocp import _workers, cli, price_full, price_partial
from esocp.cli import main
from esocp.lattice import AdmissibilityError
from esocp.simulate import simulate_joint_path, surface_threshold

from conftest import BASE, assert_no_child_left, one_cpu

PARAM_FILE = (
    "mu0=2%\nmu1=-2%\nsigma=30%\nlambda=10%\nr=2.5%\n"
    "strike=100\nmaturity=10\nspot=100\ny0=0\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def in_process_roots(params, n, l, insider=True):
    partial = price_partial(params, n, l)
    u = [partial.root_at(0.0), partial.root_at(0.5)]
    if not insider:
        return u
    full = price_full(params, n, keep_boundaries=False)
    return [full.v0_root, full.v1_root] + u


def _item_and_pid(item):
    return item, os.getpid()


def test_price_full_prints_roots(capsys):
    code, out, _ = run(capsys, "price-full", "--N", "300")
    assert code == 0
    result = price_full(BASE, 300, keep_boundaries=False)
    assert f"v0 = {result.v0_root:.6f}" in out
    assert f"v1 = {result.v1_root:.6f}" in out
    assert "# N=300" in out  # manifest echoed


def test_price_partial_one_line_per_belief(capsys):
    code, out, _ = run(capsys, "price-partial", "--N", "200", "--L", "51",
                       "--y0", "0", "--y0", "0.5", "--y0", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("u(y0=")]
    assert len(lines) == 3
    # certain switch prices like the switched insider
    code, full_out, _ = run(capsys, "price-full", "--N", "200")
    v1_line = [l for l in full_out.splitlines() if l.startswith("v1 =")][0]
    assert lines[2].split(" = ")[1] == v1_line.split(" = ")[1]


def test_percent_flags_match_decimals(capsys):
    _, out_pct, _ = run(capsys, "price-full", "--N", "100", "--sigma", "20%")
    _, out_dec, _ = run(capsys, "price-full", "--N", "100", "--sigma", "0.2")
    assert out_pct == out_dec


def test_grid_refinement_audit(capsys):
    # coarse belief grid is visibly biased: worth a side-by-side audit
    _, coarse, _ = run(capsys, "price-partial", "--N", "200", "--L", "2", "--y0", "0")
    _, fine, _ = run(capsys, "price-partial", "--N", "200", "--L", "101", "--y0", "0")
    v_coarse = float(coarse.splitlines()[-1].split(" = ")[1])
    v_fine = float(fine.splitlines()[-1].split(" = ")[1])
    assert abs(v_coarse - v_fine) > 0.1


def test_missing_params_file_is_usage_error(capsys):
    code, _, err = run(capsys, "price-full", "--params", "/nonexistent/params.txt")
    assert code == 2
    assert "/nonexistent/params.txt" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "price-full", "--N", "50", "--mu1", "3%")
    assert code == 1
    assert "mu0" in err


def test_non_finite_root_exit_code(capsys):
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "price-full", "--N", "1500", "--sigma", "2", "--maturity", "100",
                             "--mu0", "0.08", "--lambda", "0")
    assert code == 1
    assert "not finite" in err
    assert "nan" not in out


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price-full", "--N", "not-a-number"])
    assert exc.value.code == 2


def test_params_file_and_flag_precedence(tmp_path, capsys):
    f = tmp_path / "params.txt"
    f.write_text(PARAM_FILE)
    code, out, _ = run(capsys, "price-full", "--N", "80", "--params", str(f), "--mu0", "4%")
    assert code == 0
    assert "# mu0=0.04" in out
    assert "# mu1=-0.02" in out


def test_boundary_csv_and_smoothing(tmp_path, capsys):
    out_dir = tmp_path / "b"
    code, _, _ = run(capsys, "boundary", "--N", "120", "--smooth", "--out", str(out_dir))
    assert code == 0
    raw = (out_dir / "boundary.csv").read_text().splitlines()
    assert raw[0] == "step,time_years,boundary_regime0,boundary_regime1"
    assert len(raw) == 122
    assert "inf" in raw[1]  # coarse lattice: no node exercises near t=0
    last = raw[-1].split(",")
    assert float(last[2]) == BASE.strike and float(last[3]) == BASE.strike
    assert (out_dir / "boundary_smoothed.csv").exists()
    assert (out_dir / "manifest.txt").exists()
    # without --out the run ends on a summary of the boundaries at t=0
    code, out, _ = run(capsys, "boundary", "--N", "120")
    assert code == 0
    b = price_full(BASE, 120)
    assert out.splitlines()[-1] == (
        f"boundary at t=0: regime0 {cli._fmt(float(b.boundary(0)[0]))}, regime1 {cli._fmt(float(b.boundary(1)[0]))}"
    )
    # at N=3 no regime has more finite entries than the default degree 5: written unsmoothed
    few = tmp_path / "few"
    assert run(capsys, "boundary", "--N", "3", "--smooth", "--out", str(few))[0] == 0
    assert (few / "boundary_smoothed.csv").read_bytes() == (few / "boundary.csv").read_bytes()


@pytest.mark.parametrize("to_dir", [False, True], ids=["plain", "out"])
def test_rank_deficient_smoothing_is_an_error_before_any_csv(tmp_path, capsys, to_dir):
    out_dir = tmp_path / "b"
    argv = ["boundary", "--N", "120", "--smooth", "--smooth-degree", "20"] + (["--out", str(out_dir)] if to_dir else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert caught == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--smooth-degree 20" in err and "Warning" not in err
    assert "wrote" not in out
    assert sorted(p.name for p in tmp_path.rglob("*")) == (["b", "manifest.txt"] if to_dir else [])


def test_surface_csv_layout(tmp_path, capsys):
    out_dir = tmp_path / "s"
    code, _, _ = run(capsys, "surface", "--N", "40", "--L", "7", "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "surface.csv").read_text().splitlines()
    assert rows[0] == "step,time_years,belief,boundary_price"
    assert len(rows) == 1 + 41 * 7
    terminal = [r for r in rows[1:] if r.startswith("40,")]
    assert all(float(r.split(",")[3]) == BASE.strike for r in terminal)
    # without --out the run ends on a summary of the surface at t=0
    code, out, _ = run(capsys, "surface", "--N", "40", "--L", "7")
    assert code == 0
    s = price_partial(BASE, 40, 7, keep_surface=True).surface
    assert out.splitlines()[-1] == (
        f"surface at t=0: y=0 -> {cli._fmt(float(s[0, 0]))}, y=1 -> {cli._fmt(float(s[0, -1]))}"
    )


def test_perpetual_report(tmp_path, capsys):
    code, out, _ = run(capsys, "perpetual", "--out", str(tmp_path / "p"))
    assert code == 0
    for name in ("gamma", "x1", "x0"):
        assert any(line.startswith(f"{name} = ") for line in out.splitlines())
    assert (tmp_path / "p" / "perpetual.csv").exists()

    code, out, _ = run(capsys, "perpetual", "--mu0", "8%", "--mu1", "5%")
    assert code == 0
    assert "no finite exercise boundary" in out


def test_rerun_is_byte_identical(tmp_path, capsys):
    args = ("simulate", "--N", "100", "--L", "21", "--seed", "42", "--paths", "4")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert {"path_0000.csv", "path_0003.csv", "summary.csv", "summary.txt"} <= set(names)
    for name in names:
        if name != "manifest.txt":
            assert filecmp.cmp(a / name, b / name, shallow=False), name
    # manifests match too: inputs are fully resolved and echoed
    assert (a / "manifest.txt").read_text() == (b / "manifest.txt").read_text()


def test_fmt_writes_non_finite_floats_by_name():
    assert [cli._fmt(x) for x in (float("nan"), float("inf"), -float("inf"), 0.1)] == ["nan", "inf", "-inf", "0.1"]


def test_summary_csv_writes_nan_mean_time_when_no_agent_exercises(tmp_path, capsys):
    # at N=40, L=7 neither of these 2 paths crosses any agent's threshold
    code, _, _ = run(capsys, "simulate", "--N", "40", "--L", "7", "--paths", "2", "--export-paths", "0",
                     "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[0].split(",")[-2:] == ["exercise_frequency", "mean_exercise_time"]
    assert [row.split(",")[-2:] for row in rows[1:]] == [["0.0", "nan"]] * 3
    assert (tmp_path / "summary.txt").read_text().count("nan") == 3


def test_simulate_path_csv_columns(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code, out, _ = run(capsys, "simulate", "--N", "60", "--L", "11", "--seed", "3",
                       "--paths", "2", "--out", str(out_dir))
    assert code == 0
    header = (out_dir / "path_0000.csv").read_text().splitlines()[0].split(",")
    assert header[:4] == ["step", "time", "stock", "regime"]
    assert "belief_y0=0" in header and "belief_y0=0.5" in header
    assert "insider_boundary" in header and "exercise_insider" in header
    assert "agent" in out  # summary table printed


def test_table1_structure_at_toy_resolution(tmp_path, capsys):
    out_dir = tmp_path / "t"
    code, out, _ = run(capsys, "table1", "--N", "40", "--L", "11", "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "table1.csv").read_text().splitlines()
    assert rows[0] == "mu0,mu1,sigma,lambda,v0,v1,u0,u05"
    assert len(rows) == 1 + 54
    cells = [r.split(",") for r in rows[1:]]
    # switched-state value cannot depend on the fresh drift
    by_block = {}
    for mu0, mu1, sigma, lam, v0, v1, u0, u05 in cells:
        by_block.setdefault((mu1, sigma, lam), set()).add(v1)
        assert float(u05) <= float(u0) + 1e-9
        assert float(v1) <= float(v0) + 1e-9
    assert all(len(v) == 1 for v in by_block.values())
    # every cell, priced in a worker or not, carries the in-process roots bit for bit
    for mu0, mu1, sigma, lam, *roots in cells:
        cell = replace(BASE, mu0=float(mu0), mu1=float(mu1), sigma=float(sigma), lam=float(lam))
        assert [float(v) for v in roots] == in_process_roots(cell, 40, 11)


def test_table1_bytes_do_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch):
    args = ("table1", "--N", "20", "--L", "5", "--out")
    assert run(capsys, *args, str(tmp_path / "pool"))[0] == 0
    one_cpu(monkeypatch)
    assert run(capsys, *args, str(tmp_path / "serial"))[0] == 0
    for name in ("table1.csv", "manifest.txt"):
        assert filecmp.cmp(tmp_path / "pool" / name, tmp_path / "serial" / name, shallow=False), name


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2, reason="one usable CPU")
def test_ordered_map_runs_items_in_worker_processes_in_order():
    results = list(_workers.ordered_map(_item_and_pid, range(7)))
    assert [item for item, _ in results] == list(range(7))
    assert os.getpid() not in {pid for _, pid in results}
    assert len({pid for _, pid in results}) <= _workers.usable_cpus()


forked = pytest.mark.skipif(_workers.usable_cpus() < 2, reason="one usable CPU")


@forked
def test_ordered_map_runs_a_closure_in_workers():
    offset = 10
    results = list(_workers.ordered_map(lambda item: (item + offset, os.getpid()), range(5)))
    assert [value for value, _ in results] == [10, 11, 12, 13, 14]
    assert os.getpid() not in {pid for _, pid in results}
    assert_no_child_left()


def test_ordered_map_takes_more_items_than_a_pipe_holds():
    # 20,000 records of 4 bytes would not fit a 64 KiB pipe: where the caller
    # blocked writing them, the alarm fails the test instead of a hang
    def expire(signum, frame):
        raise TimeoutError("ordered_map did not finish within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        assert list(_workers.ordered_map(lambda item: 2 * item, range(20_000))) == [2 * i for i in range(20_000)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


@forked
def test_ordered_map_raises_the_lowest_failing_items_error_after_every_earlier_item(tmp_path):
    # A worker stops at its first error, so items 3 and 5 fail in different
    # workers; item 3 fails last, and its error is still the one raised.
    def fn(item):
        if item in (3, 5):
            if item == 3:
                time.sleep(0.2)
            (tmp_path / str(item)).write_text(str(os.getpid()))
            raise KeyError(f"item {item}")
        return item

    got = []
    with pytest.raises(KeyError, match="item 3"):
        for result in _workers.ordered_map(fn, range(8)):
            got.append(result)
    assert got == [0, 1, 2]
    pids = {(tmp_path / item).read_text() for item in ("3", "5")}
    assert len(pids) == 2 and str(os.getpid()) not in pids
    assert_no_child_left()


@forked
def test_ordered_map_sends_an_unpicklable_error_as_a_runtime_error():
    def fn(item):
        class LocalError(Exception):  # pickle cannot find a local class
            pass

        if item == 2:
            raise LocalError(f"item {item} failed")
        return item

    with pytest.raises(RuntimeError, match="LocalError: item 2 failed"):
        list(_workers.ordered_map(fn, range(4)))
    assert_no_child_left()


@forked
@pytest.mark.parametrize(
    "action, message",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
        (lambda: os._exit(0), r"no worker process returned item \d of 6"),
    ],
    ids=["killed", "exit 0"],
)
def test_ordered_map_raises_when_a_worker_dies(action, message):
    def fn(item):
        if item == 2:
            action()
        return item

    with pytest.raises(ChildProcessError, match=message):
        list(_workers.ordered_map(fn, range(6)))
    assert_no_child_left()


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_worker_error_keeps_exit_code_and_message(capsys, monkeypatch, cpus):
    if cpus == "one":
        one_cpu(monkeypatch)
    header = ["mu0", "mu1", "sigma", "lambda", "v0", "v1", "u(0)", "u(0.5)"]
    # the first cell of the grid is BASE with sigma = 20%
    with pytest.raises(AdmissibilityError) as expected:
        price_full(replace(BASE, sigma=0.2, maturity=100.0), 1)
    code, out, err = run(capsys, "table1", "--N", "1", "--maturity", "100")
    assert code == 1
    assert err == f"error: {expected.value}\n"
    assert out.splitlines()[-1].split() == header

    # at N=5 the seventh cell (mu0 = 18%) is the first inadmissible one: the
    # six rows before it come out, each priced as on its own, then its error
    cells = [replace(BASE, mu0=mu0, mu1=mu1, sigma=0.2) for mu0 in (0.02, 0.08) for mu1 in (-0.02, -0.05, -0.10)]
    with pytest.raises(AdmissibilityError) as expected:
        price_full(replace(BASE, mu0=0.18, sigma=0.2), 5)
    code, out, err = run(capsys, "table1", "--N", "5", "--L", "3", "--maturity", "10")
    assert code == 1
    assert err == f"error: {expected.value}\n"
    lines = out.splitlines()
    assert lines[-7].split() == header
    for line, cell in zip(lines[-6:], cells):
        v0, v1, u0, u05 = in_process_roots(cell, 5, 3)
        assert line == (
            f"{cell.mu0:>5.0%} {cell.mu1:>5.0%} {cell.sigma:>6.0%} {cell.lam:>6.0%}   "
            f"{v0:>7.1f} {v1:>7.1f} {u0:>7.1f} {u05:>7.1f}"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["price-full", "--N", "0"], "--N must be >= 1, got 0"),
        (["surface", "--N", "10", "--L", "1"], "--L must be >= 2, got 1"),
        (["converge", "--N-list", "20", "-3", "--L-list", "3"], "--N-list must be >= 1, got -3"),
        (["converge", "--N-list", "20", "--L-list", "3", "1"], "--L-list must be >= 2, got 1"),
        (["simulate", "--N", "20", "--L", "3", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["perpetual", "--x-points", "-3"], "--x-points must be >= 1, got -3"),
        (["boundary", "--N", "50", "--smooth", "--smooth-degree", "-1"], "--smooth-degree must be >= 0, got -1"),
        (["perpetual", "--x-min", "-10", "--x-max", "5", "--x-points", "3"], "--x-min must be >= 0, got -10.0"),
        (["perpetual", "--x-max", "-1", "--x-points", "3"], "--x-max must be >= 0, got -1.0"),
        (["perpetual", "--x-min", "nan", "--x-points", "3"], "--x-min must be finite, got nan"),
        (["perpetual", "--x-max", "inf", "--x-points", "3"], "--x-max must be finite, got inf"),
    ],
    ids=[
        "N", "L", "N-list", "L-list", "seed", "x-points", "smooth-degree", "x-min", "x-max", "x-min-nan", "x-max-inf"
    ],
)
def test_bad_sizes_are_usage_errors_before_the_manifest(tmp_path, capsys, monkeypatch, argv, message):
    def no_pricing(*args, **kwargs):
        raise AssertionError("priced before validating the sizes")

    monkeypatch.setattr(cli, "price_full", no_pricing)
    monkeypatch.setattr(cli, "price_partial", no_pricing)
    monkeypatch.setattr(cli, "_roots", no_pricing)
    monkeypatch.setattr(cli, "solve_perpetual", no_pricing)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["price-partial", "simulate"])
def test_belief_outside_unit_interval_is_rejected_before_pricing(capsys, monkeypatch, command):
    def no_pricing(*args, **kwargs):
        raise AssertionError("priced before validating --y0")

    monkeypatch.setattr(cli, "price_full", no_pricing)
    monkeypatch.setattr(cli, "price_partial", no_pricing)
    code, out, err = run(capsys, command, "--y0", "0.5", "--y0", "1.5")
    assert code == 2
    assert err == "error: --y0 must lie in [0, 1], got 1.5\n"
    assert out == ""


def test_beliefs_with_one_label_are_a_usage_error_before_pricing(tmp_path, capsys, monkeypatch):
    def no_pricing(*args, **kwargs):
        raise AssertionError("priced before checking the --y0 labels")

    monkeypatch.setattr(cli, "price_full", no_pricing)
    monkeypatch.setattr(cli, "price_partial", no_pricing)
    code, out, err = run(capsys, "simulate", "--y0", "0.1234567", "--y0", "0.1234568", "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == "error: belief starts 0.1234567 and 0.1234568 share the outcome label outsider(y0=0.123457)\n"
    assert out == ""
    assert not (tmp_path / "o").exists()


def test_converge_outputs(tmp_path, capsys):
    out_dir = tmp_path / "c"
    code, out, _ = run(
        capsys, "converge", "--N-list", "50", "100", "--L-list", "11", "21",
        "--N", "100", "--L", "21", "--out", str(out_dir),
    )
    assert code == 0
    n_rows = (out_dir / "value_vs_n.csv").read_text().splitlines()
    l_rows = (out_dir / "value_vs_l.csv").read_text().splitlines()
    assert n_rows[0] == "n,v0,v1,u0,u05" and len(n_rows) == 3
    assert l_rows[0] == "l,u0,u05" and len(l_rows) == 3
    assert "|v0(N=100) - v0(N=50)|" in out
    for n, *roots in (r.split(",") for r in n_rows[1:]):
        assert [float(v) for v in roots] == in_process_roots(BASE, int(n), 21)
    for l, *roots in (r.split(",") for r in l_rows[1:]):
        assert [float(v) for v in roots] == in_process_roots(BASE, 100, int(l), insider=False)


def test_literal_exponent_flag_changes_values(capsys):
    _, default_out, _ = run(capsys, "price-full", "--N", "100")
    _, literal_out, _ = run(capsys, "price-full", "--N", "100", "--literal-pl-exponent")
    v = lambda s: float([l for l in s.splitlines() if l.startswith("v0")][0].split(" = ")[1])
    assert abs(v(default_out) - v(literal_out)) > 1.0


MODEL_KEYS = ["command", "version", "mu0", "mu1", "sigma", "lambda", "r", "strike", "maturity", "spot", "y0"]


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (["price-full", "--N", "30"], ["N", "literal_pl_exponent"]),
        (
            ["price-partial", "--N", "30", "--L", "5", "--y0", "0.5"],
            ["N", "L", "y0_list", "literal_pl_exponent"],
        ),
        (["boundary", "--N", "30", "--smooth"], ["N", "literal_pl_exponent", "smooth"]),
        (["surface", "--N", "30", "--L", "5"], ["N", "L", "literal_pl_exponent"]),
        (["perpetual", "--x-points", "5"], []),
        (
            ["simulate", "--N", "30", "--L", "5", "--paths", "2"],
            ["N", "L", "seed", "paths", "export_paths", "belief_starts", "rng", "literal_pl_exponent"],
        ),
        (["table1", "--N", "10", "--L", "3"], ["N", "L", "literal_pl_exponent"]),
        (
            ["converge", "--N-list", "20", "--L-list", "3", "--N", "20", "--L", "3"],
            ["N_list", "L_list", "L", "N", "literal_pl_exponent"],
        ),
    ],
)
def test_manifest_keys_and_echo(tmp_path, capsys, argv, inputs):
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert [line.split("=", 1)[0] for line in manifest] == MODEL_KEYS + inputs
    assert manifest[0] == f"command={argv[0]}"
    # the echo comes first on stdout and is the manifest line for line
    assert out.splitlines()[: len(manifest)] == [f"# {line}" for line in manifest]
    assert len([line for line in out.splitlines() if line.startswith("# ")]) == len(manifest)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--paths", "0"), "--paths must be >= 1, got 0"),
        (("--paths", "-3"), "--paths must be >= 1, got -3"),
        (("--export-paths", "-1"), "--export-paths must be >= 0, got -1"),
    ],
)
def test_bad_path_counts_are_usage_errors_before_pricing(tmp_path, capsys, monkeypatch, flags, message):
    def no_pricing(*args, **kwargs):
        raise AssertionError("priced before validating the path counts")

    monkeypatch.setattr(cli, "price_full", no_pricing)
    monkeypatch.setattr(cli, "price_partial", no_pricing)
    code, out, err = run(capsys, "simulate", "--N", "20", "--L", "5", *flags, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""
    assert not (tmp_path / "o").exists()


def test_simulate_exports_paths_only_with_out(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate_joint_path(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_joint_path", counted)
    args = ("simulate", "--N", "30", "--L", "5", "--paths", "3", "--export-paths", "2")
    code, out, _ = run(capsys, *args)
    assert code == 0 and calls == []
    assert "wrote" not in out
    code, _, _ = run(capsys, *args, "--out", str(tmp_path))
    assert code == 0 and len(calls) == 2
    assert sorted(p.name for p in tmp_path.glob("path_*.csv")) == ["path_0000.csv", "path_0001.csv"]


def test_path_csv_thresholds_match_per_row_recomputation(tmp_path, capsys):
    # a repeated --y0 keeps one column per flag
    starts = (0.5, 0.5, 1.0)
    code, _, _ = run(capsys, "simulate", "--N", "40", "--L", "11", "--seed", "5", "--paths", "3",
                     "--y0", "0.5", "--y0", "0.5", "--y0", "1", "--out", str(tmp_path))
    assert code == 0
    full = price_full(BASE, 40)
    partial = price_partial(BASE, 40, 11, keep_surface=True)
    b = (full.boundary(0), full.boundary(1))
    m = len(starts)
    for i in range(3):
        lines = (tmp_path / f"path_{i:04d}.csv").read_text().splitlines()
        assert lines[0].split(",") == (
            ["step", "time", "stock", "regime"] + [f"belief_y0={y:g}" for y in starts] + ["insider_boundary"]
            + [f"outsider_boundary_y0={y:g}" for y in starts] + ["exercise_insider"]
            + [f"exercise_outsider_y0={y:g}" for y in starts]
        )
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        path = simulate_joint_path(BASE, full.lattice, full.q, full.p, (5, i), starts)
        assert np.array_equal(rows[:, 2], path.stock) and np.array_equal(rows[:, 3], path.regime)
        beliefs, thresholds, flags = rows[:, 4 : 4 + m], rows[:, 4 + m : 5 + 2 * m], rows[:, 5 + 2 * m :]
        for k, row in enumerate(rows):
            assert thresholds[k, 0] == b[int(row[3])][k]
            for c, y0 in enumerate(starts):
                assert beliefs[k, c] == path.beliefs[y0][k]
                assert thresholds[k, 1 + c] == surface_threshold(partial, k, beliefs[k, c])
        # each agent exercises at its first crossing of the written thresholds
        for c in range(m + 1):
            crossed = np.flatnonzero(rows[:, 2] >= thresholds[:, c])
            expected = np.zeros(41)
            if crossed.size:
                expected[crossed[0]] = 1.0
            assert np.array_equal(flags[:, c], expected)
