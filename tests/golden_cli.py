"""Run the esocp CLI over a fixed list of cases and keep everything each run leaves.

    python tests/golden_cli.py SRC_DIR OUT_DIR

SRC_DIR is the directory that holds the ``esocp`` package (``src`` in a
checkout).  Each case runs twice, without and with ``--out out``, as
``python -m esocp.cli`` in its own empty directory OUT_DIR/<case>/<plain|out>,
which ends up holding ``stdout``, ``stderr``, ``code`` (the exit code) and the
files the run wrote.  Every run sees ``COLUMNS=80``, so ``--help`` wraps the
same in any terminal.  Run it on two checkouts and compare the trees:

    diff -r --exclude-from=tests/golden_allow.txt BASE_TREE CHANGE_TREE

tests/golden_allow.txt names the cases whose bytes a change means to alter.
Expected bytes are never stored: the shortest round-trip floats may differ
between hosts and numpy versions for reasons that are not regressions, so
both sides run on one host.

In ``stderr`` the source directory reads ``<src>`` and warnings lose their
line number and the echoed source line, which move with any edit.  pytest
does not collect this file.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

PARAM_FILE = "mu0=2%\nmu1=-2%\nsigma=30%\nlambda=10%\nr=2.5%\nstrike=100\nmaturity=10\nspot=100\ny0=0.3\n"
# PARAM_FILE with a second, different mu0 line
REPEATED_KEY_FILE = PARAM_FILE + "mu0=8%\n"

# name -> argv; a name ending in "@one-cpu" runs on one CPU of this process's affinity mask.
CASES = {
    "price-full": ["price-full", "--N", "200"],
    "price-full-literal": ["price-full", "--N", "200", "--literal-pl-exponent"],
    "price-full-params-file": ["price-full", "--N", "100", "--params", "params.txt"],
    # 2 layers x a widest window of 25,190 nodes, above sweep.SPLIT_MIN_ENTRIES (only an outsider sweep splits)
    "price-full-above-split": ["price-full", "--N", "50000"],
    "price-partial-beliefs": ["price-partial", "--N", "100", "--L", "21", "--y0", "0", "--y0", "0.5",
                              "--y0", "0.5", "--y0", "1"],
    "price-partial-params-file": ["price-partial", "--N", "100", "--L", "21", "--params", "params.txt"],
    "boundary": ["boundary", "--N", "120"],
    "boundary-smooth": ["boundary", "--N", "120", "--smooth"],
    "surface": ["surface", "--N", "60", "--L", "11"],
    # windows up to 410 nodes wide, wider than the sweep's ufunc buffer
    "surface-wide": ["surface", "--N", "1500", "--L", "101"],
    "perpetual": ["perpetual", "--x-points", "11"],
    "perpetual-no-boundary": ["perpetual", "--mu0", "8%", "--mu1", "5%"],
    "perpetual-lambda-zero": ["perpetual", "--lambda", "0", "--x-points", "3"],
    "simulate": ["simulate", "--N", "60", "--L", "11", "--paths", "3000"],
    "simulate-repeated-beliefs": ["simulate", "--N", "60", "--L", "11", "--paths", "5",
                                  "--y0", "0.5", "--y0", "0.5", "--y0", "1"],
    "simulate-export-above-paths": ["simulate", "--N", "40", "--L", "7", "--paths", "2", "--export-paths", "5"],
    "simulate-export-none": ["simulate", "--N", "40", "--L", "7", "--paths", "3", "--export-paths", "0"],
    "simulate-deep-in-the-money": ["simulate", "--N", "60", "--L", "11", "--spot", "200", "--y0", "0.9",
                                   "--paths", "50"],
    # regime 1's up probability 0.2245 fails the replay's two-pass select check, so the
    # four-pass select runs (argparse reads "--mu1 -20%" as two flags)
    "simulate-low-up-probability": ["simulate", "--N", "20", "--L", "11", "--paths", "3000", "--mu1=-20%"],
    "table1": ["table1", "--N", "40", "--L", "11"],
    "table1@one-cpu": ["table1", "--N", "40", "--L", "11"],
    "table1-literal": ["table1", "--N", "40", "--L", "11", "--literal-pl-exponent"],
    "converge": ["converge", "--N-list", "40", "80", "--L-list", "5", "11", "--N", "40", "--L", "11"],
    "converge-one-row": ["converge", "--N-list", "40", "--L-list", "5", "--N", "40", "--L", "5"],
    "error-missing-params-file": ["price-full", "--params", "missing.txt"],
    "error-params-repeated-key": ["price-full", "--N", "100", "--params", "repeated.txt"],
    "error-domain": ["price-full", "--N", "50", "--mu1", "3%"],
    "error-belief-price-partial": ["price-partial", "--y0", "1.5"],
    "error-belief-simulate": ["simulate", "--y0", "1.5"],
    # two distinct beliefs whose outcome labels are both outsider(y0=0.123457)
    "error-belief-labels-collide": ["simulate", "--N", "20", "--L", "3", "--paths", "5",
                                    "--y0", "0.1234567", "--y0", "0.1234568"],
    "error-table1-first-cell": ["table1", "--N", "1", "--maturity", "100"],
    "error-table1-first-cell@one-cpu": ["table1", "--N", "1", "--maturity", "100"],
    "error-table1-middle-cell": ["table1", "--N", "5", "--L", "3", "--maturity", "10"],
    "error-table1-middle-cell@one-cpu": ["table1", "--N", "5", "--L", "3", "--maturity", "10"],
    "error-argparse": ["price-full", "--N", "not-a-number"],
    "error-non-finite-root": ["price-full", "--N", "1500", "--sigma", "2", "--maturity", "100",
                              "--mu0", "0.08", "--lambda", "0"],
    "error-paths-zero": ["simulate", "--paths", "0"],
    "error-export-paths-negative": ["simulate", "--export-paths", "-1"],
    "error-L-one": ["price-partial", "--N", "50", "--L", "1"],
    "error-N-zero": ["price-full", "--N", "0"],
    "error-surface-L-one": ["surface", "--N", "10", "--L", "1"],
    "error-N-list-zero": ["converge", "--N-list", "20", "0", "--L-list", "3", "--N", "20", "--L", "3"],
    "error-L-list-one": ["converge", "--N-list", "20", "--L-list", "3", "1", "--N", "20", "--L", "3"],
    "error-seed-negative": ["simulate", "--N", "20", "--L", "3", "--seed", "-1"],
    "error-x-points-negative": ["perpetual", "--x-points", "-3"],
    "error-smooth-degree-negative": ["boundary", "--N", "50", "--smooth", "--smooth-degree", "-1"],
    "error-smooth-degree-rank-deficient": ["boundary", "--N", "120", "--smooth", "--smooth-degree", "20"],
    "error-x-min-negative": ["perpetual", "--x-min", "-10", "--x-max", "5", "--x-points", "3"],
    "error-x-max-negative": ["perpetual", "--x-max", "-1", "--x-points", "3"],
    "error-x-min-nan": ["perpetual", "--x-min", "nan", "--x-points", "3"],
    "error-x-max-inf": ["perpetual", "--x-max", "inf", "--x-points", "3"],
    "version": ["--version"],
    "help": ["--help"],
}
# the --help text of every subcommand, wrapped at COLUMNS=80 (see run_case)
CASES.update({
    f"help-{command}": [command, "--help"]
    for command in ("price-full", "price-partial", "boundary", "surface", "perpetual", "simulate", "table1", "converge")
})

# "<file>:<line>: <category>: <message>", then the echoed source line
WARNING = re.compile(r"^(\S+\.py):\d+: (\w+: .*)\n  .*\n", re.MULTILINE)


def one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_case(src: Path, work: Path, argv: list[str], pinned: bool) -> None:
    work.mkdir(parents=True)
    if "params.txt" in argv:
        (work / "params.txt").write_text(PARAM_FILE)
    if "repeated.txt" in argv:
        (work / "repeated.txt").write_text(REPEATED_KEY_FILE)
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "esocp.cli", *argv], cwd=work, env=env, capture_output=True, text=True,
        timeout=600, preexec_fn=one_cpu if pinned else None,
    )
    stderr = WARNING.sub(r"\1: \2\n", done.stderr.replace(str(src), "<src>"))
    (work / "stdout").write_text(done.stdout)
    (work / "stderr").write_text(stderr)
    (work / "code").write_text(f"{done.returncode}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    found = subprocess.run(
        [sys.executable, "-c", "import esocp; print(esocp.__file__)"], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).is_relative_to(src):
        print(f"esocp imports from {found}, not from {src}", file=sys.stderr)
        return 2
    for name, case in CASES.items():
        pinned = name.endswith("@one-cpu")
        run_case(src, out / name / "plain", case, pinned)
        run_case(src, out / name / "out", [*case, "--out", "out"], pinned)
    print(f"{len(CASES)} cases, {2 * len(CASES)} runs under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
