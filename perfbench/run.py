"""esocp benchmark: four workloads over the public API, checked and timed.

One workload, one process (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations (at least three) and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines go first; the last line of
standard output is the JSON result.  Full details (environment, every
operation, spans) go to ``perfbench/results/``.

Every workload, R processes each, one after another, with seeds N..N+R-1:

    python3 perfbench/run.py --repeat R [--trace 0|1] [--seed N] [--seconds S] [--smoke]

prints each metric's median, quartiles and quartile spread against its bound
in BENCHMARK.json.  ``--repeat 1`` is the one-shot report of all workloads;
``--repeat 10`` is the steadiness check.  ``--smoke`` switches every workload
to toy sizes, so the whole suite with its checks runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Set-up is timed as whole fresh processes; the median of these is setup_s.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120  # a run must end within 180 s; set-up takes about 1 s
CHILD_TIMEOUT_S = 900
# Every workload is single-threaded: keep numpy's BLAS pools from starting threads.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_esocp():
    """Import esocp from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "esocp" / "__init__.py").is_file():
        raise SystemExit(f"error: no esocp sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import esocp

    if Path(esocp.__file__).resolve().parent != (src / "esocp").resolve():
        raise SystemExit(f"error: imported esocp from {esocp.__file__}, not from {src}")
    return esocp


# -- environment -------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(f"{index}/level"), _read(f"{index}/size")
        if level and size and int(level) > best[0]:
            best = (int(level), f"L{level.strip()} {size.strip()}")
    return best[1]


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# -- one workload in this process --------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _run_py(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), *args]


def time_setups(name: str, seed: int, smoke: bool, repeats: int) -> list[float]:
    """Wall time of fresh processes that import esocp and build the inputs."""
    cmd = _run_py("--setup-only", "--workload", name, "--seed", str(seed), *(["--smoke"] if smoke else []))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        exited = _wait_for_exit(proc, SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if not exited:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"set-up process did not finish within {SETUP_TIMEOUT_S} s")
        if proc.wait() != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
    return times


def _wait_for_exit(proc: subprocess.Popen, timeout: float) -> bool:
    """Block until proc exits (True) or timeout passes (False).

    Popen.wait(timeout) polls with sleeps of up to 50 ms, which would
    quantise set-up times; a pidfd wakes up the moment the child exits.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    return bool(ready)


def run_op(workload, inputs: dict, tracer, run_id: str) -> dict:
    """Run, time and check one operation; tracer None means untraced."""
    # The modules beside this file import numpy and esocp, so they load only
    # after main() has pinned the thread pools and put src/ on the path.
    import tracing

    call, restore, missing = workload.op, None, []
    if tracer is not None:
        tracer.run_id = run_id
        restore, missing = tracing.install(tracer)
        call = tracer.span("op", workload.op)
    out, failures = None, []
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        out = call(inputs)
    except Exception:  # an operation that raises is a failed operation
        failures.append(traceback.format_exc())
    finally:
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        if restore is not None:
            restore()
    record = {"run_id": run_id, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu, "ref_gap": None,
              "notes": None, "hooks_missing": missing}
    if not failures:
        try:
            check = workload.check(inputs, out)
            failures += check.failures
            record.update(ref_gap=check.ref_gap, notes=check.notes)
        except Exception:  # a check that cannot read the output fails the operation
            failures.append(traceback.format_exc())
    if tracer is not None:
        spans = [s for s in tracer.spans if s.run_id == run_id]
        leaves = [leaf for leaf in tracer.leaves if leaf.run_id == run_id]
        failures += [f"trace: {p}" for p in tracing.check_spans(spans, leaves)]
        record["layers"] = tracing.layer_table(spans, leaves, cpu)
    record["failures"] = failures
    return record


def results_path(name: str, seed: int, trace: int, smoke: bool) -> Path:
    return RESULTS / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run: set-up, timed operations, checks, metrics."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    sizes = workload.smoke_sizes if smoke else workload.sizes
    setup_times = time_setups(name, seed, smoke, 1 if smoke else SETUP_REPEATS)
    RESULTS.mkdir(exist_ok=True)
    inputs = workload.setup(sizes, seed, RESULTS)
    tracer = tracing.Tracer() if trace else None
    ops = []
    try:
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(ops) % 2 == 1
            ops.append(run_op(workload, inputs, tracer if traced else None, f"{name}-seed{seed}-op{len(ops)}"))
            if len(ops) == 1:
                # Set-up plus one operation: later operations reuse freed heap
                # and would make the peak depend on how many fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # A traced run needs untraced, traced, untraced at least: the first
            # operation of a process pays page faults the later ones do not.
            enough_kinds = not trace or len(ops) >= 3
            if time.perf_counter() - start >= seconds and enough_kinds:
                break
    finally:
        workload.teardown(inputs)

    failed = sum(1 for op in ops if op["failures"])
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    traced_ops = [op for op in ops if op["traced"]]
    result = {
        "workload": name,
        "seed": seed,
        "sizes": sizes,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setup_s_samples": setup_times,
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
    }
    ref_gaps = [op["ref_gap"] for op in ops if op["ref_gap"] is not None]
    result["ref_gap"] = statistics.median(ref_gaps) if ref_gaps else None
    # Times are the fastest operation of the run: the host's speed swings by
    # 1.5-2x for tens of seconds at a time, and interference only adds time.
    if trace:
        fastest = min(traced_ops, key=lambda op: op["wall_s"])
        traced_wall, untraced_wall = fastest["wall_s"], min(untraced)
        result["metrics"] = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]} for k, v in fastest["layers"].items()}
        result["overhead"] = {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "overhead_s": traced_wall - untraced_wall,
            "overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        }
        result["spans"] = [asdict(s) for s in tracer.spans]
        result["leaves"] = [asdict(leaf) for leaf in tracer.leaves]
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": min(untraced), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return result


def report_workload(result: dict) -> None:
    """Human-readable lines for one run; the JSON line follows them."""
    ops = result["ops"]
    print(f"workload {result['workload']}  seed {result['seed']}  sizes {result['sizes']}  "
          f"ops {len(ops)}  env {result['environment']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<32} {metric['value']:>14.6g} {metric['unit']}")
    if not result["trace"]:
        walls = [op["wall_s"] for op in ops]
        q1, median, q3 = _quartiles(walls)
        setup_q1, _, setup_q3 = _quartiles(result["setup_s_samples"])
        print(f"  wall_s: fastest of {len(walls)} ops; median {median:.4f} s, quartiles {q1:.4f}..{q3:.4f} s")
        print(f"  setup_s: quartiles {setup_q1:.4f}..{setup_q3:.4f} s over {len(result['setup_s_samples'])} processes")
    else:
        o = result["overhead"]
        print(f"  tracing overhead: {o['overhead_s']:+.4f} s ({o['overhead_share']:+.2%}), fastest traced "
              f"{o['traced_wall_s']:.4f} s vs fastest untraced {o['untraced_wall_s']:.4f} s")
    print(f"  fail_ratio {result['failed'] / result['attempted']:.6g} ({result['failed']} failed / {result['attempted']} attempted)")
    if result["ref_gap"] is not None:
        print(f"  ref_gap {result['ref_gap']:.6g}")
    for op in ops:
        if op["hooks_missing"]:
            print(f"  {op['run_id']}: trace hooks not found, their layers read 0: {op['hooks_missing']}")
        if op["notes"] and op["notes"].get("z_alarms"):
            print(f"  {op['run_id']}: crit-09 alarm, |z| > 3 for {op['notes']['z_alarms']} (z = {op['notes']['z']})")
        for failure in op["failures"]:
            print(f"  {op['run_id']} FAILED: {failure}")


def single_main(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    path = results_path(args.workload, args.seed, args.trace, args.smoke)
    path.write_text(json.dumps(result, indent=1, default=float))
    report_workload(result)
    print(f"  details: {path.relative_to(ROOT)}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


# -- many runs, one process each ---------------------------------------------


def suite_main(args, spec: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = _run_py("--workload", name, "--seed", str(seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), *(["--smoke"] if args.smoke else []))
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads(results_path(name, seed, args.trace, args.smoke).read_text())
            ok = ok and line["correct"]
            runs.append({"seed": seed, "line": line, "ref_gap": detail["ref_gap"],
                         "overhead": detail.get("overhead"),
                         "alarms": [op["notes"]["z_alarms"] for op in detail["ops"] if op["notes"] and op["notes"].get("z_alarms")],
                         "failures": [f for op in detail["ops"] for f in op["failures"]]})
        summary[name] = _summarise(name, runs, bounds)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"suite-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"details: {path.relative_to(ROOT)}")
    return 0 if ok else 1


def _summarise(name: str, runs: list[dict], bounds: dict) -> dict:
    if not runs:
        return {"runs": 0}
    attempted = sum(r["line"]["attempted"] for r in runs)
    failed = sum(r["line"]["failed"] for r in runs)
    print(f"\n{name}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}")
    print(f"  {'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    metrics = {}
    for key in runs[0]["line"]["metrics"]:
        values = [r["line"]["metrics"][key]["value"] for r in runs]
        unit = runs[0]["line"]["metrics"][key]["unit"]
        q1, median, q3 = _quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(key)
        verdict = ""
        if key == "setup_s":
            verdict = "spread not gated; median compared across sets"
        elif bound is not None and len(runs) > 1:
            verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "UNSTEADY")
        metrics[key] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"  {key:<32} {unit:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
              f"{'' if bound is None else bound:>6} {verdict}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    gaps = [r["ref_gap"] for r in runs if r["ref_gap"] is not None]
    if gaps:
        print(f"  ref_gap {statistics.median(gaps):.6g} (median of {len(gaps)} runs)")
    overheads = [r["overhead"]["overhead_share"] for r in runs if r["overhead"]]
    if overheads:
        print(f"  tracing overhead {statistics.median(overheads):+.2%} of untraced wall_s (median of {len(overheads)} runs)")
    alarms = [(r["seed"], a) for r in runs for a in r["alarms"]]
    if alarms:
        print(f"  crit-09 alarms (|z| > 3): {alarms}")
    for r in runs:
        for failure in r["failures"]:
            print(f"  seed {r['seed']} FAILED: {failure}")
    return {"runs": runs, "metrics": metrics, "attempted": attempted, "failed": failed,
            "ref_gap": statistics.median(gaps) if gaps else None}


# -- entry point -------------------------------------------------------------


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    return json.loads(path.read_text())


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="run one workload; in suite form, only this one")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; the replay's Monte Carlo seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure for at least this long (at least one operation)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="toy sizes for every workload")
    parser.add_argument("--repeat", type=int, help="suite form: R runs per workload, one process each")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if args.repeat is None and args.workload is None:
        parser.error("give --workload NAME, or --repeat R for the suite")
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.repeat is not None:
        return suite_main(args, spec)
    os.environ.update(SINGLE_THREAD_ENV)
    load_esocp()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        RESULTS.mkdir(exist_ok=True)
        workload.teardown(workload.setup(workload.smoke_sizes if args.smoke else workload.sizes, args.seed, RESULTS))
        return 0
    return single_main(args)


if __name__ == "__main__":
    sys.exit(main())
