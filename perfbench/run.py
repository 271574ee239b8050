"""Benchmark harness for switchbsde, driving only the package's public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-compare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

A run sets the workload up several times (import, problem build and input
generation, all from ``--seed``) and reports the median as ``setup_s``. It
then repeats the workload at least ``MIN_RUNS`` times, and more while
they fit in ``--seconds``, each repetition in a forked child of the set-up process, so every repetition
starts from the same state and the child's peak resident set size is that
repetition's ``peak_mem_mb``. ``run_s`` is the median
wall time of the workload call alone; checks on its output run after the
clock stops.

With ``--trace 1`` the set-up runs once, under the tracer, and the
repetitions alternate traced and untraced. The per-layer metrics are
medians over the traced ones and cover the set-up and one repetition;
``trace.overhead_s`` is the traced minus the untraced median wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``. A repetition whose gating checks fail, or
which raises, is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "switchbsde" / "__init__.py"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3      # at least; cheap set-ups repeat until SETUP_SECONDS are spent
SETUP_SECONDS = 3.0
MAX_SETUP_REPEATS = 9
MIN_RUNS = 4  # a median of fewer is too noisy on a shared machine; traced: two of each kind


def import_api() -> SimpleNamespace:
    """Import the package from this checkout's ``src`` (part of set-up time)."""
    from switchbsde import backward, catalog, cli, forward, lattice, oracles, problem

    if Path(cli.__file__).resolve().parents[1] != PACKAGE.parents[1]:
        raise RuntimeError(f"imported switchbsde from {cli.__file__}, not from this checkout")
    return SimpleNamespace(
        backward=backward, catalog=catalog, cli=cli, forward=forward, lattice=lattice, oracles=oracles, problem=problem
    )


def in_child(fn):
    """Run ``fn()`` in a forked child.

    Returns the child's JSON-encodable result (``None`` if it raised) and the
    child's peak resident set size in MiB.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:  # the child must never return into the parent's code
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(pid, 0)
    result = json.loads(data) if status == 0 else None
    return result, usage.ru_maxrss / 1024


def timed_setup(wl, sizes: dict, seed: int, workdir: Path):
    start = perf_counter()
    api = import_api()
    state = wl.setup(api, sizes, seed, workdir)
    return perf_counter() - start, api, state


def one_run(wl, api, state, traced: bool, setup_layers: dict) -> dict:
    """One timed repetition of the workload (runs in a forked child)."""
    tracer = tracing.Tracer(api) if traced else None
    if tracer:
        tracer.install()
    start = perf_counter()
    raw = wl.run(state)
    wall = perf_counter() - start
    if tracer:
        tracer.uninstall()
    outcome = wl.check(state, raw)
    result = {
        "wall": wall,
        "traced": traced,
        "y0": outcome.y0,
        "y0_gap": outcome.y0_gap,
        "checks": outcome.checks,
        "findings": outcome.findings,
    }
    if tracer:
        layers = tracer.metrics()
        for name, value in setup_layers.items():
            layers[name] += value
        layers["backward.ladder_drops"] = outcome.ladder_drops
        layers["y0_gap"] = outcome.y0_gap
        result["layers"] = layers
        result["uncovered"] = wall - tracer.root_time()
    return result


def measure(wl, sizes: dict, seed: int, seconds: float, trace: bool, workdir: Path, min_runs: int) -> dict:
    """Set the workload up, then repeat it for ``seconds``; raw numbers only."""
    if trace:
        api = import_api()
        tracer = tracing.Tracer(api)
        tracer.install()
        try:
            state = wl.setup(api, sizes, seed, workdir)
        finally:
            tracer.uninstall()
        setup_layers = {name: value for name, value in tracer.metrics().items() if value}
        setup_times = []
    else:
        # each child imports afresh, because this process has not imported the package yet
        setup_times = [in_child(lambda: timed_setup(wl, sizes, seed, workdir)[0])[0]]
        if setup_times[0] is None:
            raise RuntimeError("set-up failed in a child process")
        repeats = min(max(SETUP_REPEATS, math.ceil(SETUP_SECONDS / setup_times[0])), MAX_SETUP_REPEATS)
        setup_times += [in_child(lambda: timed_setup(wl, sizes, seed, workdir)[0])[0] for _ in range(repeats - 2)]
        if None in setup_times:
            raise RuntimeError("set-up failed in a child process")
        elapsed, api, state = timed_setup(wl, sizes, seed, workdir)
        setup_times.append(elapsed)
        setup_layers = {}

    runs = []
    start = perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 0
        result, rss = in_child(lambda: one_run(wl, api, state, traced, setup_layers))
        runs.append(None if result is None else {**result, "peak_mem_mb": rss})
        if result is None:
            break  # the traceback is on stderr; one crashed repetition is enough to report
        typical = statistics.median(r["wall"] for r in runs)
        if len(runs) >= min_runs and perf_counter() - start + typical > seconds:
            break
    return {"setup_times": setup_times, "runs": runs}


def _median(values, default: float = -1.0) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else default


def summarize(raw: dict, trace: bool) -> tuple[dict, int]:
    """Metrics by name and the number of failed repetitions."""
    runs = raw["runs"]
    done = [r for r in runs if r is not None]
    failed = sum(r is None or not all(r["checks"].values()) for r in runs)
    if not trace:
        return {
            "setup_s": statistics.median(raw["setup_times"]),
            "run_s": _median(r["wall"] for r in done),
            "peak_mem_mb": _median(r["peak_mem_mb"] for r in done),
        }, failed
    traced = [r for r in done if r["traced"]]
    plain = [r for r in done if not r["traced"]]
    metrics = {name: _median(r["layers"][name] for r in traced) for name in traced[0]["layers"]} if traced else {}
    metrics["trace.overhead_s"] = _median(r["wall"] for r in traced) - _median(r["wall"] for r in plain)
    metrics["trace.uncovered_s"] = _median(r["uncovered"] for r in traced)
    return metrics, failed


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(name: str, seed: int, trace: bool, raw: dict, metrics: dict, units: dict) -> None:
    env = " ".join(f"{k} {v}" for k, v in environment().items())
    runs = raw["runs"]
    print(f"workload {name}  seed {seed}  tracing {'on' if trace else 'off'}  ({env})")
    print(f"  sizes {json.dumps(WORKLOADS[name].sizes)}")
    for i, r in enumerate(runs, 1):
        if r is None:
            print(f"  repetition {i}: raised (traceback on stderr)")
            continue
        tag = "  traced" if r["traced"] else ""
        print(
            f"  repetition {i}: {r['wall']:.4f} s  peak {r['peak_mem_mb']:.1f} MiB  "
            f"y0 {r['y0']:.6f}  y0_gap {r['y0_gap']:.3g}{tag}"
        )
    done = [r for r in runs if r is not None]
    for kind in ("checks", "findings"):
        for label in done[0][kind] if done else ():
            passed = sum(bool(r[kind].get(label)) for r in done)
            word = "check" if kind == "checks" else "finding (does not gate)"
            print(f"  {word} {label}: {passed}/{len(done)} pass")
    if not trace:
        gap = _median(r["y0_gap"] for r in done)
        print(f"  {'y0_gap':32s} {gap:.6g} 1  (median; |y0 - oracle value|, a per-layer metric)")
    setups = raw["setup_times"]
    for metric, unit in units.items():
        value = metrics[metric]
        note = f"  (median of {len(setups)} set-ups)" if metric == "setup_s" else ""
        print(f"  {metric:32s} {value:.6g} {unit}{note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> int:
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    with workspace() as workdir:
        raw = measure(WORKLOADS[name], WORKLOADS[name].sizes, seed, seconds, trace, workdir, MIN_RUNS)
    if all(r is None for r in raw["runs"]):
        print(f"{name}: every repetition raised", file=sys.stderr)
        return 1
    metrics, failed = summarize(raw, trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    report(name, seed, trace, raw, metrics, units)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(raw["runs"]),
                "failed": failed,
                "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh interpreter, so each set-up imports from scratch."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run([*argv, "--trace", str(int(trace))], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def selftest(bench: dict) -> int:
    """Toy sizes: counts and y0 repeat at one seed, simulation changes with another."""
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    problems = []
    with workspace() as workdir:
        for wl in WORKLOADS.values():
            first, again, other = (
                measure(wl, wl.toy, seed, 0.0, True, workdir, min_runs=1)["runs"][0] for seed in (1, 1, 2)
            )
            if None in (first, again, other):
                problems.append(f"{wl.name}: a toy run raised")
                continue
            for name in counts:
                if first["layers"][name] != again["layers"][name]:
                    problems.append(f"{wl.name}: {name} {first['layers'][name]} then {again['layers'][name]}")
            if first["y0"] != again["y0"]:
                problems.append(f"{wl.name}: y0 {first['y0']!r} then {again['y0']!r}")
            moved = first["layers"]["forward.subintervals"] != other["layers"]["forward.subintervals"]
            if wl.name.startswith("mc-") and not moved:
                problems.append(f"{wl.name}: forward.subintervals did not change with the seed")
            print(f"{wl.name}: y0 {first['y0']!r}, forward.subintervals {first['layers']['forward.subintervals']}")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


@contextmanager
def workspace():
    """A scratch directory inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            yield Path(tmp)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="check the harness at toy sizes")
    args = parser.parse_args(argv)
    if not (args.selftest or args.workload):
        parser.error("give --workload or --selftest")
    if not PACKAGE.is_file():
        print(f"no switchbsde package under {PACKAGE.parents[1]}; run from the root of a checkout", file=sys.stderr)
        return 2
    # The workloads are single-process by design. Left to itself the BLAS pool
    # keeps a second thread spinning, which on a small shared machine adds more
    # noise than speed; pin it before anything imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(PACKAGE.parents[1]))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.selftest:
        return selftest(bench)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), bench)


if __name__ == "__main__":
    sys.exit(main())
