"""The public surface: exported names resolve, README's example runs, and the benchmark harness can drive them.

``perfbench/tracing.py`` wraps package functions at the names their callers
look up, ``perfbench/workloads.py`` calls the package's public API, and
README.md documents it by example. Deleting or renaming one of those names,
or changing a call's signature, fails here, not only in a benchmark run or
in a reader's hands.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import switchbsde

MODULES = ("backward", "catalog", "cli", "forward", "lattice", "oracles", "problem", "regression")
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", ["switchbsde", *(f"switchbsde.{m}" for m in MODULES if m != "cli")])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_readme_library_example_runs():
    """README's "Library use" block, read from README.md, runs as written on one BLAS thread."""
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    script = section.split("```python\n", 1)[1].split("```", 1)[0]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith("CompareReport(")


def test_package_and_cli_import_without_scipy():
    """The package needs numpy alone: importing it and its CLI loads no scipy module."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = "import sys, switchbsde, switchbsde.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT, capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "[]"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = load_tracing()
    api = SimpleNamespace(**{m: importlib.import_module(f"switchbsde.{m}") for m in MODULES})
    tracer = tracing.Tracer(api)
    hooked = [(tracer._resolve(path), attr) for path, attr, _ in tracing.PATCHES]
    hooked += [(api.problem.ProblemSpec, "driver"), (api.problem.ProblemSpec, "constraint")]
    before = [owner.__dict__[attr] for owner, attr in hooked]

    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(hooked, before))
        spec = api.catalog.build_problem("switch2-linear")
        bundle = api.forward.simulate_paths(spec, 40, 0.125, seed=1)
        config = api.backward.SchemeConfig(h=0.125, n=4, paths=40, seed=1)
        levels = [1, 4]
        api.backward.penalization_ladder(spec, config, levels, bundle)
        ladder_metrics = tracer.metrics()
        # the ladder runs one backward pass of its own: solve_backward only spans this solve
        api.backward.solve_backward(spec, config, bundle)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(hooked, before))

    metrics = tracer.metrics()
    for name in ("problem.driver_calls", "problem.constraint_calls", "regression.design_calls", "regression.fit_calls"):
        assert metrics[name] > 0, name
    for name in ("forward.simulate_s", "backward.solve_s", "backward.skorohod_s"):
        assert metrics[name] > 0, name
    # the driver calls the per-step operations by their module names, where the tracer hooks them
    for name in ("backward.z_self_s", "backward.u_self_s", "backward.y_self_s"):
        assert metrics[name] > 0, name
    # one constraint pass per step: every mark on every sub-interval, once per level
    assert ladder_metrics["problem.constraint_rows"] == len(levels) * spec.m * ladder_metrics["forward.subintervals"]
    # one fit per (step, family, stratum): z, u and y each fit all their columns of all levels at once
    strata = sum(len(np.unique(bundle.nodes(k)[0])) for k in range(1, bundle.K))
    assert ladder_metrics["regression.fit_calls"] == 3 * strata


def test_tracer_counts_chain_edges():
    """``lattice.edges`` reads every node's 2 (m + 1) out-edges, summed over the steps."""
    tracing = load_tracing()
    api = SimpleNamespace(**{m: importlib.import_module(f"switchbsde.{m}") for m in MODULES})
    tracer = tracing.Tracer(api)
    tracer.install()
    try:
        spec = api.catalog.build_problem("switch2-linear")
        chain = api.lattice.build_lattice_chain(spec, api.lattice.LatticeSpec(h=0.125))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["lattice.nodes"] == chain.size()
    assert metrics["lattice.edges"] == sum(ns.regime.size for ns in chain.nodes[:-1]) * 2 * (spec.m + 1)


def test_benchmark_harness_selftest_passes():
    """Every workload runs at toy size, traced, through the harness's own calls."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "selftest passed"
