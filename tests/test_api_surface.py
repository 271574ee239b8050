"""The public surface: exported names resolve, and the benchmark tracer can hook them.

``perfbench/tracing.py`` wraps package functions at the names their callers
look up. Deleting or renaming one of those names fails here, not only in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import switchbsde

MODULES = ("backward", "catalog", "cli", "forward", "lattice", "oracles", "problem", "regression")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", ["switchbsde", *(f"switchbsde.{m}" for m in MODULES if m != "cli")])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


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
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(hooked, before))

    metrics = tracer.metrics()
    for name in ("problem.driver_calls", "problem.constraint_calls", "regression.design_calls", "regression.fit_calls"):
        assert metrics[name] > 0, name
    for name in ("forward.simulate_s", "backward.solve_s", "backward.skorohod_s"):
        assert metrics[name] > 0, name
    # one constraint pass per step: every mark on every sub-interval, once per level
    assert metrics["problem.constraint_rows"] == len(levels) * spec.m * metrics["forward.subintervals"]
    # one fit per (step, family, stratum): z, u and y each fit all their columns at once
    strata = sum(len(np.unique(bundle.i_reg[:, k])) for k in range(1, bundle.K))
    assert metrics["regression.fit_calls"] == len(levels) * 3 * strata
