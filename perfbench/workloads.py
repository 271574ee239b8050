"""The benchmark workloads: set-up, one timed run, and the checks on its output.

Each workload has full sizes, used by the benchmark, and toy sizes, used by
the harness self-test. ``setup`` builds everything a run needs from the
seed (problem, configs, simulated bundle); ``run`` is the timed call into
the public API; ``check`` turns the run's output into an :class:`Outcome`.

``checks`` gate a run: one that fails makes the run a failed operation.
``findings`` are reported on every run but do not gate it. They hold the
Monte Carlo ladder's accuracy claims, which the explicit penalty step
breaks on some seeds while ``n * Lambda * h > 1`` (ROADMAP item 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

SCHEDULE = [1, 2, 4, 8, 16, 32, 64]
LADDER_EXACT = 0.15   # switch2-linear: switch to regime 1 at once, 0.5 * 0.5 - 0.1
ORACLE_EXACT = 0.4    # same problem with T = 1: 0.5 * 1 - 0.1


@dataclass
class Outcome:
    y0: float
    y0_gap: float
    checks: dict[str, bool]
    findings: dict[str, bool] = field(default_factory=dict)
    ladder_drops: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    toy: dict
    setup: Callable[[SimpleNamespace, dict, int, Path], SimpleNamespace]
    run: Callable[[SimpleNamespace], object]
    check: Callable[[SimpleNamespace, object], Outcome]


def _drops(y0s: list[float]) -> int:
    return sum(b < a for a, b in zip(y0s, y0s[1:]))


# ---------------------------------------------------------------------------
# mc-compare: the ``compare`` command users run


def _compare_setup(api, sizes: dict, seed: int, workdir: Path) -> SimpleNamespace:
    api.catalog.build_problem(sizes["problem"])  # refuses a bad problem before any run
    config = {
        "seed": seed,
        "problem": {"name": sizes["problem"]},
        "scheme": {
            "h": sizes["h"],
            "n": sizes["n"],
            "paths": sizes["paths"],
            "clip_to_growth_bound": True,
            "basis": {"kind": "global-polynomial", "degree": sizes["degree"]},
        },
        "oracle": {
            "fd": {
                "M": sizes["fd_M"],
                "x_min": sizes["fd_x"][0],
                "x_max": sizes["fd_x"][1],
                "dt": sizes["fd_dt"],
                "mode": "projection",
            }
        },
    }
    path = workdir / "mc-compare.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return SimpleNamespace(api=api, config=str(path), out=str(workdir / "out"))


def _compare_run(state):
    return state.api.cli.run("compare", state.config, workers=1, out=state.out)


def _compare_check(state, code) -> Outcome:
    gap = y0 = math.nan
    if code == 0:
        report = json.loads((Path(state.out) / "compare.json").read_text(encoding="utf-8"))
        gap, y0 = float(report["abs_gap"]), float(report["value"])
    return Outcome(y0=y0, y0_gap=gap, checks={"exit code 0": code == 0, "abs_gap <= 0.05": gap <= 0.05})


# ---------------------------------------------------------------------------
# mc-ladder: the penalization ladder on a bundle simulated during set-up


def _ladder_setup(api, sizes: dict, seed: int, workdir: Path) -> SimpleNamespace:
    spec = api.catalog.build_problem(sizes["problem"])
    bundle = api.forward.simulate_paths(spec, sizes["paths"], sizes["h"], seed)
    config = api.backward.SchemeConfig(h=sizes["h"], paths=sizes["paths"], seed=seed, clip_to_growth_bound=True)
    return SimpleNamespace(api=api, spec=spec, bundle=bundle, config=config, schedule=sizes["schedule"])


def _ladder_run(state):
    try:
        return state.api.backward.penalization_ladder(state.spec, state.config, state.schedule, state.bundle)
    except state.api.backward.DivergenceError as exc:
        return exc


def _ladder_check(state, report) -> Outcome:
    if isinstance(report, Exception):
        return Outcome(y0=math.nan, y0_gap=math.nan, checks={"no DivergenceError": False})
    y0 = report.y0[-1]
    gap = abs(y0 - LADDER_EXACT)
    return Outcome(
        y0=y0,
        y0_gap=gap,
        checks={"no DivergenceError": True, "every y0 finite": all(map(math.isfinite, report.y0))},
        findings={"y0 non-decreasing along the schedule": report.monotone, "|y0(64) - 0.15| <= 0.05": gap <= 0.05},
        ladder_drops=_drops(report.y0),
    )


# ---------------------------------------------------------------------------
# oracles: exact-mode ladder, chain DP and both finite-difference modes


def _oracles_setup(api, sizes: dict, seed: int, workdir: Path) -> SimpleNamespace:
    # nothing here is random: the seed does not enter this workload
    spec = api.catalog.build_problem(sizes["problem"], sizes["overrides"])
    grid = api.oracles.default_grid(spec, sizes["fd_M"])
    config = api.backward.SchemeConfig(h=sizes["chain_h"], paths=1, seed=0)
    return SimpleNamespace(api=api, spec=spec, grid=grid, config=config, sizes=sizes)


def _oracles_run(state):
    api, spec, sizes = state.api, state.spec, state.sizes
    chain = api.lattice.build_lattice_chain(spec, api.lattice.LatticeSpec(h=sizes["chain_h"]))
    ladder = api.backward.penalization_ladder(spec, state.config, sizes["schedule"], chain)
    dp = api.oracles.lattice_dp_solve(spec, chain, n=sizes["dp_n"])
    proj = api.oracles.fd_solve(spec, state.grid, sizes["fd_dt"], mode="projection")
    pen = api.oracles.fd_solve(spec, state.grid, sizes["fd_dt"], mode="penalized", penalization=sizes["fd_pen_n"])
    return ladder, dp, proj, pen


def _oracles_check(state, out) -> Outcome:
    ladder, dp, proj, pen = out
    spec = state.spec
    y0s = ladder.y0
    richardson_gap = abs(2.0 * y0s[-1] - y0s[-2] - ORACLE_EXACT)
    fd_value = proj.value_at(0.0, spec.initial_regime, float(spec.initial_state[0]))
    sup_gap = float(abs(pen.values - proj.values).max())
    return Outcome(
        y0=y0s[-1],
        y0_gap=richardson_gap,
        checks={
            "exact y0 == DP y0 within 1e-10": abs(y0s[-1] - dp.y0) <= 1e-10,
            "exact ladder non-decreasing": ladder.monotone,
            "|2 y(64) - y(32) - 0.4| <= 1e-3": richardson_gap <= 1e-3,
            "|FD projection - 0.4| <= 1e-3": abs(fd_value - ORACLE_EXACT) <= 1e-3,
            "sup |FD penalized(256) - projection| <= 1e-2": sup_gap <= 1e-2,
        },
        ladder_drops=_drops(y0s),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-compare",
            sizes={
                "problem": "switch2-linear", "paths": 50_000, "h": 0.02, "n": 64, "degree": 2,
                "fd_M": 400, "fd_x": [-1.2, 1.2], "fd_dt": 1e-3,
            },
            toy={
                "problem": "switch2-linear", "paths": 2_000, "h": 0.05, "n": 64, "degree": 2,
                "fd_M": 100, "fd_x": [-1.2, 1.2], "fd_dt": 5e-3,
            },
            setup=_compare_setup,
            run=_compare_run,
            check=_compare_check,
        ),
        Workload(
            name="mc-ladder",
            sizes={"problem": "switch2-linear", "paths": 20_000, "h": 0.02, "schedule": SCHEDULE},
            toy={"problem": "switch2-linear", "paths": 2_000, "h": 0.05, "schedule": SCHEDULE},
            setup=_ladder_setup,
            run=_ladder_run,
            check=_ladder_check,
        ),
        Workload(
            name="oracles",
            sizes={
                "problem": "switch2-linear", "overrides": {"sigma": [0.25, 0.25], "T": 1.0},
                "chain_h": 1 / 192, "schedule": SCHEDULE, "dp_n": 64,
                "fd_M": 800, "fd_dt": 5e-4, "fd_pen_n": 256,
            },
            toy={
                "problem": "switch2-linear", "overrides": {"sigma": [0.25, 0.25], "T": 1.0},
                "chain_h": 1 / 48, "schedule": SCHEDULE, "dp_n": 64,
                "fd_M": 100, "fd_dt": 5e-3, "fd_pen_n": 256,
            },
            setup=_oracles_setup,
            run=_oracles_run,
            check=_oracles_check,
        ),
    )
}
