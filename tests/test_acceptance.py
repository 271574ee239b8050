"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The penalty-ladder violation-decay bound is asserted as stated even though
the measured decay of the mean constraint violation is Theta(1/n), which
caps the attainable 64:1 ratio at 1/64 > 1e-2; that check is expected to
fail and documents the gap honestly.
"""

import json
import time

import numpy as np
import pytest

from switchbsde import (
    IntensityMeasure,
    LatticeSpec,
    SchemeConfig,
    build_lattice_chain,
    build_problem,
    fd_solve,
    lattice_dp_solve,
    oracle_compare,
    penalization_ladder,
    simulate_paths,
    solve_backward,
)
from switchbsde.cli import run
from switchbsde.problem import CoefficientSet, ProblemSpec


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ladder_report():
    """Shared penalty ladder on one chain (criteria 4 and 8)."""
    spec = build_problem("switch2-linear", {"sigma": [0.25, 0.25], "T": 1.0})
    chain = build_lattice_chain(spec, LatticeSpec(h=1 / 96))
    cfg = SchemeConfig(h=1 / 96, paths=1, seed=0)
    return penalization_ladder(spec, cfg, [1, 2, 4, 8, 16, 32, 64], chain)


def test_criterion_01_martingale_benchmark():
    start = time.monotonic()
    spec = build_problem("bm1")
    bundle = simulate_paths(spec, 10_000, 0.05, seed=42)
    result = solve_backward(spec, SchemeConfig(h=0.05, n=0, paths=10_000, seed=42), bundle)
    elapsed = time.monotonic() - start
    band = 3.0 * float(np.std(bundle.x_T[:, 0])) / np.sqrt(bundle.N)
    gap = abs(result.y0 - 0.7)
    ok = gap <= band and elapsed <= 30.0
    report("criterion 1", ok, f"|y0 - 0.7| = {gap:.4f} <= {band:.4f}, runtime {elapsed:.1f}s <= 30s")
    assert gap <= band
    assert elapsed <= 30.0


def test_criterion_02_quadratic_benchmark():
    spec = build_problem("bm1-quad")
    bundle = simulate_paths(spec, 10_000, 0.02, seed=42)
    result = solve_backward(spec, SchemeConfig(h=0.02, n=0, paths=10_000, seed=42), bundle)
    payoff = spec.terminal(1, bundle.x_T)
    band = 3.0 * float(np.std(payoff)) / np.sqrt(bundle.N) + 0.02
    gap = abs(result.y0 - 1.0)
    report("criterion 2", gap <= band, f"|y0 - 1.0| = {gap:.4f} <= {band:.4f}")
    assert gap <= band


def test_criterion_03_regression_free_equivalence():
    spec = build_problem("switch2-linear")
    chain = build_lattice_chain(spec, LatticeSpec(h=0.05))
    terminal_states = chain.nodes[-1].regime.size
    assert terminal_states <= 2**12
    dp = lattice_dp_solve(spec, chain, n=8)
    res = solve_backward(spec, SchemeConfig(h=0.05, n=8, paths=1, seed=0), chain, keep_steps=True)
    y0_gap = abs(dp.y0 - res.y0)
    u_gap = max(float(np.max(np.abs(dp.u[k] - res.us[k]))) for k in range(chain.K))
    ok = y0_gap <= 1e-12 and u_gap <= 1e-12
    report(
        "criterion 3",
        ok,
        f"dual |y0 gap| = {y0_gap:.2e}, max per-node |U gap| = {u_gap:.2e} "
        f"({terminal_states} terminal states)",
    )
    assert y0_gap <= 1e-12
    assert u_gap <= 1e-12


def test_criterion_04_penalization_monotonicity(ladder_report):
    rep = ladder_report
    mono = all(rep.y0_nondecreasing)
    noninc = all(rep.violation_nonincreasing)
    report(
        "criterion 4 (monotonicity)",
        mono and noninc,
        f"y0 nondecreasing: {mono}, violation nonincreasing: {noninc}; y0(n) = "
        + ", ".join(f"{v:.4f}" for v in rep.y0),
    )
    assert mono
    assert noninc


def test_criterion_04_violation_decay(ladder_report):
    rep = ladder_report
    ratio = rep.mean_violation[-1] / rep.mean_violation[0]
    ok = ratio <= 1e-2
    report(
        "criterion 4 (violation decay)",
        ok,
        f"violation(64)/violation(1) = {ratio:.4f}, required <= 0.01; the mean "
        f"violation decays as Theta(1/n), so 1/64 = 0.0156 bounds this ratio below",
    )
    assert ratio <= 1e-2, (
        f"violation ratio {ratio:.4f} exceeds 1e-2: penalized violations scale as 1/n "
        f"(level-64 mass stays near 1/64 of the level-1 mass), so this bound is not attainable"
    )


def test_criterion_05_jump_offset_representation():
    spec = build_problem("switch2-linear")
    dp = lattice_dp_solve(spec, LatticeSpec(h=0.05), n=4)
    worst = 0.0
    for k in range(dp.chain.K):
        regimes = dp.chain.nodes[k].regime
        own = dp.proxies[k][np.arange(regimes.size), regimes - 1]
        worst = max(worst, float(np.max(np.abs(dp.u[k] - (dp.proxies[k] - own[:, None])))))
    report("criterion 5", worst <= 1e-10, f"max per-node |U - (v_j - v_i)| = {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_06_cross_engine_value(tmp_path):
    start = time.monotonic()
    spec = build_problem("switch2-linear")
    bundle = simulate_paths(spec, 50_000, 0.02, seed=42)
    cfg = SchemeConfig(h=0.02, n=64, paths=50_000, seed=42, clip_to_growth_bound=True)
    result = solve_backward(spec, cfg, bundle)
    grid = (400, -1.2, 1.2)
    oracle = fd_solve(spec, grid, 1e-3, mode="projection")
    rep = oracle_compare(result, oracle, (0.0, spec.initial_regime, 0.0))
    elapsed = time.monotonic() - start
    ok = rep.abs_gap <= 5e-2 and elapsed <= 300.0
    report(
        "criterion 6",
        ok,
        f"|y0 - fd| = {rep.abs_gap:.4f} <= 0.05 (y0 {rep.value:.4f}, fd {rep.oracle_value:.4f}), "
        f"runtime {elapsed:.0f}s <= 300s",
    )
    assert rep.abs_gap <= 5e-2
    assert elapsed <= 300.0


def test_criterion_07_fd_self_consistency():
    spec = build_problem("switch2-linear")
    grid = (400, -1.2, 1.2)
    proj = fd_solve(spec, grid, 1e-3, mode="projection")
    pen = fd_solve(spec, grid, 1e-3, mode="penalized", penalization=256)
    sup_gap = float(np.max(np.abs(pen.values - proj.values)))

    blocked = build_problem("switch2-linear", {"costs": [[0.0, 1e6], [1e6, 0.0]]})
    coupled = fd_solve(blocked, grid, 1e-3, mode="projection")
    dec_gap = 0.0
    for i, (sig, rew) in enumerate([(0.2, 0.5), (0.3, -0.5)], start=1):
        single = build_problem("bm1", {"sigma": [sig], "rewards": [rew], "x0": [0.0], "T": spec.horizon})
        alone = fd_solve(single, grid, 1e-3)
        dec_gap = max(dec_gap, float(np.max(np.abs(coupled.values[i - 1] - alone.values[0]))))

    ok = sup_gap <= 1e-2 and dec_gap <= 1e-8
    report(
        "criterion 7",
        ok,
        f"|penalized(256) - projection|_sup = {sup_gap:.4f} <= 0.01, decoupling gap = {dec_gap:.2e} <= 1e-8",
    )
    assert sup_gap <= 1e-2
    assert dec_gap <= 1e-8


def test_criterion_08_skorohod_residual(ladder_report):
    rep = ladder_report
    ratio = abs(rep.skorohod[-1]) / abs(rep.skorohod[0])
    report(
        "criterion 8",
        ratio <= 0.1,
        f"|skorohod(64)| / |skorohod(1)| = {ratio:.4f} <= 0.1 "
        f"({rep.skorohod[0]:.2e} -> {rep.skorohod[-1]:.2e})",
    )
    assert ratio <= 0.1


def test_criterion_09_forward_laws():
    # the atoms simulate_paths stores: 100 000 paths span 98 blocks of substream draws
    spec = build_problem("switch2-linear", {"intensity": [2.0, 3.0], "T": 1.0})
    draws = 100_000
    bundle = simulate_paths(spec, draws, 1.0, seed=2024)
    counts = np.diff(bundle.atom_offsets)
    atoms = bundle.atom_marks.size
    mark2 = int(np.count_nonzero(bundle.atom_marks == 2))
    mean_band = 3.0 * np.sqrt(5.0 / draws)
    mean_gap = abs(counts.mean() - 5.0)
    freq_band = 3.0 * np.sqrt(0.6 * 0.4 / atoms)
    freq_gap = abs(mark2 / atoms - 0.6)

    # Euler weak error on a linear-drift diffusion halves with the step
    def linear_drift_spec():
        coeffs = CoefficientSet(
            drift=lambda i, x: x,
            vol=lambda i, x: np.full((x.shape[0], 1, 1), 0.2),
            driver=lambda i, x, v, z: np.zeros(x.shape[0]),
            constraint=lambda i, j, x, y, yt, z: np.asarray(y) - np.asarray(yt),
            terminal=lambda i, x: x[:, 0],
        )
        return ProblemSpec(
            m=1, d=1, horizon=1.0, intensity=IntensityMeasure([0.0]),
            coefficients=coeffs, initial_regime=1, initial_state=np.ones(1),
        )

    gaps = []
    for h in (0.1, 0.05):
        bundle = simulate_paths(linear_drift_spec(), 100_000, h, seed=5)
        gaps.append(abs(float(bundle.x_T[:, 0].mean()) - np.e))
    ratio = gaps[1] / gaps[0]
    ratio_ok = 0.35 <= ratio <= 0.65

    ok = mean_gap <= mean_band and freq_gap <= freq_band and ratio_ok
    report(
        "criterion 9",
        ok,
        f"poisson mean gap {mean_gap:.4f} <= {mean_band:.4f}, mark freq gap {freq_gap:.5f} <= "
        f"{freq_band:.5f}, weak-error halving ratio {ratio:.3f} in [0.35, 0.65]",
    )
    assert mean_gap <= mean_band
    assert freq_gap <= freq_band
    assert ratio_ok


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "schema_version": 1,
        "problem": {"name": "switch2-linear", "overrides": {}},
        "scheme": {"h": 0.1, "n": 4, "paths": 1200, "clip_to_growth_bound": True},
        "seed": 31,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        code = run("solve", str(cfg_path), workers=workers, out=str(out))
        assert code == 0
        blobs.append((out / "result.json").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 10", ok, f"result.json byte-identical across workers 1/2/8: {ok}")
    assert ok
