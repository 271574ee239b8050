import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from switchbsde import (
    BasisSpec,
    DivergenceError,
    IntensityMeasure,
    LatticeSpec,
    SchemeConfig,
    build_lattice_chain,
    build_problem,
    bundle_from_paths,
    estimate_u,
    estimate_z,
    make_switching_problem,
    penalization_ladder,
    simulate_paths,
    skorohod_residual,
    solve_backward,
)
from switchbsde.backward import (
    FitRecord,
    SolveResult,
    _driver_terms,
    _reduce,
    _solve_levels,
    make_ensemble,
    step_y,
)
from switchbsde.catalog import _const_drift, _const_reward, _const_vol, _linear_terminal
from switchbsde.problem import constraint_values, penalty_batch
from switchbsde.regression import _features, ols_fit


def chain_ensemble(spec, h, n=0, seed=0):
    chain = build_lattice_chain(spec, LatticeSpec(h=h))
    cfg = SchemeConfig(h=h, n=n, paths=1, seed=seed)
    return chain, make_ensemble(spec, cfg, chain)


def terminal_values(spec, ens):
    step = ens.step(ens.n_steps)
    regimes, xs = step.regimes, step.xs
    y = np.empty(regimes.size)
    for i in np.unique(regimes):
        rows = np.flatnonzero(regimes == i)
        y[rows] = spec.terminal(int(i), xs[rows])
    return y


class TestEstimateZ:
    def test_exact_increment_regression_on_chain(self):
        # terminal value IS the Brownian increment, so Z = E[dW dW]/h = 1
        spec = build_problem("bm1", {"x0": [0.0], "T": 0.25})
        chain, ens = chain_ensemble(spec, 0.25)
        y = terminal_values(spec, ens)
        z, _ = estimate_z(ens, 0, y[ens.step(0).head][None])
        assert abs(float(z[0, 0, 0]) - 1.0) <= 1e-12

    def test_constant_next_value_gives_zero_mean_noise(self):
        from switchbsde import BasisSpec

        spec = build_problem("bm1")
        bundle = simulate_paths(spec, 20_000, 0.25, seed=3)
        # constant basis: the estimate is the sample mean of 5 dW / h, which
        # sits within a few standard errors of zero
        cfg = SchemeConfig(h=0.25, paths=20_000, seed=3, basis=BasisSpec(degree=0))
        ens = make_ensemble(spec, cfg, bundle)
        (z,), _ = estimate_z(ens, 2, np.full((1, bundle.N), 5.0))
        se = 5.0 / np.sqrt(bundle.h) / np.sqrt(bundle.N)
        assert np.max(np.abs(z)) <= 3 * se
        # default quadratic basis: noise stays small away from the tails
        ens2 = make_ensemble(spec, SchemeConfig(h=0.25, paths=20_000, seed=3), bundle)
        (z2,), _ = estimate_z(ens2, 2, np.full((1, bundle.N), 5.0))
        xs = ens2.step(2).xs[:, 0]
        interior = np.abs(xs - xs.mean()) <= xs.std()
        assert np.max(np.abs(z2[interior])) <= 0.25

    @pytest.mark.parametrize(
        "func, at",
        [(func, at) for func in ("estimate_z", "estimate_u", "step_y") for at in ("-1", "K", "1-d")]
        + [("step_y", "levels"), ("step_y", "scalar-level")],
    )
    def test_step_index_validated(self, func, at):
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 50, 0.25, seed=1)
        ens = make_ensemble(spec, SchemeConfig(h=0.25, paths=50, seed=1), bundle)
        k = {"-1": -1, "K": ens.n_steps}.get(at, 0)
        # the per-step API takes one row per level; a flat (n,) array is refused, not broadcast
        y = np.zeros(bundle.N) if at == "1-d" else np.zeros((1, bundle.N))
        levels = {"levels": [0, 4], "scalar-level": 0}.get(at, [0])
        calls = {
            "estimate_z": lambda: estimate_z(ens, k, y),
            "estimate_u": lambda: estimate_u(ens, k, y),
            "step_y": lambda: step_y(ens, k, y, np.zeros((1, bundle.N, 1)), np.zeros((1, bundle.N, 2)), spec, levels),
        }
        match = {"1-d": r"shape \(L, n\)", "levels": "one level per row", "scalar-level": "one level per row"}
        with pytest.raises(ValueError, match=match.get(at, "step index")):
            calls[func]()


class TestEstimateU:
    def test_regime_independent_value_gives_zero(self):
        spec = build_problem("switch2-linear", {"sigma": [0.25, 0.25]})
        chain, ens = chain_ensemble(spec, 0.125)
        y = terminal_values(spec, ens)  # g = x in both regimes
        u, _ = estimate_u(ens, ens.n_steps - 1, y[ens.step(ens.n_steps - 1).head][None])
        assert np.max(np.abs(u)) <= 1e-13

    def test_zero_next_value_gives_zero(self):
        spec = build_problem("switch2-linear")
        chain, ens = chain_ensemble(spec, 0.125)
        u, _ = estimate_u(ens, 0, np.zeros((1, ens.step(0).head.size)))
        assert np.max(np.abs(u)) == 0.0

    def test_own_component_exactly_zero(self):
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 500, 0.125, seed=9)
        cfg = SchemeConfig(h=0.125, paths=500, seed=9)
        ens = make_ensemble(spec, cfg, bundle)
        y = terminal_values(spec, ens)
        (u,), _ = estimate_u(ens, bundle.K - 1, y[None])
        regimes = ens.step(bundle.K - 1).regimes
        own = u[np.arange(u.shape[0]), regimes - 1]
        assert np.all(own == 0.0)

    def test_zero_intensity_weight_rejected_at_solve(self):
        spec = build_problem("switch2-linear")
        object.__setattr__(spec, "intensity", IntensityMeasure([1.0, 0.0]))
        bundle = simulate_paths(spec, 50, 0.25, seed=0)
        with pytest.raises(ValueError, match="nonpositive intensity weight"):
            solve_backward(spec, SchemeConfig(h=0.25, paths=50, seed=0), bundle)


def reward_switch_spec(rewards, costs_value=0.5, lam=(1.0, 1.0), T=0.1, i0=1):
    m = len(rewards)
    costs = np.full((m, m), costs_value)
    np.fill_diagonal(costs, 0.0)
    return make_switching_problem(
        m=m,
        d=1,
        costs=costs,
        drift=_const_drift([0.0] * m),
        vol=_const_vol([0.3] * m),
        running_reward=_const_reward(list(rewards)),
        terminal=_linear_terminal,
        intensity=IntensityMeasure(lam),
        horizon=T,
        initial_regime=i0,
    )


def one_path_integral(spec, h, atoms, n_pen, y_next, z_k, u_k):
    """Step-0 integral of the scheme's integrand on one hand-built path, as the solver runs it."""
    bundle = bundle_from_paths(spec, h, [atoms])
    ens = make_ensemble(spec, SchemeConfig(h=h, paths=1), bundle)
    ((integral, *_),) = _driver_terms(spec, [n_pen], ens, 0, np.array([[y_next]]), np.array([[z_k]]), np.array([[u_k]]))
    return float(integral[0])


class TestDriverIntegral:
    def test_constant_integrand_no_jumps(self):
        spec = reward_switch_spec([0.7, 0.7], T=0.1)
        # zero jump offsets: compensator vanishes, integrand is the reward
        val = one_path_integral(spec, 0.1, [], 0, 1.3, np.zeros(1), np.zeros(2))
        assert val == pytest.approx(0.07)

    def test_midpoint_jump_splits_integral(self):
        spec = reward_switch_spec([1.0, 3.0], T=0.1)
        val = one_path_integral(spec, 0.1, [(0.05, 2)], 0, 0.0, np.zeros(1), np.zeros(2))
        assert val == pytest.approx(0.2)

    def test_matches_refined_quadrature(self):
        rewards, lam = [1.0, -0.4, 0.2], np.array([0.8, 1.1, 0.6])
        spec = reward_switch_spec(rewards, costs_value=0.15, lam=tuple(lam), T=0.2)
        atoms = [(0.03, 2), (0.11, 3), (0.157, 1), (0.19, 3)]
        y_next, z_k = 0.8, np.array([0.1])
        u_k = np.array([0.0, 0.45, 0.3])  # violations towards regimes 2 and 3
        n_pen = 7
        val = one_path_integral(spec, 0.2, atoms, n_pen, y_next, z_k, u_k)

        # independent quadrature: walk the regime step function on a fine
        # grid whose cut points include the atoms, with the switching
        # penalty sum_j lambda_j [yvec_r - yvec_j + c_rj]^- in closed form
        costs = spec.switching_costs.costs
        cuts = np.unique(np.concatenate([np.linspace(0.0, 0.2, 2001), [a[0] for a in atoms]]))
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            r = spec.initial_regime
            for t_atom, mark in atoms:
                if t_atom <= 0.5 * (lo + hi):
                    r = mark
            # y_next is regime r's value; the offsets keep their differences
            yvec = y_next - u_k[r - 1] + u_k
            yvec[r - 1] = y_next
            penalty = float(lam @ np.maximum(-(yvec[r - 1] - yvec + costs[r - 1]), 0.0))
            compensator = float(yvec @ lam - lam.sum() * yvec[r - 1])
            total += (hi - lo) * (rewards[r - 1] + n_pen * penalty - compensator)
        assert val == pytest.approx(total, abs=1e-12)

    def test_value_vector_after_midstep_jump(self):
        # U_k is re-based at the tail regime I_k = 1; after the jump to regime
        # 2 the driver must see Y_{k+1} as regime 2's value, and the vector's
        # differences U_k(j) - U_k(2), the paper's v_j - v_2
        spec = reward_switch_spec([1.0, -0.4, 0.2], costs_value=0.15, lam=(0.8, 1.1, 0.6), T=0.2)
        base = spec.coefficients
        seen = {}

        def driver(i, x, values, z):
            seen[i] = np.array(values)
            return base.driver(i, x, values, z)

        object.__setattr__(spec, "coefficients", replace(base, driver=driver))
        u_k = np.array([0.0, 0.45, 0.3])
        one_path_integral(spec, 0.2, [(0.07, 2)], 0, 0.8, np.array([0.1]), u_k)
        assert sorted(seen) == [1, 2]
        for r, (values,) in seen.items():
            assert values[r - 1] == 0.8
            np.testing.assert_allclose(values - values[r - 1], u_k - u_k[r - 1], rtol=0.0, atol=1e-15)


class TestStepAndSolve:
    def test_terminal_condition_exact(self):
        spec = build_problem("bm1")
        bundle = simulate_paths(spec, 200, 0.25, seed=5)
        result = solve_backward(spec, SchemeConfig(h=0.25, paths=200, seed=5), bundle, keep_steps=True)
        g = spec.terminal(1, bundle.x_T)
        np.testing.assert_array_equal(result.ys[-1], g)

    def test_tower_property_on_chain(self):
        # no driver: the value at the root is the chain mean of the payoff
        spec = build_problem("bm1", {"x0": [0.3]})
        chain = build_lattice_chain(spec, LatticeSpec(h=0.125))
        result = solve_backward(spec, SchemeConfig(h=0.125, paths=1, seed=0), chain)
        terminal = chain.nodes[-1]
        mean_g = float(terminal.mass @ spec.terminal(1, terminal.x))
        assert abs(result.y0 - mean_g) <= 1e-12

    def test_constant_driver_telescopes_on_chain(self):
        spec = build_problem("bm1", {"x0": [0.3], "rewards": [0.4]})
        chain = build_lattice_chain(spec, LatticeSpec(h=0.125))
        result = solve_backward(spec, SchemeConfig(h=0.125, paths=1, seed=0), chain)
        assert abs(result.y0 - (0.3 + 0.4 * spec.horizon)) <= 1e-12

    def test_bm1_martingale(self):
        spec = build_problem("bm1")
        bundle = simulate_paths(spec, 10_000, 0.05, seed=42)
        result = solve_backward(spec, SchemeConfig(h=0.05, paths=10_000, seed=42), bundle)
        se = float(np.std(bundle.x_T[:, 0]) / np.sqrt(bundle.N))
        assert abs(result.y0 - 0.7) <= 3 * se

    def test_bm1_quad(self):
        spec = build_problem("bm1-quad")
        bundle = simulate_paths(spec, 10_000, 0.02, seed=7)
        result = solve_backward(spec, SchemeConfig(h=0.02, paths=10_000, seed=7), bundle)
        g = spec.terminal(1, bundle.x_T)
        se = float(np.std(g) / np.sqrt(bundle.N))
        assert abs(result.y0 - 1.0) <= 3 * se + 0.02

    def test_zero_penalization_is_stay_forever_value_on_chain(self):
        spec = build_problem("switch2-linear")  # i0 = 2, reward -0.5, g = x
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 32))
        result = solve_backward(spec, SchemeConfig(h=1 / 32, paths=1, seed=0), chain)
        assert abs(result.y0 - (-0.5 * spec.horizon)) <= 1e-12

    def test_equal_rewards_match_never_switch_value(self):
        spec = build_problem("switch2-linear", {"rewards": [0.7, 0.7]})
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 32))
        result = solve_backward(spec, SchemeConfig(h=1 / 32, n=8, paths=1, seed=0), chain)
        never_switch = 0.0 + 0.7 * spec.horizon
        assert result.y0 >= never_switch - 1e-10
        assert result.y0 == pytest.approx(never_switch, abs=1e-10)

    def test_mc_solve_deterministic_given_bundle(self):
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 2_000, 0.05, seed=11)
        cfg = SchemeConfig(h=0.05, n=4, paths=2_000, seed=11)
        a = solve_backward(spec, cfg, bundle, keep_steps=True)
        b = solve_backward(spec, cfg, bundle, keep_steps=True)
        assert a.y0 == b.y0
        np.testing.assert_array_equal(a.ys[0], b.ys[0])

    def test_step_zero_is_plain_mean(self):
        spec = build_problem("bm1")
        bundle = simulate_paths(spec, 300, 0.5, seed=13)
        result = solve_backward(spec, SchemeConfig(h=0.5, paths=300, seed=13), bundle, keep_steps=True)
        assert np.ptp(result.ys[0]) == 0.0  # every path carries the same estimate

    def test_divergence_guard(self):
        spec = build_problem("bm1", {"growth_bound": [0.001, 0.0]})
        bundle = simulate_paths(spec, 500, 0.25, seed=1)
        with pytest.raises(DivergenceError, match="step"):
            solve_backward(spec, SchemeConfig(h=0.25, paths=500, seed=1), bundle)

    def test_clipping_bounds_values(self):
        spec = build_problem("bm1", {"growth_bound": [0.1, 0.1]})
        bundle = simulate_paths(spec, 500, 0.25, seed=2)
        cfg = SchemeConfig(h=0.25, paths=500, seed=2, clip_to_growth_bound=True)
        result = solve_backward(spec, cfg, bundle, keep_steps=True)
        assert result.clipped_fraction > 0
        for k in range(bundle.K):
            bound = spec.growth_radius(bundle.nodes(k)[1])
            assert np.all(np.abs(result.ys[k]) <= bound + 1e-12)

    def test_non_finite_target_aborts_with_step(self):
        spec = build_problem("bm1")
        bad = spec.coefficients.__class__(
            drift=spec.coefficients.drift,
            vol=spec.coefficients.vol,
            driver=spec.coefficients.driver,
            constraint=spec.coefficients.constraint,
            terminal=lambda i, x: np.full(x.shape[0], np.inf),
        )
        object.__setattr__(spec, "coefficients", bad)
        object.__setattr__(spec, "growth_bound", None)
        bundle = simulate_paths(spec, 100, 0.25, seed=3)
        with pytest.raises(DivergenceError, match="step 3"):
            solve_backward(spec, SchemeConfig(h=0.25, paths=100, seed=3), bundle)

    def test_solve_bits_independent_of_blas_threads(self):
        # OpenBLAS splits a dot product over more than 10 000 entries across
        # its threads, and the split changes the rounding of the sum
        script = (
            "import switchbsde as sb\n"
            "spec = sb.build_problem('switch2-linear')\n"
            "bundle = sb.simulate_paths(spec, 20_000, 0.02, seed=11)\n"
            "cfg = sb.SchemeConfig(h=0.02, n=16, paths=20_000, seed=11, clip_to_growth_bound=True)\n"
            "result = sb.solve_backward(spec, cfg, bundle)\n"
            "print(result.y0.hex(), *(float(v).hex() for v in result.violation_mean))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert runs[0] == runs[1]

    def test_mismatched_bundle_step_rejected(self):
        spec = build_problem("bm1")
        bundle = simulate_paths(spec, 50, 0.25, seed=0)
        with pytest.raises(ValueError, match="step does not match"):
            solve_backward(spec, SchemeConfig(h=0.125, paths=50, seed=0), bundle)

    def test_mismatched_chain_step_rejected(self):
        # the chain's step would run while the result echoes the configured one
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=0.05))
        cfg = SchemeConfig(h=0.1, n=4, paths=1, seed=0)
        with pytest.raises(ValueError, match="chain step does not match"):
            solve_backward(spec, cfg, chain)
        with pytest.raises(ValueError, match="chain step does not match"):
            penalization_ladder(spec, cfg, [1, 2], chain)

    @pytest.mark.parametrize("mismatch", ["regime count", "horizon"])
    @pytest.mark.parametrize("kind", ["bundle", "chain"])
    def test_ensemble_of_another_problem_rejected(self, kind, mismatch):
        spec = build_problem("switch2-linear")  # m = 2, T = 0.5
        if kind == "bundle":
            source = simulate_paths(spec, 20, 0.125, seed=0)
        else:
            source = build_lattice_chain(spec, LatticeSpec(h=0.125))
        if mismatch == "regime count":
            other, message = build_problem("switch3", {"T": 0.5}), "was built from a different problem shape"
        else:
            other, message = build_problem("switch2-linear", {"T": 1.0}), "horizon does not match the problem"
        with pytest.raises(ValueError, match=f"^{kind} {message}$"):
            make_ensemble(other, SchemeConfig(h=0.125, paths=20), source)

    def test_ensemble_of_something_else_rejected(self):
        spec = build_problem("switch2-linear")
        with pytest.raises(TypeError, match="^cannot build an ensemble from dict$"):
            make_ensemble(spec, SchemeConfig(h=0.125, paths=20), {"x": np.zeros((20, 5, 1))})

    def test_chain_non_finite_target_rejected(self):
        spec = build_problem("switch2-linear")
        ens = make_ensemble(spec, SchemeConfig(h=0.125, paths=1), build_lattice_chain(spec, LatticeSpec(h=0.125)))
        targets = np.zeros((1, ens.step(2).tail.size, 1))
        targets[0, 3, 0] = np.nan
        with pytest.raises(DivergenceError, match="^non-finite target for z at step 2$"):
            ens.condexp(2, targets, "z")

    def test_thinnest_stratum(self):
        spec = build_problem("switch2-linear")  # T = 0.5
        basis = BasisSpec(degree=1)
        bundle = simulate_paths(spec, 40, 0.125, seed=3)
        ens = make_ensemble(spec, SchemeConfig(h=0.125, paths=40, basis=basis), bundle)
        per_step = [np.bincount(bundle.nodes(k)[0]) for k in range(1, bundle.K)]
        want = min(int(c[c > 0].min()) for c in per_step)
        assert ens.thinnest_stratum() == want
        assert want < 40  # both regimes are occupied at some fitted step
        one_step = simulate_paths(spec, 40, 0.5, seed=3)  # K = 1: step 0 is a plain mean, nothing is fitted
        assert make_ensemble(spec, SchemeConfig(h=0.5, paths=40, basis=basis), one_step).thinnest_stratum() is None

    @pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0, -0.25])
    def test_bad_step_rejected_at_config(self, h):
        with pytest.raises(ValueError, match="time step must be finite and positive"):
            SchemeConfig(h=h)

    @pytest.mark.parametrize("clip", ["no", 0, 1, None])
    def test_bad_clip_rejected_at_config(self, clip):
        """Only a bool is a choice: a truthy string would clip and a falsy value would not."""
        with pytest.raises(ValueError, match="clip_to_growth_bound must be true or false"):
            SchemeConfig(h=0.25, clip_to_growth_bound=clip)

    @pytest.mark.parametrize("basis", [{"kind": "global-polynomial", "degree": 2}, "global-polynomial", None])
    def test_bad_basis_rejected_at_config(self, basis):
        """A basis given as a dict is refused here, not by an AttributeError inside the solve."""
        with pytest.raises(ValueError, match="basis must be a BasisSpec"):
            SchemeConfig(h=0.25, basis=basis)

    @pytest.mark.parametrize("paths", [0, -3, 2.5, 3.0, True, "10"])
    def test_bad_path_count_rejected_at_config(self, paths):
        with pytest.raises(ValueError, match="path count"):
            SchemeConfig(h=0.25, paths=paths)
        assert SchemeConfig(h=0.25, paths=np.int64(5)).paths == 5

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, False, "7"])
    def test_bad_seed_rejected_at_config(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SchemeConfig(h=0.25, seed=seed)
        assert SchemeConfig(h=0.25, seed=np.int64(5)).seed == 5

    def test_numpy_integers_echo_as_json(self):
        cfg = SchemeConfig(h=0.25, n=np.int32(4), paths=np.int64(50), seed=np.uint8(3))
        assert all(type(getattr(cfg, name)) is int for name in ("n", "paths", "seed"))
        echoed = json.loads(json.dumps(cfg.echo()))
        assert (echoed["n"], echoed["paths"], echoed["seed"]) == (4, 50, 3)

    def test_warns_when_strata_thinner_than_basis(self):
        spec = build_problem("switch2-linear")
        bundle = bundle_from_paths(spec, 0.25, [[(0.1, 1)], [], [], []])  # regime 1 holds one path at t_1
        with pytest.warns(UserWarning, match="fewer paths per stratum"):
            solve_backward(spec, SchemeConfig(h=0.25, paths=4, seed=0), bundle)
        # a configured path count the bundle does not hold is refused
        with pytest.raises(ValueError, match="path count"):
            solve_backward(spec, SchemeConfig(h=0.25, paths=10_000, seed=0), bundle)
        thick = simulate_paths(spec, 400, 0.25, seed=0)
        with pytest.raises(ValueError, match="path count"):
            solve_backward(spec, SchemeConfig(h=0.25, paths=4, seed=0), thick)
        # the warning reads the bundle's strata: 6 paths over 2 regimes give
        # 3 per stratum on average, the basis size, but regime 1 holds one path
        lopsided = bundle_from_paths(spec, 0.25, [[(0.1, 1)], [], [], [], [], []])
        with pytest.warns(UserWarning, match=r"\(1 < 3\)"):
            solve_backward(spec, SchemeConfig(h=0.25, paths=6, seed=0), lopsided)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_backward(spec, SchemeConfig(h=0.25, paths=400, seed=0), thick)
        assert not [w for w in caught if "fewer paths per stratum" in str(w.message)]

    def test_three_regime_mc_against_fd(self):
        from switchbsde import default_grid, fd_solve

        spec = build_problem("switch3")
        bundle = simulate_paths(spec, 20_000, 0.05, seed=42)
        cfg = SchemeConfig(h=0.05, n=16, paths=20_000, seed=42, clip_to_growth_bound=True)
        result = solve_backward(spec, cfg, bundle)
        oracle = fd_solve(spec, default_grid(spec, 200), 1e-3, mode="projection")
        assert abs(result.y0 - oracle.value_at(0.0, 1, 0.0)) <= 0.1
        assert result.clipped_fraction <= 0.01

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_collinear_basis_flagged_rank_deficient(self):
        spec = build_problem("switch2-linear", {"T": 0.5})
        # two paths switch to regime 1 at t = 0.1, two stay in regime 2
        atoms = [[(0.1, 1)], [(0.1, 1)], [], []]
        dws = [0.1 * (p + 1) * np.ones((len(a) + 4, 1)) for p, a in enumerate(atoms)]
        bundle = bundle_from_paths(spec, 0.125, atoms, dws)
        # two states per stratum against four basis functions, under the automatic ridge
        result = solve_backward(spec, SchemeConfig(h=0.125, paths=4, basis=BasisSpec(degree=3)), bundle)
        # steps 1-3, two strata, z + u1 + u2 + y: one factorization per (step, stratum) serves all four
        assert len(result.fit_records) == 24
        assert all(r.rank_deficient for r in result.fit_records)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_absent_stratum_flagged(self):
        spec = build_problem("switch3", {"T": 0.5})
        # two hand-built paths that never reach regime 3
        bundle = bundle_from_paths(spec, 0.25, [[(0.1, 2)], []])
        result = solve_backward(spec, SchemeConfig(h=0.25, paths=2, seed=0), bundle)
        assert 3 in result.absent_strata_steps[1]


class TestKeepSteps:
    """``keep_steps`` changes what the result holds, never what the pass computes."""

    SUMMARY = (
        "y0",
        "violation_mean",
        "violation_max",
        "skorohod_steps",
        "clipped_fraction",
        "absent_strata_steps",
        "fit_records",
    )

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("case", ["switch2-mc", "bm1-clipped", "switch3-absent", "switch2-chain"])
    def test_summary_equal_with_and_without_steps(self, case):
        if case == "switch2-mc":
            spec = build_problem("switch2-linear")
            bundle = simulate_paths(spec, 2_000, 0.05, seed=9)
            cfg = SchemeConfig(h=0.05, n=16, paths=2_000, seed=9, clip_to_growth_bound=True)
        elif case == "bm1-clipped":
            spec = build_problem("bm1", {"growth_bound": [0.1, 0.1]})
            bundle = simulate_paths(spec, 500, 0.25, seed=2)
            cfg = SchemeConfig(h=0.25, paths=500, seed=2, clip_to_growth_bound=True)
        elif case == "switch3-absent":
            spec = build_problem("switch3", {"T": 0.5})
            bundle = bundle_from_paths(spec, 0.25, [[(0.1, 2)], []])
            cfg = SchemeConfig(h=0.25, n=4, paths=2, seed=0)
        else:
            spec = build_problem("switch2-linear")
            bundle = build_lattice_chain(spec, LatticeSpec(h=1 / 32))
            cfg = SchemeConfig(h=1 / 32, n=8, paths=1, seed=0)
        lean = solve_backward(spec, cfg, bundle)
        kept = solve_backward(spec, cfg, bundle, keep_steps=True)
        assert lean.ys is None and lean.zs is None and lean.us is None and lean.penalty_mass is None
        assert len(kept.ys) == bundle.K + 1
        assert len(kept.zs) == len(kept.us) == len(kept.penalty_mass) == bundle.K
        for name in self.SUMMARY:
            a, b = getattr(lean, name), getattr(kept, name)
            if isinstance(a, np.ndarray):
                a, b = a.tolist(), b.tolist()
            assert a == b, name
        if case == "bm1-clipped":
            assert lean.clipped_fraction > 0
        if case == "switch3-absent":
            assert lean.absent_strata_steps

    def test_lean_result_holds_a_tenth_of_the_kept_one(self):
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 4_000, 0.05, seed=3)
        cfg = SchemeConfig(h=0.05, n=16, paths=4_000, seed=3)
        solve_backward(spec, cfg, bundle)  # one-time set-up is not the result's
        held = {}
        tracemalloc.start()
        try:
            for keep in (False, True):
                before = tracemalloc.get_traced_memory()[0]
                result = solve_backward(spec, cfg, bundle, keep_steps=keep)
                held[keep] = tracemalloc.get_traced_memory()[0] - before
                del result
        finally:
            tracemalloc.stop()
        # the kept arrays, 4 000 paths each: K + 1 of Y, and K each of Z (d = 1), U (m = 2) and penalty mass
        assert held[True] >= 4_000 * 8 * (11 + 10 * 4)
        assert held[False] < held[True] / 10

    def test_kept_arrays_index_paths(self):
        """Kept arrays are by path, not by the step's regime layout: reversing the paths reverses every one."""
        spec = build_problem("switch2-linear")  # T = 0.5
        h, n_paths = 0.125, 40
        rng = np.random.default_rng(11)
        atoms, dws = [], []
        for _ in range(n_paths):
            times = np.sort(rng.choice(np.arange(1, 50) / 100 + 0.003, size=rng.integers(0, 3), replace=False))
            atoms.append([(float(t), int(rng.integers(1, 3))) for t in times])
            dws.append(rng.normal(scale=np.sqrt(h / 2), size=4 + len(times)))
        bundle = bundle_from_paths(spec, h, atoms, dws)
        reversed_bundle = bundle_from_paths(spec, h, atoms[::-1], dws[::-1])
        # the paths cross regimes, so a step's layout is not path order
        assert any(np.any(np.diff(bundle.nodes(k)[0]) < 0) for k in range(1, bundle.K))
        cfg = SchemeConfig(h=h, n=4, paths=n_paths, basis=BasisSpec(degree=1))
        result = solve_backward(spec, cfg, bundle, keep_steps=True)
        reversed_result = solve_backward(spec, cfg, reversed_bundle, keep_steps=True)
        assert reversed_result.y0 == pytest.approx(result.y0, rel=0, abs=1e-12)
        for name in ("ys", "zs", "us", "penalty_mass"):
            for k, (forward, backward) in enumerate(zip(getattr(result, name), getattr(reversed_result, name))):
                np.testing.assert_allclose(backward, forward[::-1], rtol=0, atol=1e-12, err_msg=f"{name}[{k}]")

    def test_ladder_transient_memory(self):
        """The ladder's ``tracemalloc`` peak above entry, counted in (L, N) float arrays.

        switch2-linear, 4 000 paths, h = 0.05, levels 1 to 64 (L = 7). Each
        step's units come grouped by regime, so its fits run in place and
        each level's penalty mass, violation and ``min_h`` are reduced before
        the next level's are built: of the step's (L, N) arrays only
        ``Y_{k+1}`` at the edge heads, Z, U (two) and the y targets are
        alive at once, and the growth-bound clip runs in place. The peak
        reads 9.27 arrays. It read 16.3 when every fit and every regime
        group of the driver terms copied its data into regime order and
        back, beside (L, S) buffers of the driver terms, S the step's
        sub-interval count, and the clip made two (L, N) temporaries.
        """
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 4_000, 0.05, seed=3)
        cfg = SchemeConfig(h=0.05, paths=4_000, seed=3, clip_to_growth_bound=True)
        levels = [1, 2, 4, 8, 16, 32, 64]
        penalization_ladder(spec, cfg, levels, bundle)  # one-time set-up is not the ladder's
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            penalization_ladder(spec, cfg, levels, bundle)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 12 * len(levels) * bundle.N * 8, f"peak {peak / (len(levels) * bundle.N * 8):.2f} (L, N) arrays"


def reference_driver_terms(spec, n_pen, segments, xs, y_next, z, u, h, n_edges):
    """The driver terms gathered and summed one sub-interval at a time.

    ``segments`` holds (edge, tail, head, duration, regime) rows. The driver
    and the constraint run once per regime on that regime's rows, stacked in
    order, as in the solver: a batched BLAS product need not round like a
    one-row product, so only this keeps the comparison exact.
    """
    edges, tails, heads, durations, regimes = segments
    lam = spec.intensity.weights
    f, pen, row_min = np.empty(len(edges)), np.empty(len(edges)), np.empty(len(edges))
    for r in range(1, spec.m + 1):
        group = [s for s in range(len(edges)) if regimes[s] == r]
        if not group:
            continue
        yvec = np.array([u[tails[s]] + (y_next[heads[s]] - u[tails[s], r - 1]) for s in group])
        for row, s in enumerate(group):
            yvec[row, r - 1] = y_next[heads[s]]
        x = np.array([xs[tails[s]] for s in group])
        zk = np.array([z[tails[s]] for s in group])
        f_r = spec.driver(r, x, yvec, zk) - (yvec @ lam - lam.sum() * yvec[:, r - 1])
        h_r = constraint_values(spec, r, x, yvec, zk)
        pen_r = penalty_batch(spec, h_r)
        for row, s in enumerate(group):
            f[s], pen[s], row_min[s] = f_r[row], pen_r[row], h_r[row].min()
    integral, mass, violation = np.zeros(n_edges), np.zeros(n_edges), np.zeros(n_edges)
    min_h = np.full(n_edges, np.nan)
    for s, (edge, dt) in enumerate(zip(edges, durations)):
        integral[edge] += dt * (f[s] + n_pen * pen[s])
        mass[edge] += dt * n_pen * pen[s]
        violation[edge] += dt * pen[s] / h
        if np.isnan(min_h[edge]):  # the edge's first sub-interval
            min_h[edge] = row_min[s]
    return integral, mass, violation, min_h


def assert_results_equal(got, want):
    """Every field of two solve results equal, arrays element for element."""
    for name in (f.name for f in fields(SolveResult)):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, list) and a and isinstance(a[0], np.ndarray):  # per-step arrays
            assert len(a) == len(b), name
            for a_step, b_step in zip(a, b):
                np.testing.assert_array_equal(a_step, b_step, err_msg=name)
        elif isinstance(a, np.ndarray):
            assert a.tolist() == b.tolist(), name
        else:
            assert a == b, name


def assert_ladder_equals_separate_solves(spec, cfg, levels, bundle):
    """Each level of one pass is, bit for bit and field for field, its own solve; the ladder reports it."""
    report = penalization_ladder(spec, cfg, levels, bundle)
    for keep in (False, True):
        results = _solve_levels(spec, cfg, levels, bundle, keep_steps=keep)
        assert len(results) == len(levels)
        for i, (n, result) in enumerate(zip(levels, results)):
            own = solve_backward(spec, replace(cfg, n=n), bundle, keep_steps=keep)
            assert (own.ys is not None) == keep
            assert_results_equal(result, own)
            assert report.y0[i] == own.y0
            assert report.mean_violation[i] == float(np.mean(own.violation_mean))
            assert report.skorohod[i] == skorohod_residual(own)


class TestStepView:
    def test_driver_terms_match_per_segment_loop_on_bundle(self):
        # high intensity: most paths cross several regimes within a step
        spec = build_problem("switch3", {"intensity": [10.0, 8.0, 6.0]})
        bundle = simulate_paths(spec, 300, 0.25, seed=5)
        ens = make_ensemble(spec, SchemeConfig(h=0.25, paths=300, seed=5), bundle)
        rng = np.random.default_rng(0)
        y_next = rng.normal(size=bundle.N)
        z, u = rng.normal(size=(bundle.N, 1)), rng.normal(scale=0.5, size=(bundle.N, 3))
        for k in range(bundle.K):
            paths, durations, regimes = ens.segments(k)
            assert np.bincount(paths).max() >= 3
            (got,) = _driver_terms(spec, [16], ens, k, y_next[None], z[None], u[None])
            segments = (paths, paths, paths, durations, regimes)
            want = reference_driver_terms(spec, 16, segments, ens.step(k).xs, y_next, z, u, bundle.h, bundle.N)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_driver_terms_match_per_segment_loop_on_chain(self):
        spec = build_problem("switch3")
        chain, ens = chain_ensemble(spec, 1 / 8)
        rng = np.random.default_rng(1)
        for k in (0, 3, chain.K - 1):
            es, n, n_next = chain.edges[k], chain.nodes[k].regime.size, chain.nodes[k + 1].regime.size
            y_next = rng.normal(size=n_next)
            z, u = rng.normal(size=(n, 1)), rng.normal(scale=0.5, size=(n, 3))
            u -= u[np.arange(n), chain.nodes[k].regime - 1][:, None]  # re-based, as estimate_u returns it
            (got,) = _driver_terms(spec, [8], ens, k, y_next[es.head][None], z[None], u[None])
            n_edges = es.tail.size
            regimes = chain.nodes[k].regime[es.tail]
            segments = (np.arange(n_edges), es.tail, es.head, np.full(n_edges, chain.h), regimes)
            want = reference_driver_terms(spec, 8, segments, chain.nodes[k].x, y_next, z, u, chain.h, n_edges)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_ladder_equals_separate_solves(self):
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 2_000, 0.05, seed=13)
        cfg = SchemeConfig(h=0.05, paths=2_000, seed=13, clip_to_growth_bound=True)
        assert_ladder_equals_separate_solves(spec, cfg, [1, 4, 16, 64], bundle)

    @pytest.mark.parametrize(
        "case", ["switch3-mc-unclipped", "switch2-mc-level-zero", "switch2-chain-96", "switch3-chain-24"]
    )
    def test_ladder_equals_separate_solves_in_more_cases(self, case):
        levels = [1, 2, 4, 8, 16, 32, 64]
        if case == "switch2-mc-level-zero":
            levels = [0]
            spec = build_problem("switch2-linear")
            bundle = simulate_paths(spec, 1_000, 0.05, seed=19)
            cfg = SchemeConfig(h=0.05, paths=1_000, seed=19, clip_to_growth_bound=True)
        elif case == "switch3-mc-unclipped":
            # unclipped, switch3 at h = 0.05 runs away from n = 8 on (y0 ~ 2.7 against ~1)
            levels = [0, 1, 2, 4]
            spec = build_problem("switch3")
            bundle = simulate_paths(spec, 3_000, 0.05, seed=17)
            cfg = SchemeConfig(h=0.05, paths=3_000, seed=17)
            assert not cfg.clip_to_growth_bound
        else:
            name, h = ("switch2-linear", 1 / 96) if case == "switch2-chain-96" else ("switch3", 1 / 24)
            spec = build_problem(name)
            bundle = build_lattice_chain(spec, LatticeSpec(h=h))
            cfg = SchemeConfig(h=h, paths=1, seed=0)
        assert_ladder_equals_separate_solves(spec, cfg, levels, bundle)

    def test_thin_strata_warn_once_per_ladder(self):
        spec = build_problem("switch2-linear")
        bundle = bundle_from_paths(spec, 0.25, [[(0.1, 1)], [], [], []])  # regime 1 holds one path at t_1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            penalization_ladder(spec, SchemeConfig(h=0.25, paths=4, seed=0), [1, 2, 4, 8], bundle)
        assert len([w for w in caught if "fewer paths per stratum" in str(w.message)]) == 1

    def test_diverging_top_level_aborts_ladder(self):
        # the explicit penalty step is unstable once n * Lambda * h >> 1: here 2000 * 3 * 0.05 = 300
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 1_000, 0.05, seed=23)
        cfg = SchemeConfig(h=0.05, paths=1_000, seed=23)
        assert len(penalization_ladder(spec, cfg, [1, 4], bundle).y0) == 2
        with pytest.raises(DivergenceError, match="growth bound"):
            solve_backward(spec, replace(cfg, n=2_000), bundle)
        with pytest.raises(DivergenceError, match="growth bound"):
            penalization_ladder(spec, cfg, [1, 4, 2_000], bundle)

    def test_steps_in_any_order_match_fresh_ensembles(self):
        spec = build_problem("switch3")
        bundle = simulate_paths(spec, 1_000, 0.1, seed=2)
        cfg = SchemeConfig(h=0.1, paths=1_000, seed=2)
        shared = make_ensemble(spec, cfg, bundle)
        y = np.random.default_rng(3).normal(size=(1, bundle.N))
        for k in (4, 1, 4, 0, 7, 1):
            z, (rec_z,) = estimate_z(shared, k, y)
            u, (rec_u,) = estimate_u(shared, k, y)
            fresh = make_ensemble(spec, cfg, bundle)
            z_ref, (rec_z_ref,) = estimate_z(fresh, k, y)
            u_ref, (rec_u_ref,) = estimate_u(fresh, k, y)
            np.testing.assert_array_equal(z, z_ref)
            np.testing.assert_array_equal(u, u_ref)
            assert [r.gram_condition for r in rec_z + rec_u] == [r.gram_condition for r in rec_z_ref + rec_u_ref]
            assert shared.absent_strata(k) == fresh.absent_strata(k)

    def test_one_factorization_per_step_and_stratum(self, monkeypatch):
        from switchbsde.regression import GramFactor

        factored = []
        original = GramFactor.of.__func__

        def counted(cls, design):
            factored.append(design.shape)
            return original(cls, design)

        monkeypatch.setattr(GramFactor, "of", classmethod(counted))
        spec = build_problem("switch3")
        bundle = simulate_paths(spec, 1_000, 0.1, seed=2)
        result = solve_backward(spec, SchemeConfig(h=0.1, paths=1_000, seed=2), bundle)
        strata = sum(len(np.unique(bundle.nodes(k)[0])) for k in range(1, bundle.K))
        assert len(factored) == strata
        # z, u and y fit every stratum of every step: one column for z and y, three for u
        assert len(result.fit_records) == strata * (1 + 3 + 1)


def edge_ends(step):
    """(tail, head, prob) of a step's edges, written out on a bundle: edge p is unit p, with probability 1."""
    if step.tail is not None:
        return step.tail, step.head, step.prob
    units = np.arange(step.regimes.size)
    return units, units if step.head is None else step.head, np.ones(units.size)


def parent_condexp(ens, k, targets, family):
    """Monte Carlo projection fitted stratum by stratum on an advanced-index copy, scattered back."""
    regimes, xs = ens.step(k).regimes, ens.step(k).xs
    levels, _, c = targets.shape
    out, fits = np.empty_like(targets), []
    for stratum in np.unique(regimes):
        rows = np.flatnonzero(regimes == stratum)
        fit = ols_fit(_features(ens.basis, xs[rows]), np.take(targets, rows, axis=1))
        out[:, rows] = fit.fitted
        fits.append((int(stratum), fit))
    records = [
        [
            FitRecord(k, f"{family}{col + 1}", stratum, fit.sample_count, fit.gram_condition,
                      float(fit.residual_mse[level, col]), fit.rank_deficient)
            for stratum, fit in fits
            for col in range(c)
        ]
        for level in range(levels)
    ]
    return out, records


def parent_z_targets(ens, k, y_next):
    step = ens.step(k)
    targets = np.take(y_next, edge_ends(step)[1], axis=1)[:, :, None] * step.dw
    targets /= ens.h
    return targets


def parent_u_targets(ens, k, y_next):
    lam = ens.spec.intensity.weights
    step = ens.step(k)
    targets = np.take(y_next, edge_ends(step)[1], axis=1)[:, :, None] * (step.counts - lam[None, :] * ens.h)
    targets /= lam[None, :] * ens.h
    return targets


def parent_rebase(ens, k, u_raw):
    regimes = ens.step(k).regimes
    return u_raw - u_raw[:, np.arange(u_raw.shape[1]), regimes - 1][:, :, None]


def stacked_driver_terms(spec, levels, ens, k, y_head, z, u):
    """The four per-edge outputs of every level, stacked as (L, edges) arrays."""
    return [np.stack(rows) for rows in zip(*_driver_terms(spec, levels, ens, k, y_head, z, u))]


def parent_driver_terms(spec, levels, ens, k, y_next, z, u):
    """The driver terms with each regime's values scattered into segment order by an advanced index."""
    levels = np.asarray(levels)
    step = ens.step(k)
    lam = spec.intensity.weights
    seg_edge, seg_dt, seg_regime = ens.segments(k)
    tail, head, _ = edge_ends(step)
    seg_tail, seg_head = tail[seg_edge], head[seg_edge]
    f_val = np.empty((levels.size, seg_edge.size))
    pen_val, min_h = np.zeros((levels.size, seg_edge.size)), np.zeros((levels.size, seg_edge.size))
    for r in range(1, spec.m + 1):
        rows = np.flatnonzero(seg_regime == r)
        if rows.size == 0:
            continue
        tails = seg_tail[rows]
        y_r = np.take(y_next, seg_head[rows], axis=1)
        x_r, z_r = step.xs[tails], np.take(z, tails, axis=1)
        offsets = np.take(u, tails, axis=1)
        yvec = offsets + (y_r - offsets[:, :, r - 1])[:, :, None]
        yvec[:, :, r - 1] = y_r
        for level, n in enumerate(levels):
            values, z_level = yvec[level], z_r[level]
            compensator = values @ lam - lam.sum() * values[:, r - 1]
            f_val[level, rows] = spec.driver(r, x_r, values, z_level) - compensator
            if spec.m > 1 or n > 0:
                h = constraint_values(spec, r, x_r, values, z_level)
                pen_val[level, rows] = penalty_batch(spec, h)
                min_h[level, rows] = h.min(axis=1)
    n_edges = int(seg_edge.max()) + 1
    integral, penalty_mass, violation = [np.empty((levels.size, n_edges)) for _ in range(3)]
    for level, (n, f, pen) in enumerate(zip(levels, f_val, pen_val)):
        integral[level] = np.bincount(seg_edge, seg_dt * (f + n * pen), n_edges)
        penalty_mass[level] = np.bincount(seg_edge, seg_dt * n * pen, n_edges)
        violation[level] = np.bincount(seg_edge, seg_dt * pen / ens.h, n_edges)
    return integral, penalty_mass, violation, min_h[:, :n_edges]


def parent_reduce(ens, k, per_edge):
    es = ens.chain.edges[k]
    columns = per_edge.reshape(per_edge.shape[:2] + (-1,))
    out = np.empty((columns.shape[0], ens.chain.nodes[k].regime.size, columns.shape[2]))
    for level, level_columns in enumerate(columns):
        weighted = es.prob[:, None] * level_columns
        for col, weights in enumerate(weighted.T):
            out[level, :, col] = np.bincount(es.tail, weights=weights, minlength=out.shape[1])
    return out.reshape(out.shape[:2] + per_edge.shape[2:])


class TestBitForBitReference:
    """The per-step arithmetic against its advanced-index form, element for element.

    The step runs per-column products and fits on contiguous slices of
    stratum- and regime-ordered copies. The orders are stable, so every fit
    sees the rows, and every sum the terms, in the order an advanced index
    gives them, and the results must match bit for bit: at m = 3, with
    several levels, on a bundle whose strata interleave.
    """

    LEVELS = [0, 4, 16]

    @pytest.fixture(scope="class")
    def mc(self):
        spec = build_problem("switch3", {"intensity": [10.0, 8.0, 6.0]})
        bundle = simulate_paths(spec, 600, 0.1, seed=31)
        ens = make_ensemble(spec, SchemeConfig(h=0.1, paths=600, seed=31), bundle)
        rng = np.random.default_rng(8)
        L, N = len(self.LEVELS), bundle.N
        return spec, ens, rng.normal(size=(L, N)), rng.normal(size=(L, N, 1)), rng.normal(scale=0.5, size=(L, N, 3))

    @pytest.fixture(scope="class")
    def chain(self):
        spec = build_problem("switch3")
        chain, ens = chain_ensemble(spec, 1 / 8)
        return spec, ens

    def test_strata_interleave(self, mc):
        _, ens, *_ = mc
        for k in (1, 3, ens.n_steps - 1):
            regimes = ens.bundle.nodes(k)[0]
            assert np.unique(regimes).size == 3
            assert np.count_nonzero(np.diff(regimes)) > 100  # regimes alternate along the path index

    def test_condexp(self, mc):
        _, ens, y, *_ = mc
        targets = np.random.default_rng(9).normal(size=y.shape + (3,))
        for k in range(1, ens.n_steps):
            got, records = ens.condexp(k, targets.copy(), "t")
            want, want_records = parent_condexp(ens, k, targets, "t")
            assert np.array_equal(got, want)
            assert records == want_records

    def test_estimate_z_and_u(self, mc):
        _, ens, y, *_ = mc
        for k in range(ens.n_steps):
            y_head = np.take(y, edge_ends(ens.step(k))[1], axis=1)
            z, _ = estimate_z(ens, k, y_head)
            assert np.array_equal(z, ens.condexp(k, parent_z_targets(ens, k, y), "z")[0])
            u, _ = estimate_u(ens, k, y_head)
            want_raw = ens.condexp(k, parent_u_targets(ens, k, y), "u")[0]
            assert np.array_equal(u, parent_rebase(ens, k, want_raw))

    def test_estimate_z_and_u_on_chain(self, chain):
        spec, ens = chain
        rng = np.random.default_rng(4)
        for k in (0, 3, ens.n_steps - 1):
            y = rng.normal(size=(len(self.LEVELS), ens.chain.nodes[k + 1].regime.size))
            y_head = np.take(y, edge_ends(ens.step(k))[1], axis=1)
            z, _ = estimate_z(ens, k, y_head)
            assert np.array_equal(z, parent_reduce(ens, k, parent_z_targets(ens, k, y)))
            u, _ = estimate_u(ens, k, y_head)
            want_raw = parent_reduce(ens, k, parent_u_targets(ens, k, y))
            assert np.array_equal(u, parent_rebase(ens, k, want_raw))

    def test_driver_terms(self, mc, chain):
        spec, ens, y, z, u = mc
        for k in range(ens.n_steps):
            got = stacked_driver_terms(spec, self.LEVELS, ens, k, np.take(y, edge_ends(ens.step(k))[1], axis=1), z, u)
            for a, b in zip(got, parent_driver_terms(spec, self.LEVELS, ens, k, y, z, u)):
                assert np.array_equal(a, b)
        spec, ens = chain
        rng = np.random.default_rng(5)
        for k in (0, 3, ens.n_steps - 1):
            L, n = len(self.LEVELS), ens.chain.nodes[k].regime.size
            y = rng.normal(size=(L, ens.chain.nodes[k + 1].regime.size))
            z, u = rng.normal(size=(L, n, 1)), rng.normal(scale=0.5, size=(L, n, 3))
            got = stacked_driver_terms(spec, self.LEVELS, ens, k, np.take(y, edge_ends(ens.step(k))[1], axis=1), z, u)
            for a, b in zip(got, parent_driver_terms(spec, self.LEVELS, ens, k, y, z, u)):
                assert np.array_equal(a, b)

    def test_lattice_reduce(self, chain):
        _, ens = chain
        rng = np.random.default_rng(6)
        for k in (0, 3, ens.n_steps - 1):
            edges = ens.chain.edges[k].tail.size
            for shape in [(3, edges), (3, edges, 1), (3, edges, 3)]:
                values = rng.normal(size=shape)
                assert np.array_equal(_reduce(ens.step(k), values), parent_reduce(ens, k, values))


class TestLadderAndSkorohod:
    def test_single_entry_schedule(self):
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 16))
        cfg = SchemeConfig(h=1 / 16, paths=1, seed=0)
        report = penalization_ladder(spec, cfg, [0], chain)
        assert len(report.y0) == 1
        assert report.mean_violation[0] > 0  # raw constraint mass, unpenalized

    def test_schedule_validation(self):
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 16))
        cfg = SchemeConfig(h=1 / 16, paths=1, seed=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            penalization_ladder(spec, cfg, [1, 1], chain)
        with pytest.raises(ValueError, match="at least one"):
            penalization_ladder(spec, cfg, [], chain)
        # a fractional level is refused, not truncated
        with pytest.raises(ValueError, match="penalization level"):
            penalization_ladder(spec, cfg, [1.5, 2.9], chain)
        # numpy integer levels run as their values and are reported as plain ints
        report = penalization_ladder(spec, cfg, [np.int64(1), np.int64(4)], chain)
        assert report.to_dict() == penalization_ladder(spec, cfg, [1, 4], chain).to_dict()
        assert all(type(n) is int for n in report.n_schedule)

    def test_numpy_array_schedule(self):
        """A numpy array of levels runs as the same tuple does, and an empty one is refused as an empty list is."""
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 16))
        cfg = SchemeConfig(h=1 / 16, paths=1, seed=0)
        report = penalization_ladder(spec, cfg, np.array([1, 2, 4]), chain)
        assert report == penalization_ladder(spec, cfg, (1, 2, 4), chain)
        with pytest.raises(ValueError, match="at least one"):
            penalization_ladder(spec, cfg, np.array([], dtype=int), chain)

    def test_unbinding_costs_make_ladder_flat(self):
        spec = build_problem("switch2-linear", {"costs": [[0.0, 1e6], [1e6, 0.0]]})
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 16))
        cfg = SchemeConfig(h=1 / 16, paths=1, seed=0)
        report = penalization_ladder(spec, cfg, [1, 4, 16], chain)
        assert max(report.y0) - min(report.y0) <= 1e-8
        assert all(v == 0.0 for v in report.mean_violation)
        assert all(s == 0.0 for s in report.skorohod)

    def test_lattice_ladder_monotone(self):
        spec = build_problem("switch2-linear", {"sigma": [0.25, 0.25]})
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 96))
        cfg = SchemeConfig(h=1 / 96, paths=1, seed=0)
        report = penalization_ladder(spec, cfg, [1, 2, 4, 8, 16], chain)
        assert report.monotone
        assert all(report.violation_nonincreasing)
        assert abs(report.skorohod[-1]) < abs(report.skorohod[0])

    def test_skorohod_zero_without_penalty(self):
        spec = build_problem("switch2-linear")
        bundle = simulate_paths(spec, 400, 0.125, seed=4)
        cfg = SchemeConfig(h=0.125, n=0, paths=400, seed=4)
        result = solve_backward(spec, cfg, bundle)
        assert skorohod_residual(result) == 0.0

    @pytest.mark.parametrize("case", ["switch3-mc", "switch2-chain"])
    def test_skorohod_matches_two_pass_reference(self, case):
        if case == "switch3-mc":
            spec = build_problem("switch3")
            bundle = simulate_paths(spec, 5_000, 0.05, seed=7)
            cfg = SchemeConfig(h=0.05, n=16, paths=5_000, seed=7, clip_to_growth_bound=True)
        else:
            spec = build_problem("switch2-linear")
            bundle = build_lattice_chain(spec, LatticeSpec(h=1 / 48))
            cfg = SchemeConfig(h=1 / 48, n=8, paths=1, seed=0)
        result = solve_backward(spec, cfg, bundle, keep_steps=True)
        reference = two_pass_skorohod(result, spec, bundle)
        assert reference != 0.0
        assert skorohod_residual(result) == reference


def two_pass_skorohod(result, spec, bundle):
    """The residual recomputed after the solve, from the stored step arrays on a fresh ensemble."""
    ens = make_ensemble(spec, result.scheme, bundle)
    total = 0.0
    for k in range(ens.n_steps):
        pm = result.penalty_mass[k]
        if not np.any(pm):
            continue
        step = ens.step(k)
        tail, head, edge_prob = edge_ends(step)
        regimes, xs = step.regimes, step.xs
        if step.tail is None:  # kept arrays index paths: edge p is path p at both ends
            regimes, xs = bundle.nodes(k)
            tail = head = np.arange(regimes.size)
        r_tail = regimes[tail]
        # u is re-based, so column r of the value vector is Y_{k+1} itself
        values = result.ys[k + 1][head][:, None] + result.us[k][tail]
        minh = np.empty(tail.size)
        for r in np.unique(r_tail):
            rows = np.flatnonzero(r_tail == r)
            h = constraint_values(spec, int(r), xs[tail][rows], values[rows], result.zs[k][tail][rows])
            minh[rows] = h.min(axis=1)
        total += float(np.sum(step.weights[tail] * edge_prob * minh * pm[tail]))
    return total
