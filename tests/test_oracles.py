import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchbsde import (
    DivergenceError,
    LatticeSpec,
    SchemeConfig,
    build_lattice_chain,
    build_problem,
    default_grid,
    facelift_terminal,
    fd_solve,
    lattice_dp_solve,
    oracle_compare,
    simulate_paths,
    solve_backward,
)
from switchbsde.lattice import _ROUND_DECIMALS
from switchbsde.oracles import _implicit_penalty_update
from switchbsde.problem import CoefficientSet


class TestLatticeChain:
    def test_probabilities_sum_to_one(self):
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=0.125))
        for es in chain.edges:
            sums = np.zeros(int(es.tail.max()) + 1)
            np.add.at(sums, es.tail, es.prob)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_moments_match_brownian(self):
        spec = build_problem("bm1")
        chain = build_lattice_chain(spec, LatticeSpec(h=0.25))
        es = chain.edges[0]
        mean = float(np.sum(es.prob * es.dw[:, 0]))
        var = float(np.sum(es.prob * es.dw[:, 0] ** 2))
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(0.25, abs=1e-15)

    def test_mark_probability_matches_compensator(self):
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=0.125))
        es = chain.edges[0]
        lam = spec.intensity.weights
        for j in (1, 2):
            p = float(np.sum(es.prob * es.counts[:, j - 1]))
            assert p == pytest.approx(lam[j - 1] * chain.h, abs=1e-15)

    def test_step_too_coarse_rejected(self):
        spec = build_problem("switch2-linear")  # total intensity 3.0
        with pytest.raises(ValueError, match="refine the lattice step"):
            build_lattice_chain(spec, LatticeSpec(h=0.5))

    def test_cap_refused_with_size_report(self):
        spec = build_problem("switch2-linear")
        with pytest.raises(ValueError, match="exceeds the cap"):
            build_lattice_chain(spec, LatticeSpec(h=1 / 64, node_cap=100))

    @pytest.mark.parametrize("cap", [True, 2.5, "100", 0])
    def test_bad_cap_refused(self, cap):
        # True and 2.5 used to be reported as an exceeded cap after step 1, and "100" to raise a TypeError
        with pytest.raises(ValueError, match="lattice node_cap must be an integer >= 1"):
            build_lattice_chain(build_problem("switch2-linear"), LatticeSpec(h=0.125, node_cap=cap))

    def test_d1_only(self):
        import switchbsde.problem as pb

        coeffs = pb.CoefficientSet(
            drift=lambda i, x: np.zeros_like(x),
            vol=lambda i, x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
            driver=lambda i, x, v, z: np.zeros(x.shape[0]),
            constraint=lambda i, j, x, y, yt, z: np.asarray(y) - np.asarray(yt),
            terminal=lambda i, x: x[:, 0],
        )
        spec = pb.ProblemSpec(
            m=1, d=2, horizon=1.0, intensity=pb.IntensityMeasure([1.0]),
            coefficients=coeffs, initial_regime=1, initial_state=np.zeros(2),
        )
        with pytest.raises(ValueError, match="d = 1"):
            build_lattice_chain(spec, LatticeSpec(h=0.25))

    @pytest.mark.parametrize("h", [0.0, -0.125, float("nan"), float("inf")])
    def test_bad_step_refused(self, h):
        spec = build_problem("switch2-linear")
        with pytest.raises(ValueError, match="finite and positive"):
            build_lattice_chain(spec, LatticeSpec(h=h))

    @pytest.mark.parametrize("h", [0.3, 0.8, 2.0])
    def test_step_not_dividing_horizon_refused(self, h):
        spec = build_problem("switch2-linear")  # T = 0.5
        with pytest.raises(ValueError, match=f"^lattice step {h} does not divide horizon 0.5$"):
            build_lattice_chain(spec, LatticeSpec(h=h))

    @pytest.mark.parametrize("name", ["switch2-linear", "switch3"])
    def test_nodes_sorted_unique_and_heads_match(self, name):
        spec = build_problem(name)
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 32))  # reaches x = 0 from both sides
        for k, ns in enumerate(chain.nodes):
            r, x = ns.regime, ns.x[:, 0]
            assert np.all((r[1:] > r[:-1]) | ((r[1:] == r[:-1]) & (x[1:] > x[:-1])))
            assert not np.any(np.signbit(x) & (x == 0.0))
            assert abs(ns.mass.sum() - 1.0) <= 1e-12
            if k == chain.K:
                break
            es, nxt = chain.edges[k], chain.nodes[k + 1]
            tail_r, tail_x = r[es.tail], ns.x[es.tail]
            child_r = np.where(es.counts.any(axis=1), es.counts.argmax(axis=1) + 1, tail_r)
            child_x = np.empty(es.tail.size)
            for i in np.unique(tail_r):
                rows = tail_r == i
                b = spec.drift(int(i), tail_x[rows])[:, 0]
                s = spec.vol(int(i), tail_x[rows])[:, 0, 0]
                child_x[rows] = (tail_x[rows, 0] + b * chain.h) + s * es.dw[rows, 0]
            np.testing.assert_array_equal(nxt.regime[es.head], child_r)
            np.testing.assert_array_equal(nxt.x[es.head, 0], np.round(child_x, _ROUND_DECIMALS))

    @pytest.mark.parametrize("name", ["switch2-linear", "switch3", "bm1"])
    def test_footprint_matches_layout(self, name):
        """A step keeps 4 bytes per edge, a node 2 + 8 d + 8; the outcome table is kept once."""
        spec = build_problem(name)
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 32))
        table = chain.edges[0].outcomes
        assert all(es.outcomes is table for es in chain.edges)
        assert not any(a.flags.writeable for a in vars(table).values())
        P, d, m = 2 * (chain.m + 1), chain.d, chain.m
        for es, ns in zip(chain.edges, chain.nodes):
            assert es.head.size == P * ns.regime.size  # node-major, P out-edges per node
        E, N = sum(es.head.size for es in chain.edges), chain.size()
        held = sum(a.nbytes for es in chain.edges for a in vars(es).values() if isinstance(a, np.ndarray))
        held += sum(a.nbytes for a in vars(table).values())
        held += sum(a.nbytes for ns in chain.nodes for a in vars(ns).values())
        assert held == 4 * E + P * (8 + 8 * d + 2 * m) + (2 + 8 * d + 8) * N

    @pytest.mark.parametrize("name", ["switch2-linear", "switch3", "bm1"])
    def test_edge_arrays_expand_the_outcome_table(self, name):
        """``tail``, ``prob``, ``dw`` and ``counts`` equal per-edge arrays built outcome by outcome."""
        spec = build_problem(name)
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 32))
        m, h, lam = chain.m, chain.h, spec.intensity.weights
        for es, ns in zip(chain.edges, chain.nodes):
            n = ns.regime.size
            tail = np.repeat(np.arange(n), 2 * (m + 1))
            sign = np.tile(np.repeat([0, 1], m + 1), n)
            outcome = np.tile(np.arange(m + 1), 2 * n)  # 0 = no atom, j = mark j
            prob = np.where(outcome == 0, 1.0 - float(lam.sum()) * h, lam[np.maximum(outcome - 1, 0)] * h) * 0.5
            dw = np.where(sign == 0, np.sqrt(h), -np.sqrt(h))[:, None]
            counts = np.zeros((tail.size, m), dtype=np.int16)
            counts[np.flatnonzero(outcome), outcome[outcome > 0] - 1] = 1
            for got, want in [(es.tail, tail), (es.prob, prob), (es.dw, dw), (es.counts, counts)]:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert es.head.dtype == np.int32


def nan_terminal_spec(bounded: bool):
    """switch2-linear with a terminal that is nan for x > 0.5, with or without its growth bound."""
    spec = build_problem("switch2-linear")
    base = spec.coefficients
    coeffs = CoefficientSet(
        drift=base.drift,
        vol=base.vol,
        driver=base.driver,
        constraint=base.constraint,
        terminal=lambda i, x: np.where(x[:, 0] > 0.5, np.nan, x[:, 0]),
    )
    object.__setattr__(spec, "coefficients", coeffs)
    if not bounded:
        object.__setattr__(spec, "growth_bound", None)
    return spec


class TestLatticeDp:
    def test_single_successor_chain(self):
        # zero vol, unit drift: one deterministic successor per step
        spec = build_problem("bm1", {"sigma": [0.0], "drift": [1.0], "x0": [0.2], "T": 0.25})
        sol = lattice_dp_solve(spec, LatticeSpec(h=0.25), n=0)
        assert sol.chain.nodes[1].regime.size == 1
        assert sol.y0 == pytest.approx(0.2 + 0.25, abs=1e-14)

    def test_two_point_martingale(self):
        spec = build_problem("bm1", {"x0": [0.7], "T": 0.5})
        sol = lattice_dp_solve(spec, LatticeSpec(h=0.25), n=0)
        assert sol.y0 == pytest.approx(0.7, abs=1e-14)

    def test_matches_backward_solver_exactly(self):
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=0.05))
        dp = lattice_dp_solve(spec, chain, n=8)
        res = solve_backward(spec, SchemeConfig(h=0.05, n=8, paths=1, seed=0), chain, keep_steps=True)
        assert abs(dp.y0 - res.y0) <= 1e-12
        for k in range(chain.K):
            assert np.max(np.abs(dp.z[k] - res.zs[k])) <= 1e-12
            assert np.max(np.abs(dp.u[k] - res.us[k])) <= 1e-12
            assert np.max(np.abs(dp.values[k] - res.ys[k])) <= 1e-12

    def test_jump_offset_identity(self):
        spec = build_problem("switch2-linear")
        dp = lattice_dp_solve(spec, LatticeSpec(h=0.05), n=4)
        for k in range(dp.chain.K):
            regimes = dp.chain.nodes[k].regime
            own = dp.proxies[k][np.arange(regimes.size), regimes - 1]
            identity = dp.proxies[k] - own[:, None]
            assert np.max(np.abs(dp.u[k] - identity)) <= 1e-10

    def test_converges_to_closed_form_penalized_value(self):
        # equal vols and a linear payoff reduce the penalized system to a
        # scalar integration: from the worse regime the gap to the better
        # one relaxes at rate n * lam toward (reward spread)/(n * lam)
        spec = build_problem("switch2-linear", {"sigma": [0.25, 0.25]})
        T, cost, spread, lam1 = 0.5, 0.1, 1.0, 1.5
        tau_c = cost / spread
        n = 4
        relax = (spread / (n * lam1)) * (1.0 - np.exp(-n * lam1 * (T - tau_c)))
        exact = 0.5 * T - cost - relax
        gaps = []
        for h in (1 / 48, 1 / 96):
            sol = lattice_dp_solve(spec, LatticeSpec(h=h), n=n)
            gaps.append(abs(sol.y0 - exact))
        assert gaps[0] <= 0.2 * (1 / 48)  # first order in the step
        assert gaps[1] <= 0.65 * gaps[0]  # and halving with it

    def test_three_regime_dual_equality(self):
        spec = build_problem("switch3")
        chain = build_lattice_chain(spec, LatticeSpec(h=1 / 16))
        dp = lattice_dp_solve(spec, chain, n=6)
        res = solve_backward(spec, SchemeConfig(h=1 / 16, n=6, paths=1, seed=0), chain, keep_steps=True)
        assert abs(dp.y0 - res.y0) <= 1e-12
        for k in range(chain.K):
            assert np.max(np.abs(dp.z[k] - res.zs[k])) <= 1e-12
            assert np.max(np.abs(dp.u[k] - res.us[k])) <= 1e-12

    def test_growth_bound_divergence_matches_backward_solver(self):
        # n * Lambda * h = 61: the explicit penalty step runs away (y0 ~ 1e26 unguarded)
        spec = build_problem("switch2-linear")
        chain = build_lattice_chain(spec, LatticeSpec(h=0.02))
        with pytest.raises(DivergenceError, match="growth bound at step 17"):
            lattice_dp_solve(spec, chain, n=1024)
        with pytest.raises(DivergenceError, match="growth bound at step 17"):
            solve_backward(spec, SchemeConfig(h=0.02, n=1024, paths=1, seed=0), chain)

    @pytest.mark.parametrize("bounded", [True, False])
    def test_non_finite_value_raises_as_the_backward_solver_does(self, bounded):
        # the FD case's terminal: nan for x > 0.5; the DP used to return y0 = nan
        spec = nan_terminal_spec(bounded)
        chain = build_lattice_chain(spec, LatticeSpec(h=0.05))
        with pytest.raises(DivergenceError, match="non-finite DP value at step 9"):
            lattice_dp_solve(spec, chain, n=4)
        with pytest.raises(DivergenceError, match="non-finite target for z at step 9"):
            solve_backward(spec, SchemeConfig(h=0.05, n=4, paths=1, seed=0), chain)

    @pytest.mark.parametrize("n", [-1, 1.5, True])
    def test_bad_level_refused(self, n):
        spec = build_problem("switch2-linear")
        with pytest.raises(ValueError, match="penalization level must be a nonnegative integer"):
            lattice_dp_solve(spec, LatticeSpec(h=0.125), n=n)
        with pytest.raises(ValueError, match="penalization level must be a nonnegative integer"):
            SchemeConfig(h=0.125, n=n)

    def test_chain_of_another_horizon_refused(self):
        chain = build_lattice_chain(build_problem("switch2-linear", {"T": 1.0}), LatticeSpec(h=0.125))
        spec = build_problem("switch2-linear", {"T": 0.5})
        with pytest.raises(ValueError, match="chain horizon does not match the problem"):
            lattice_dp_solve(spec, chain, n=4)

    def test_chain_of_another_shape_refused(self):
        chain = build_lattice_chain(build_problem("switch2-linear"), LatticeSpec(h=0.125))
        with pytest.raises(ValueError, match="chain was built from a different problem shape"):
            lattice_dp_solve(build_problem("switch3"), chain, n=4)

    def test_oracle_sized_dp_stays_inside_growth_bound(self):
        spec = build_problem("switch2-linear", {"sigma": [0.25, 0.25], "T": 1.0})
        sol = lattice_dp_solve(spec, LatticeSpec(h=1 / 192), n=64)
        # the largest |v| / (c0 + c1 |x|) over the chain is 1.65, far from the guard's 10
        ratio = max(np.max(np.abs(v) / spec.growth_radius(ns.x)) for ns, v in zip(sol.chain.nodes, sol.values))
        assert ratio < 2.0
        assert abs(sol.y0 - 0.4) <= 0.02


def quad_grid(spec, M=400):
    return (M, -4.0, 4.0) if float(spec.initial_state[0]) == 0.0 else (M, -4.0 + 0.7, 4.0 + 0.7)


class TestFdSolve:
    def test_linear_payoff_is_harmonic(self):
        spec = build_problem("bm1")
        sol = fd_solve(spec, (400, 0.7 - 4.0, 0.7 + 4.0), 1e-3)
        assert np.max(np.abs(sol.values[0, 0] - sol.xs)) <= 1e-3

    def test_quadratic_solution_exact(self):
        spec = build_problem("bm1-quad")
        sol = fd_solve(spec, (400, -4.0, 4.0), 1e-3)
        truth = sol.xs**2 + 1.0
        assert np.max(np.abs(sol.values[0, 0] - truth)) <= 1e-3

    def test_terminal_stored_facelifted(self):
        spec = build_problem("switch2-linear", {"rewards": [0.0, 0.0]})
        # force a terminal gap: regime 2 pays x + 0.3 via a shifted terminal
        import switchbsde.problem as pb

        base = spec.coefficients
        coeffs = pb.CoefficientSet(
            drift=base.drift,
            vol=base.vol,
            driver=base.driver,
            constraint=base.constraint,
            terminal=lambda i, x: x[:, 0] + (0.3 if i == 2 else 0.0),
        )
        object.__setattr__(spec, "coefficients", coeffs)
        sol = fd_solve(spec, (50, -1.0, 1.0), 1e-3)
        # lifted regime-1 terminal = max(x, x + 0.3 - 0.1)
        np.testing.assert_allclose(sol.values[0, -1], sol.xs + 0.2, atol=1e-12)
        np.testing.assert_allclose(sol.values[1, -1], sol.xs + 0.3, atol=1e-12)

    def test_projection_matches_analytic_switch2(self):
        spec = build_problem("switch2-linear")
        sol = fd_solve(spec, (400, -1.2, 1.2), 1e-3, mode="projection")
        T = spec.horizon
        np.testing.assert_allclose(sol.values[0, 0], sol.xs + 0.5 * T, atol=1e-9)
        np.testing.assert_allclose(sol.values[1, 0], sol.xs + 0.5 * T - 0.1, atol=1e-9)

    def test_obstacle_respected_after_projection(self):
        spec = build_problem("switch2-linear")
        sol = fd_solve(spec, (200, -1.0, 1.0), 1e-3, mode="projection")
        c = spec.switching_costs.costs
        for kt in range(sol.times.size):
            for i in (1, 2):
                j = 3 - i
                assert np.all(
                    sol.values[i - 1, kt] >= sol.values[j - 1, kt] - c[i - 1, j - 1] - 1e-10
                )

    def test_penalized_converges_to_projection(self):
        spec = build_problem("switch2-linear")
        grid = (400, -1.2, 1.2)
        proj = fd_solve(spec, grid, 1e-3, mode="projection")
        pen = fd_solve(spec, grid, 1e-3, mode="penalized", penalization=256)
        assert np.max(np.abs(pen.values - proj.values)) <= 1e-2

    def test_penalized_monotone_in_level(self):
        spec = build_problem("switch2-linear")
        grid = (100, -1.0, 1.0)
        prev = None
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            sol = fd_solve(spec, grid, 1e-3, mode="penalized", penalization=n)
            if prev is not None:
                assert np.all(sol.values >= prev - 1e-12)
            prev = sol.values

    def test_three_regime_projection_matches_analytic(self):
        # from the best-reward regime the value is the plain accrual; from
        # the worst one it pays the direct switching cost immediately
        spec = build_problem("switch3")
        sol = fd_solve(spec, default_grid(spec, 200), 1e-3, mode="projection")
        T = spec.horizon
        assert sol.value_at(0.0, 1, 0.0) == pytest.approx(1.0 * T, abs=1e-6)
        assert sol.value_at(0.0, 3, 0.0) == pytest.approx(max(0.1 * T, 1.0 * T - 0.2, 0.55 * T - 0.15), abs=1e-6)
        pen = fd_solve(spec, default_grid(spec, 200), 1e-3, mode="penalized", penalization=256)
        assert np.max(np.abs(pen.values - sol.values)) <= 1e-2

    def test_prohibitive_costs_decouple(self):
        spec = build_problem("switch2-linear", {"costs": [[0.0, 1e6], [1e6, 0.0]]})
        grid = (200, -1.0, 1.0)
        coupled = fd_solve(spec, grid, 1e-3, mode="projection")
        for i, (sig, rew) in enumerate([(0.2, 0.5), (0.3, -0.5)], start=1):
            single = build_problem(
                "bm1", {"sigma": [sig], "rewards": [rew], "x0": [0.0], "T": spec.horizon}
            )
            alone = fd_solve(single, grid, 1e-3)
            assert np.max(np.abs(coupled.values[i - 1] - alone.values[0])) <= 1e-8

    def test_shared_stencil_solves_as_separate_regimes(self):
        # equal drifts and vols: both regimes are solved in one batch;
        # prohibitive costs decouple them, so each regime must equal its own
        # single-regime solve bit for bit
        over = {"sigma": [0.25, 0.25], "drift": [0.3, 0.3], "costs": [[0.0, 1e6], [1e6, 0.0]]}
        spec = build_problem("switch2-linear", over)
        grid = (200, -1.0, 1.0)
        coupled = fd_solve(spec, grid, 1e-3, mode="projection")
        for i, rew in enumerate([0.5, -0.5], start=1):
            single = build_problem(
                "bm1", {"sigma": [0.25], "drift": [0.3], "rewards": [rew], "x0": [0.0], "T": spec.horizon}
            )
            alone = fd_solve(single, grid, 1e-3)
            np.testing.assert_array_equal(coupled.values[i - 1], alone.values[0])

    def test_requires_switching_form(self):
        spec = build_problem("bm1")
        object.__setattr__(spec, "switching_costs", None)
        with pytest.raises(ValueError, match="switching-form"):
            fd_solve(spec, (50, -1, 1), 1e-3)

    def test_penalized_needs_level(self):
        spec = build_problem("switch2-linear")
        with pytest.raises(ValueError, match="penalization level"):
            fd_solve(spec, (50, -1, 1), 1e-3, mode="penalized")

    def test_projection_takes_no_level(self):
        # the level used to be accepted and dropped
        with pytest.raises(ValueError, match="projection mode takes no penalization level"):
            fd_solve(build_problem("switch2-linear"), (50, -1.0, 1.0), 1e-2, mode="projection", penalization=7)

    @pytest.mark.parametrize("level", [2.5, 4.0, True, -1, "4"])
    def test_bad_level_refused(self, level):
        spec = build_problem("switch2-linear")
        with pytest.raises(ValueError, match="penalization level must be a nonnegative integer"):
            fd_solve(spec, (50, -1.0, 1.0), 1e-2, mode="penalized", penalization=level)

    @pytest.mark.parametrize("level", [0, 4, np.int64(4)])
    def test_integer_level_accepted(self, level):
        spec = build_problem("switch2-linear")
        sol = fd_solve(spec, (50, -1.0, 1.0), 1e-1, mode="penalized", penalization=level)
        assert sol.penalization == level

    @pytest.mark.parametrize("M", [50.5, 50.0, True])
    def test_bad_node_count_refused(self, M):
        spec = build_problem("switch2-linear")
        with pytest.raises(ValueError, match="grid node count M must be a nonnegative integer"):
            fd_solve(spec, (M, -1.0, 1.0), 1e-2)

    @pytest.mark.parametrize("x_min, x_max", [(-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0), (1.0, -1.0)])
    def test_bad_grid_bounds_refused(self, x_min, x_max):
        spec = build_problem("switch2-linear")
        with pytest.raises(ValueError, match="finite x_min < x_max"):
            fd_solve(spec, (50, x_min, x_max), 1e-2)

    def test_growth_bound_divergence(self):
        spec = build_problem("switch2-linear", {"growth_bound": [0.0, 0.001]})
        with pytest.raises(DivergenceError, match="exceeded 10x the growth bound at t-step 4"):
            fd_solve(spec, (50, -1.0, 1.0), 1e-1)

    @pytest.mark.parametrize("bounded", [True, False])
    def test_non_finite_divergence(self, bounded):
        with pytest.raises(DivergenceError, match="became non-finite at t-step 4"):
            fd_solve(nan_terminal_spec(bounded), (50, -1.0, 1.0), 1e-1)


def dense_cn_system(spec, xs: np.ndarray, dt: float, i: int = 1):
    """``I - dt/2 G``, ``I + dt/2 G`` and ``dt f`` of regime i, dense."""
    M = xs.size - 1
    dx = xs[1] - xs[0]
    x2d = xs[:, None]
    drift = np.asarray(spec.drift(i, x2d), dtype=float)[:, 0]
    diff2 = np.asarray(spec.vol(i, x2d), dtype=float)[:, 0, 0] ** 2
    source = np.asarray(spec.driver(i, x2d, np.zeros((M + 1, spec.m)), np.zeros((M + 1, 1))), dtype=float)
    G = np.zeros((M + 1, M + 1))
    for r in range(M + 1):
        c = min(max(r - 1, 0), M - 2)
        first = [-3.0, 4.0, -1.0] if r == 0 else [1.0, -4.0, 3.0] if r == M else [-1.0, 0.0, 1.0]
        G[r, c : c + 3] = diff2[r] / 2 * np.array([1.0, -2.0, 1.0]) / dx**2 + drift[r] * np.array(first) / (2 * dx)
    eye = np.eye(M + 1)
    return eye - dt / 2 * G, eye + dt / 2 * G, dt * source


DECOUPLED_3 = [[0.0, 1e6, 1e6], [1e6, 0.0, 1e6], [1e6, 1e6, 0.0]]


class TestCrankNicolsonStep:
    # problem, overrides, grid, and entries (row, column) of I - dt/2 G that
    # the case needs zero and non-zero; the end rows reach two nodes away
    CASES = {
        "drifted": ("bm1", {"sigma": [0.6], "drift": [0.8]}, (60, -1.0, 1.0), [], [(0, 2), (1, 2), (60, 58), (59, 58)]),
        # the oracles workload's grid and step: row 0's diagonal is 1 - 1.25
        "negative-diagonal": ("bm1", {"sigma": [0.25]}, (800, -1.0, 1.0), [], [(0, 2), (1, 2), (800, 798), (799, 798)]),
        # drift -sigma^2/dx: row 1 has no entry at node 2, row M none at node M - 2
        "row-1-divisor-zero": ("bm1", {"sigma": [0.5], "drift": [-1.0]}, (8, -1.0, 1.0), [(1, 2), (8, 6)], [(0, 2)]),
        "row-M-1-divisor-zero": ("bm1", {"sigma": [0.5], "drift": [1.0]}, (8, -1.0, 1.0), [(7, 6), (0, 2)], [(8, 6)]),
        # zero vol and drift: the matrix is I
        "identity": ("bm1", {"sigma": [0.0], "drift": [0.0]}, (50, -1.0, 1.0), [(0, 2), (1, 2), (50, 48), (49, 48)], []),
        # three regimes, three stencils, one batch; prohibitive costs keep the
        # projection from moving the values
        "three-stencils": (
            "switch3",
            {"sigma": [0.2, 0.5, 0.9], "drift": [0.0, 0.6, -1.5], "costs": DECOUPLED_3},
            (60, -1.0, 1.0),
            [],
            [(0, 2), (60, 58)],
        ),
        # cell Peclet number |b| dx / sigma^2 = 2000: the interior rows are
        # not diagonally dominant
        "peclet-above-one": ("bm1", {"sigma": [0.1], "drift": [400.0]}, (40, -1.0, 1.0), [], [(0, 2), (40, 38)]),
        # node counts whose last block of ceil(sqrt(M + 1)) nodes would be
        # shorter than the end row's three nodes
        "five-nodes": ("bm1", {"sigma": [0.6], "drift": [0.8]}, (4, -1.0, 1.0), [], [(0, 2), (4, 2)]),
        "prime-node-count": ("bm1", {"sigma": [0.6], "drift": [0.8]}, (100, -1.0, 1.0), [], [(0, 2), (100, 98)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_step_matches_dense_solve(self, case):
        import switchbsde.problem as pb

        name, over, grid, zero, nonzero = self.CASES[case]
        dt = 5e-4
        m = len(over["sigma"])
        spec = build_problem(name, {**over, "rewards": [0.3, -0.2, 0.1][:m], "T": dt})
        base = spec.coefficients
        coeffs = pb.CoefficientSet(
            drift=base.drift,
            vol=base.vol,
            driver=base.driver,
            constraint=base.constraint,
            terminal=lambda i, x: np.sin(3.0 * x[:, 0]) + x[:, 0] ** 2 + 0.1 * i,
        )
        object.__setattr__(spec, "coefficients", coeffs)
        sol = fd_solve(spec, grid, dt)
        for i in range(1, m + 1):
            lhs, rhs, dt_source = dense_cn_system(spec, sol.xs, dt, i)
            assert all(lhs[rc] == 0.0 for rc in zero) and all(lhs[rc] != 0.0 for rc in nonzero)
            if case == "negative-diagonal":
                assert lhs[0, 0] == pytest.approx(-0.25)
            if case == "peclet-above-one":
                diag = np.abs(np.diag(lhs))[1:-1]
                assert np.all(diag < np.abs(lhs).sum(axis=1)[1:-1] - diag)
            expected = np.linalg.solve(lhs, rhs @ sol.values[i - 1, 1] + dt_source)
            np.testing.assert_allclose(sol.values[i - 1, 0], expected, rtol=0.0, atol=1e-13)

    def test_zero_vol_zero_drift_keeps_terminal_data(self):
        # the matrix is the identity: the values stay the (linear) terminal
        # data at every step
        spec = build_problem("bm1", {"sigma": [0.0], "drift": [0.0]})
        sol = fd_solve(spec, (50, -1.0, 1.0), 1e-2)
        np.testing.assert_array_equal(sol.values[0], np.broadcast_to(sol.xs, sol.values[0].shape))


# Crank-Nicolson values recorded (repr) before the stencil was factored once
# per regime; they guard the banded solve and the one-sided boundary rows.
FD_PINS = {
    ("switch3", "projection", None): (
        [
            [0.5000000000000006, 1.0999999999999988, 1.6999999999999968],
            [0.38000000000000056, 0.9799999999999989, 1.5799999999999967],
            [0.3000000000000005, 0.8999999999999989, 1.499999999999997],
        ],
        2.1999999999999416,
    ),
    ("switch3", "penalized", 16): (
        [
            [0.5000000000000006, 1.0999999999999988, 1.6999999999999968],
            [0.3518755287107708, 0.951875528710769, 1.5518755287107677],
            [0.24375054647811029, 0.8437505464781088, 1.4437505464781064],
        ],
        2.1999999999999416,
    ),
}


# Both regimes of this problem share one stencil;
# values at nodes 0, 25, 50, 75, 100 (both one-sided end rows included) at
# t-steps 0 and 50, recorded (repr) before shared stencils were solved together.
SHARED_STENCIL_PINS = {
    ("projection", None): {
        0: [
            [-0.5000000000001715, 4.873017641227163e-16, 0.49999999999999994, 0.9999999999999972, 1.5000000000000844],
            [-0.6000000000001715, -0.09999999999999952, 0.3999999999999999, 0.8999999999999972, 1.4000000000000843],
        ],
        50: [
            [-0.7500000000000699, -0.2499999999999988, 0.25, 0.7499999999999996, 1.2500000000000262],
            [-0.8500000000000699, -0.3499999999999988, 0.15, 0.6499999999999996, 1.1500000000000261],
        ],
    },
    ("penalized", 64): {
        0: [
            [-0.5000000000001715, 4.873017641227163e-16, 0.49999999999999994, 0.9999999999999972, 1.5000000000000844],
            [-0.6104166666668384, -0.11041666666666619, 0.3895833333333333, 0.8895833333333306, 1.389583333333418],
        ],
        50: [
            [-0.7500000000000699, -0.2499999999999988, 0.25, 0.7499999999999996, 1.2500000000000262],
            [-0.8604166666667158, -0.36041666666664424, 0.13958333333335457, 0.6395833333333542, 1.1395833333333811],
        ],
    },
}


class TestFdPinned:
    @pytest.mark.parametrize("key", sorted(SHARED_STENCIL_PINS, key=str))
    def test_shared_stencil_switch2_values(self, key):
        mode, n = key
        spec = build_problem("switch2-linear", {"sigma": [0.25, 0.25], "T": 1.0})
        sol = fd_solve(spec, default_grid(spec, 100), 1e-2, mode=mode, penalization=n)
        for kt, rows in SHARED_STENCIL_PINS[key].items():
            np.testing.assert_allclose(sol.values[:, kt, ::25], rows, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("key", sorted(FD_PINS, key=str))
    def test_switch3_values(self, key):
        name, mode, n = key
        spec = build_problem(name)
        sol = fd_solve(spec, default_grid(spec, 100), 1e-2, mode=mode, penalization=n)
        rows, top = FD_PINS[key]
        got = [[sol.value_at(0.0, i, x) for x in (-0.5, 0.1, 0.7)] for i in (1, 2, 3)]
        np.testing.assert_allclose(got, rows, rtol=0.0, atol=1e-10)
        assert float(sol.values[:, 0].max()) == pytest.approx(top, abs=1e-10)

    def test_bm1_quad_values(self):
        sol = fd_solve(build_problem("bm1-quad"), (100, -4.0, 4.0), 1e-2)
        got = [sol.value_at(0.0, 1, x) for x in (-3.0, 0.25, 2.0)]
        pinned = [10.001600000000323, 1.0631999999999915, 4.999999999999982]
        np.testing.assert_allclose(got, pinned, rtol=0.0, atol=1e-10)
        assert float(sol.values[:, 0].max()) == pytest.approx(17.000000000003595, abs=1e-10)


class TestFacelift:
    def test_single_sweep_values(self):
        costs = np.array([[0.0, 0.1], [0.1, 0.0]])
        g = np.array([[0.0, 0.0], [0.5, -0.3]])
        lifted = facelift_terminal(g, costs)
        np.testing.assert_allclose(lifted[0], [0.4, 0.0])
        np.testing.assert_allclose(lifted[1], [0.5, -0.1])

    @settings(max_examples=50, deadline=None)
    @given(
        c12=st.floats(0.05, 1.0),
        c13=st.floats(0.05, 1.0),
        c23=st.floats(0.05, 1.0),
        g=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    )
    def test_idempotent_under_triangle(self, c12, c13, c23, g):
        costs = np.array([[0.0, c12, c13], [c12, 0.0, c23], [c13, c23, 0.0]])
        # symmetrized costs satisfy the strict triangle unless degenerate
        for i, j, k in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
            if not costs[i, j] < costs[i, k] + costs[k, j]:
                return
        gvals = np.asarray(g, dtype=float)[:, None]
        once = facelift_terminal(gvals, costs)
        twice = facelift_terminal(once, costs)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_pairwise_sweep_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        costs = rng.uniform(0.05, 0.5, (m, m))
        np.fill_diagonal(costs, 0.0)
        g = rng.normal(scale=0.3, size=(m, 500))
        lifted = g.copy()
        for i in range(m):
            for j in range(m):
                if j != i:
                    lifted[i] = np.maximum(lifted[i], g[j] - costs[i, j])
        assert facelift_terminal(g, costs).tobytes() == lifted.tobytes()


def penalty_update_per_call(vhat, costs, lam, n, dt):
    """The implicit penalty update with its index and cost gathers built per call."""
    m = vhat.shape[0]
    a = dt * float(n)
    others = np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)
    obstacles = vhat[others] - costs[np.arange(m)[:, None], others][..., None]
    weights = lam[others][..., None]
    if m > 2:
        order = np.argsort(-obstacles, axis=1)
        obstacles = np.take_along_axis(obstacles, order, axis=1)
        weights = lam[np.take_along_axis(others[..., None], order, axis=1)]
    v = vhat.copy()
    lam_cum = weighted_cum = 0.0
    for q in range(m - 1):
        lam_cum = lam_cum + weights[:, q]
        weighted_cum = weighted_cum + weights[:, q] * obstacles[:, q]
        np.maximum(v, (vhat + a * weighted_cum) / (1.0 + a * lam_cum), out=v)
    return v


class TestImplicitPenaltyUpdate:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [0, 4, 256])
    def test_matches_per_call_formula_bit_for_bit(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        costs = rng.uniform(0.05, 0.5, (m, m))
        np.fill_diagonal(costs, 0.0)
        lam = rng.uniform(0.5, 2.0, m)
        update = _implicit_penalty_update(costs, lam, n, 5e-3)
        for _ in range(3):  # the gathers built once serve every step
            vhat = rng.normal(scale=0.3, size=(m, 500))
            expected = penalty_update_per_call(vhat, costs, lam, n, 5e-3)
            assert update(vhat).tobytes() == expected.tobytes()


class TestOracleCompare:
    def test_self_gap_zero(self):
        spec = build_problem("switch2-linear")
        sol = fd_solve(spec, (100, -1.0, 1.0), 1e-3)
        value = sol.value_at(0.0, 2, 0.0)
        report = oracle_compare(value, sol, (0.0, 2, 0.0))
        assert report.abs_gap == 0.0

    def test_bm1_cross_engine(self):
        spec = build_problem("bm1")
        bundle = simulate_paths(spec, 10_000, 0.05, seed=21)
        result = solve_backward(spec, SchemeConfig(h=0.05, paths=10_000, seed=21), bundle)
        sol = fd_solve(spec, (400, 0.7 - 4.0, 0.7 + 4.0), 1e-3)
        report = oracle_compare(result, sol, (0.0, 1, 0.7))
        se = float(np.std(bundle.x_T[:, 0]) / np.sqrt(bundle.N))
        assert report.abs_gap <= 3 * se + 2e-3

    @pytest.mark.parametrize("regime", [0, -1, 3, True, 1.5])
    def test_regime_outside_range_refused(self, regime):
        # 0 and -1 used to read the last and first regimes' sheets, True regime 1's, and 1.5 an IndexError
        spec = build_problem("switch2-linear")
        sol = fd_solve(spec, (100, -1.2, 1.2), 5e-3)
        with pytest.raises(ValueError, match="regime index"):
            sol.value_at(0.0, regime, 0.0)
        with pytest.raises(ValueError, match="regime index"):
            oracle_compare(0.1, sol, (0.0, regime, 0.0))
        assert oracle_compare(0.1, sol, (0.0, 2, 0.0)).oracle_value == sol.value_at(0.0, 2, 0.0)

    def test_extrapolation_refused(self):
        spec = build_problem("switch2-linear")
        sol = fd_solve(spec, (50, -1.0, 1.0), 1e-3)
        with pytest.raises(ValueError, match="extrapolation refused"):
            oracle_compare(0.0, sol, (0.0, 1, 5.0))
        with pytest.raises(ValueError, match="not on the oracle grid"):
            oracle_compare(0.0, sol, (0.12345e-4 + 0.5e-3, 1, 0.0))
