import numpy as np
import pytest

from switchbsde import (
    IntensityMeasure,
    MarkedPoissonPath,
    bundle_from_paths,
    build_problem,
    compensated_increment,
    sample_jump_marks,
    simulate_paths,
    simulate_regime_path,
)
from switchbsde.forward import _euler_step, make_time_grid
from switchbsde.problem import CoefficientSet, ProblemSpec


def diffusion_spec(drift_fn, vol_fn, d=1, intensity=(0.0,), x0=0.0, T=1.0):
    """Single-regime d-dimensional problem with custom dynamics."""
    coeffs = CoefficientSet(
        drift=drift_fn,
        vol=vol_fn,
        driver=lambda i, x, values, z: np.zeros(x.shape[0]),
        constraint=lambda i, j, x, y, yt, z: np.asarray(y) - np.asarray(yt),
        terminal=lambda i, x: np.asarray(x)[:, 0],
    )
    return ProblemSpec(
        m=len(intensity),
        d=d,
        horizon=T,
        intensity=IntensityMeasure(intensity),
        coefficients=coeffs,
        initial_regime=1,
        initial_state=np.full(d, x0),
    )


class TestSampleJumpMarks:
    def test_zero_intensity_gives_empty_path(self):
        path = sample_jump_marks(IntensityMeasure([0.0, 0.0]), 1.0, np.random.default_rng(0))
        assert path.times.size == 0

    def test_poisson_count_mean(self):
        lam = IntensityMeasure([2.0, 3.0])
        rng = np.random.default_rng(123)
        counts = np.array([sample_jump_marks(lam, 1.0, rng).times.size for _ in range(100_000)])
        band = 3.0 * np.sqrt(5.0 / 100_000)
        assert abs(counts.mean() - 5.0) <= band

    def test_mark_frequencies(self):
        lam = IntensityMeasure([2.0, 3.0])
        rng = np.random.default_rng(7)
        marks = np.concatenate([sample_jump_marks(lam, 1.0, rng).marks for _ in range(20_000)])
        freq2 = np.mean(marks == 2)
        band = 3.0 * np.sqrt(0.6 * 0.4 / marks.size)
        assert abs(freq2 - 0.6) <= band

    def test_times_sorted_in_horizon(self):
        lam = IntensityMeasure([5.0])
        path = sample_jump_marks(lam, 2.0, np.random.default_rng(5))
        assert np.all(np.diff(path.times) > 0)
        assert path.times[0] > 0 and path.times[-1] <= 2.0


class TestMarkedPoissonPath:
    def test_rejects_unsorted_or_nonpositive_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MarkedPoissonPath(np.array([0.5, 0.2]), np.array([1, 1]))
        with pytest.raises(ValueError, match="strictly increasing"):
            MarkedPoissonPath(np.array([0.0, 0.2]), np.array([1, 1]))

    def test_count_in_half_open_interval(self):
        path = MarkedPoissonPath(np.array([0.2, 0.5, 0.5001]), np.array([1, 2, 1]))
        assert path.count_in(0.2, 0.5, 2) == 1  # left end excluded, right included
        assert path.count_in(0.2, 0.5, 1) == 0


class TestRegimePath:
    def test_empty_marks_constant(self):
        path = simulate_regime_path(3, MarkedPoissonPath(np.empty(0), np.empty(0, dtype=int)))
        assert path.value_at(0.0) == 3
        assert path.value_at(0.99) == 3

    def test_self_marks_change_nothing(self):
        marks = MarkedPoissonPath(np.array([0.3, 0.7]), np.array([2, 2]))
        path = simulate_regime_path(2, marks)
        assert [path.value_at(t) for t in (0.0, 0.5, 0.9)] == [2, 2, 2]

    def test_switching_path(self):
        marks = MarkedPoissonPath(np.array([0.3, 0.7]), np.array([2, 1]))
        path = simulate_regime_path(1, marks)
        assert path.value_at(0.0) == 1
        assert path.value_at(0.3) == 2  # right-continuous at the atom
        assert path.value_at(0.5) == 2
        assert path.value_at(0.7) == 1
        assert path.value_at(1.0) == 1


class TestCompensatedIncrement:
    def test_no_atoms(self):
        lam = IntensityMeasure([1.0, 2.0])
        marks = MarkedPoissonPath(np.empty(0), np.empty(0, dtype=int))
        assert compensated_increment(marks, 0.0, 0.1, 2, lam) == pytest.approx(-0.2)

    def test_one_atom(self):
        lam = IntensityMeasure([1.0, 2.0])
        marks = MarkedPoissonPath(np.array([0.05]), np.array([2]))
        assert compensated_increment(marks, 0.0, 0.1, 2, lam) == pytest.approx(0.8)

    def test_self_marks_are_counted(self):
        lam = IntensityMeasure([2.0])
        marks = MarkedPoissonPath(np.array([0.5]), np.array([1]))
        assert compensated_increment(marks, 0.0, 1.0, 1, lam) == pytest.approx(1.0 - 2.0)

    def test_martingale_mean(self):
        lam = IntensityMeasure([2.0, 3.0])
        rng = np.random.default_rng(17)
        vals = np.array(
            [compensated_increment(sample_jump_marks(lam, 1.0, rng), 0.0, 1.0, 1, lam) for _ in range(100_000)]
        )
        band = 3.0 * vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean()) <= band


class TestSimulatePaths:
    def test_degenerate_dynamics_freeze_state(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.zeros_like(x),
            vol_fn=lambda i, x: np.zeros((x.shape[0], 1, 1)),
            intensity=(1.0,),
            x0=0.4,
        )
        b = simulate_paths(spec, 20, 0.25, seed=0)
        assert np.all(b.x == 0.4)

    def test_unit_drift_exact(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.ones_like(x),
            vol_fn=lambda i, x: np.zeros((x.shape[0], 1, 1)),
            intensity=(0.0,),
            x0=0.25,
        )
        b = simulate_paths(spec, 5, 0.2, seed=1)
        np.testing.assert_allclose(b.x_reg[:, -1, 0], 1.25, atol=1e-12)

    def test_terminal_variance(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.zeros_like(x),
            vol_fn=lambda i, x: np.ones((x.shape[0], 1, 1)),
            intensity=(0.0,),
        )
        b = simulate_paths(spec, 100_000, 0.25, seed=11)
        xT = b.x_reg[:, -1, 0]
        var = xT.var()
        band = 3.0 * np.sqrt(2.0 / xT.size)  # var of chi2-normalized estimate
        assert abs(var - 1.0) <= band

    def test_reproducible_given_seed(self):
        spec = build_problem("switch2-linear")
        a = simulate_paths(spec, 64, 0.1, seed=99)
        b = simulate_paths(spec, 64, 0.1, seed=99)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.dw, b.dw)
        np.testing.assert_array_equal(a.regime, b.regime)
        c = simulate_paths(spec, 64, 0.1, seed=100)
        assert not np.array_equal(a.x, c.x)

    def test_rejects_bad_arguments(self):
        spec = build_problem("bm1")
        with pytest.raises(ValueError, match="does not divide"):
            simulate_paths(spec, 10, 0.3, seed=0)
        with pytest.raises(ValueError, match=">= 1"):
            simulate_paths(spec, 0, 0.25, seed=0)

    def test_grid_contains_regular_times(self):
        spec = build_problem("switch3", {"T": 1.0})
        b = simulate_paths(spec, 40, 0.125, seed=3)
        regular = b.regular
        for p in range(b.N):
            grid = b.times[p, : b.n_nodes[p]]
            assert np.all(np.isin(regular, grid))
            tg = make_time_grid(spec.horizon, 0.125, b.marked_path(p).times)
            np.testing.assert_allclose(tg.concatenated, grid)

    def test_euler_recursion_recomputes_exactly(self):
        spec = build_problem("switch2-linear")
        b = simulate_paths(spec, 30, 0.1, seed=21)
        for p in range(5):
            n = b.n_nodes[p]
            x = b.x[p, 0][None, :]
            for l in range(n - 1):
                i = int(b.regime[p, l])
                x = _euler_step(spec, i, x, b.dt[p, l : l + 1], b.dw[p, l][None, :])
                np.testing.assert_array_equal(x[0], b.x[p, l + 1])

    def test_regime_changes_only_at_atoms(self):
        spec = build_problem("switch2-linear")
        b = simulate_paths(spec, 50, 0.05, seed=33)
        for p in range(b.N):
            atoms = b.marked_path(p)
            grid = b.times[p, : b.n_nodes[p]]
            reg = b.regime[p, : b.n_nodes[p]]
            changes = np.flatnonzero(np.diff(reg.astype(int)) != 0)
            for c in changes:
                t_change = grid[c + 1]
                assert np.any(np.isclose(atoms.times, t_change))
                mark = atoms.marks[np.argmin(np.abs(atoms.times - t_change))]
                assert reg[c + 1] == mark

    def test_initial_conditions(self):
        spec = build_problem("switch2-linear", {"x0": [0.7], "i0": 1})
        b = simulate_paths(spec, 10, 0.1, seed=2)
        assert np.all(b.x[:, 0, 0] == 0.7)
        assert np.all(b.regime[:, 0] == 1)

    def test_weak_euler_error_halves_for_linear_drift(self):
        a = 1.0
        gaps = []
        for h in (0.1, 0.05):
            spec = diffusion_spec(
                drift_fn=lambda i, x: a * x,
                vol_fn=lambda i, x: np.full((x.shape[0], 1, 1), 0.2),
                intensity=(0.0,),
                x0=1.0,
            )
            b = simulate_paths(spec, 100_000, h, seed=5)
            gaps.append(abs(b.x_reg[:, -1, 0].mean() - np.e))
        ratio = gaps[1] / gaps[0]
        assert 0.5 - 0.3 * 0.5 <= ratio <= 0.5 + 0.3 * 0.5

    def test_two_state_regime_marginal(self):
        lam = (1.3, 0.7)
        spec = build_problem("switch2-linear", {"intensity": list(lam), "i0": 1, "T": 1.0})
        b = simulate_paths(spec, 100_000, 0.5, seed=8)
        total = sum(lam)
        # jumps arrive at the total rate and land on j with prob lam_j/total
        p2 = (1.0 - np.exp(-total)) * lam[1] / total
        freq2 = np.mean(b.i_reg[:, -1] == 2)
        band = 3.0 * np.sqrt(p2 * (1 - p2) / b.N)
        assert abs(freq2 - p2) <= band

    def test_jump_counts_match_atoms(self):
        spec = build_problem("switch2-linear")
        b = simulate_paths(spec, 40, 0.125, seed=13)
        for p in range(b.N):
            atoms = b.marked_path(p)
            regular = b.regular
            for k in range(b.K):
                for j in (1, 2):
                    expected = atoms.count_in(regular[k], regular[k + 1], j)
                    assert b.counts_reg[p, k, j - 1] == expected

    def test_multidimensional_state(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.zeros_like(x),
            vol_fn=lambda i, x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
            d=2,
            intensity=(0.5,),
        )
        b = simulate_paths(spec, 500, 0.25, seed=4)
        assert b.x_reg.shape == (500, 5, 2)
        assert abs(b.x_reg[:, -1, 0].var() - 1.0) < 0.2

    def test_worker_split_matches_serial(self):
        spec = build_problem("switch3")
        serial = simulate_paths(spec, 48, 0.25, seed=6)
        split = simulate_paths(spec, 48, 0.25, seed=6, workers=2, problem_ref=("switch3", {}))
        assert serial.atom_times.size > 0
        for name, a in vars(serial).items():
            b = getattr(split, name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                assert a == b, name

    @pytest.mark.parametrize(
        "make_spec, h",
        [
            (lambda: build_problem("switch2-linear"), 0.1),
            (lambda: build_problem("switch3"), 0.125),
            (
                lambda: diffusion_spec(
                    drift_fn=lambda i, x: np.zeros_like(x),
                    vol_fn=lambda i, x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
                    d=2,
                    intensity=(1.5,),
                ),
                0.25,
            ),
        ],
        ids=["switch2-linear", "switch3", "d2"],
    )
    def test_stream_contract(self, make_spec, h):
        """Path p draws its atoms, then its normals, from SeedSequence((s, p))."""
        spec, seed = make_spec(), 31
        b = simulate_paths(spec, 40, h, seed=seed)
        assert b.atom_times.size > 0
        for p in (0, 1, 7, 23, 39):
            rng = np.random.default_rng(np.random.SeedSequence((seed, p)))
            atoms = sample_jump_marks(spec.intensity, spec.horizon, rng)
            sl = slice(b.atom_offsets[p], b.atom_offsets[p + 1])
            np.testing.assert_array_equal(b.atom_times[sl], atoms.times)
            np.testing.assert_array_equal(b.atom_marks[sl], atoms.marks)
            n_sub = b.n_nodes[p] - 1
            normals = rng.standard_normal((n_sub, spec.d))
            np.testing.assert_array_equal(b.dw[p, :n_sub], normals * np.sqrt(b.dt[p, :n_sub])[:, None])


class TestBundleFromPaths:
    def test_atom_beyond_horizon_rejected(self):
        spec = build_problem("switch2-linear", {"T": 0.5})
        with pytest.raises(ValueError, match="beyond the horizon"):
            bundle_from_paths(spec, 0.25, [[(0.9, 2)]])

    def test_atom_at_nonpositive_time_rejected(self):
        spec = build_problem("switch2-linear", {"T": 0.5})
        with pytest.raises(ValueError, match="nonpositive time"):
            bundle_from_paths(spec, 0.25, [[(0.2, 1)], [(0.0, 2)]])

    def test_merge_edge_cases(self):
        """Coincident times share one node, as np.unique merges them.

        The expected arrays were recorded from the per-path merge
        (``np.unique`` of regular and atom times) that preceded the
        vectorized one.
        """
        spec = build_problem("switch2-linear", {"T": 0.5, "i0": 1})
        b = bundle_from_paths(
            spec,
            0.25,
            [
                [(0.25, 2)],  # atom on a regular time
                [(0.1, 2), (0.1, 1)],  # two atoms at one time: the later in (time, mark) order wins
                [(0.5, 2)],  # atom at T
                [],  # no atoms
                [(0.5, 1), (0.3, 2), (0.25, 2), (0.3, 1)],  # all of the above on one path
            ],
        )
        expected = {
            "times": [[0.0, 0.25, 0.5, 0.5], [0.0, 0.1, 0.25, 0.5], [0.0, 0.25, 0.5, 0.5], [0.0, 0.25, 0.5, 0.5],
                      [0.0, 0.25, 0.3, 0.5]],
            "n_nodes": [3, 4, 3, 3, 4],
            "regime": [[1, 2, 2, 2], [1, 2, 2, 2], [1, 1, 2, 2], [1, 1, 1, 1], [1, 2, 2, 1]],
            "reg_pos": [[0, 1, 2], [0, 2, 3], [0, 1, 2], [0, 1, 2], [0, 1, 3]],
            "step_of": [[0, 1, 0], [0, 0, 1], [0, 1, 0], [0, 1, 0], [0, 1, 1]],
            "counts_reg": [[[0, 1], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]],
                           [[0, 1], [2, 1]]],
        }
        for name, values in expected.items():
            np.testing.assert_array_equal(getattr(b, name), values, err_msg=name)
        np.testing.assert_array_equal(b.dt > 0, np.arange(3) < b.n_nodes[:, None] - 1)

    def test_manual_atoms_and_grid(self):
        spec = build_problem("switch2-linear", {"T": 0.5})
        b = bundle_from_paths(spec, 0.25, [[(0.1, 2)], []])
        assert b.N == 2
        assert b.counts_reg[0, 0, 1] == 1
        assert b.i_reg[0, 1] == 2 and b.i_reg[0, 2] == 2
        assert b.i_reg[1, 1] == spec.initial_regime
        durations, regimes = b.path_segments(0, 0)
        np.testing.assert_allclose(durations, [0.1, 0.15])
        assert list(regimes) == [2, 2]
