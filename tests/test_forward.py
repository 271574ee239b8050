import dataclasses
import tracemalloc

import numpy as np
import pytest

from switchbsde import (
    IntensityMeasure,
    bundle_from_paths,
    build_problem,
    simulate_paths,
)
from switchbsde import forward
from switchbsde.forward import _euler_step
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


def path_atoms(b, p):
    """(times, marks) of path p's atoms in the bundle's flat storage."""
    sl = slice(b.atom_offsets[p], b.atom_offsets[p + 1])
    return b.atom_times[sl], b.atom_marks[sl]


def regular_nodes(b):
    """(regimes (N, K+1), states (N, K+1, d)) at every regular time, read through ``nodes(k)``."""
    read = [b.nodes(k) for k in range(b.K + 1)]
    return np.stack([r for r, _ in read], axis=1), np.stack([x for _, x in read], axis=1)


def step_counts(b):
    """Mark counts per step, shape (N, K, m), read through ``step_increments(k)``."""
    return np.stack([b.step_increments(k)[1] for k in range(b.K)], axis=1)


def compensated(b, lam):
    """Compensated mark counts per step, ``counts - lambda_j * h``, shape (N, K, m)."""
    return step_counts(b) - np.asarray(lam) * b.h


class TestSampleJumpMarks:
    """The marked Poisson atoms ``simulate_paths`` draws, read from the bundle's flat atom arrays."""

    def test_zero_intensity_gives_empty_path(self):
        b = simulate_paths(build_problem("switch2-linear", {"intensity": [0.0, 0.0]}), 100, 0.5, seed=0)
        assert b.atom_times.size == 0 and b.atom_marks.size == 0
        assert not b.atom_offsets.any()

    def test_poisson_count_mean(self):
        spec = build_problem("switch2-linear", {"intensity": [2.0, 3.0], "T": 1.0})
        counts = np.diff(simulate_paths(spec, 100_000, 1.0, seed=123).atom_offsets)
        band = 3.0 * np.sqrt(5.0 / 100_000)
        assert abs(counts.mean() - 5.0) <= band

    def test_mark_frequencies(self):
        spec = build_problem("switch2-linear", {"intensity": [2.0, 3.0], "T": 1.0})
        marks = simulate_paths(spec, 20_000, 1.0, seed=7).atom_marks
        freq2 = np.mean(marks == 2)
        band = 3.0 * np.sqrt(0.6 * 0.4 / marks.size)
        assert abs(freq2 - 0.6) <= band

    def test_times_sorted_in_horizon(self):
        spec = build_problem("bm1", {"intensity": [5.0], "T": 2.0})
        times = simulate_paths(spec, 1, 2.0, seed=5).atom_times
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0 and times[-1] <= 2.0


def path_nodes(b, p):
    """(times, regimes, states) of every grid node of path p in time order, the terminal node last."""
    paths, starts = b._row_starts()
    sub = np.flatnonzero(paths == p)  # by step, and within a step the node row before the inner rows
    return (
        np.append(starts[sub], b.T),
        np.append(b.regime[sub], b.i_T[p]),
        np.concatenate([b.x[sub], b.x_T[p : p + 1]]),
    )


def regime_at(b, p, t):
    """Right-continuous regime of path p at time t, read off the bundle's grid."""
    grid, regimes, _ = path_nodes(b, p)
    return int(regimes[np.searchsorted(grid, t, side="right") - 1])


def spec_from(name, T=1.0, i0=1):
    return dataclasses.replace(build_problem(name), horizon=T, initial_regime=i0)


class TestMarkedPoissonPath:
    def test_rejects_unsorted_or_nonpositive_times(self):
        spec = spec_from("switch2-linear")
        for atoms in ([(0.0, 1), (0.2, 1)], [(0.5, 1), (-0.2, 2)]):
            with pytest.raises(ValueError, match="nonpositive"):
                bundle_from_paths(spec, 0.25, [atoms])
        # an unsorted atom list is stored in increasing time order
        b = bundle_from_paths(spec, 0.25, [[(0.5, 2), (0.2, 1)]])
        times, marks = path_atoms(b, 0)
        assert np.all(np.diff(times) > 0)
        np.testing.assert_array_equal(times, [0.2, 0.5])
        np.testing.assert_array_equal(marks, [1, 2])

    def test_count_in_half_open_interval(self):
        spec = spec_from("switch2-linear")
        b = bundle_from_paths(spec, 0.25, [[(0.25, 1), (0.5, 2), (0.5001, 1)]])
        # step k counts the atoms in (t_k, t_k+1]: left end excluded, right included
        counts = step_counts(b)
        np.testing.assert_array_equal(counts[0, 1], [0, 1])
        np.testing.assert_array_equal(counts[0, 0], [1, 0])
        np.testing.assert_array_equal(counts[0, 2], [1, 0])


class TestRegimePath:
    def test_empty_marks_constant(self):
        b = bundle_from_paths(spec_from("switch3", i0=3), 0.25, [[]])
        assert regime_at(b, 0, 0.0) == 3
        assert regime_at(b, 0, 0.99) == 3

    def test_self_marks_change_nothing(self):
        b = bundle_from_paths(spec_from("switch2-linear", i0=2), 0.25, [[(0.3, 2), (0.7, 2)]])
        assert [regime_at(b, 0, t) for t in (0.0, 0.5, 0.9)] == [2, 2, 2]
        assert step_counts(b)[0, :, 1].sum() == 2

    def test_switching_path(self):
        b = bundle_from_paths(spec_from("switch2-linear"), 0.25, [[(0.3, 2), (0.7, 1)]])
        assert regime_at(b, 0, 0.0) == 1
        assert regime_at(b, 0, 0.3) == 2  # right-continuous at the atom
        assert regime_at(b, 0, 0.5) == 2
        assert regime_at(b, 0, 0.7) == 1
        assert regime_at(b, 0, 1.0) == 1


class TestCompensatedIncrement:
    def test_no_atoms(self):
        spec = build_problem("switch2-linear", {"intensity": [1.0, 2.0], "T": 0.1})
        b = bundle_from_paths(spec, 0.1, [[]])
        assert compensated(b, [1.0, 2.0])[0, 0, 1] == pytest.approx(-0.2)

    def test_one_atom(self):
        spec = build_problem("switch2-linear", {"intensity": [1.0, 2.0], "T": 0.2})
        # the second atom sits on the regular time 0.1: steps are (t_k, t_k+1]
        b = bundle_from_paths(spec, 0.1, [[(0.05, 2)], [(0.1, 2)]])
        comp = compensated(b, [1.0, 2.0])
        np.testing.assert_allclose(comp[:, :, 1], [[0.8, -0.2], [0.8, -0.2]])
        np.testing.assert_allclose(comp[:, :, 0], -0.1)

    def test_self_marks_are_counted(self):
        spec = diffusion_spec(
            lambda i, x: np.zeros_like(x), lambda i, x: np.zeros((x.shape[0], 1, 1)), intensity=(2.0,)
        )
        b = bundle_from_paths(spec, 1.0, [[(0.5, 1)]])
        assert compensated(b, [2.0])[0, 0, 0] == pytest.approx(1.0 - 2.0)

    def test_martingale_mean(self):
        spec = diffusion_spec(
            lambda i, x: np.zeros_like(x), lambda i, x: np.zeros((x.shape[0], 1, 1)), intensity=(2.0, 3.0)
        )
        vals = compensated(simulate_paths(spec, 100_000, 1.0, seed=17), [2.0, 3.0])[:, 0, 0]
        band = 3.0 * vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean()) <= band


SEEDS = (0, 31, 2**32 - 1, 2**32, 2**100 + 3)


def assert_same_bundle(a, b):
    """Every array of the two bundles bit-identical, dtypes included, and every scalar equal."""
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype, name
            np.testing.assert_array_equal(value, other, err_msg=name)
        else:
            assert value == other, name


def first_paths(b, n):
    """The arrays of paths ``0..n-1`` of bundle ``b``, laid out as a run of ``n`` paths holds them."""
    keep = b._row_starts()[0] < n
    inner = b.inner_path < n
    atoms = slice(0, b.atom_offsets[n])
    return {
        "step_offsets": np.searchsorted(np.flatnonzero(keep), b.step_offsets),
        **{name: getattr(b, name)[keep] for name in ("regime", "x", "dw")},
        **{name: getattr(b, name)[inner] for name in ("inner_path", "inner_times")},
        "x_T": b.x_T[:n],
        "i_T": b.i_T[:n],
        "atom_offsets": b.atom_offsets[: n + 1],
        "atom_times": b.atom_times[atoms],
        "atom_marks": b.atom_marks[atoms],
    }


class TestSimulatePaths:
    def test_degenerate_dynamics_freeze_state(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.zeros_like(x),
            vol_fn=lambda i, x: np.zeros((x.shape[0], 1, 1)),
            intensity=(1.0,),
            x0=0.4,
        )
        b = simulate_paths(spec, 20, 0.25, seed=0)
        assert b.atom_times.size > 0
        assert np.all(b.x == 0.4) and np.all(regular_nodes(b)[1] == 0.4)

    def test_unit_drift_exact(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.ones_like(x),
            vol_fn=lambda i, x: np.zeros((x.shape[0], 1, 1)),
            intensity=(0.0,),
            x0=0.25,
        )
        b = simulate_paths(spec, 5, 0.2, seed=1)
        np.testing.assert_allclose(b.x_T[:, 0], 1.25, atol=1e-12)

    def test_terminal_variance(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.zeros_like(x),
            vol_fn=lambda i, x: np.ones((x.shape[0], 1, 1)),
            intensity=(0.0,),
        )
        b = simulate_paths(spec, 100_000, 0.25, seed=11)
        xT = b.x_T[:, 0]
        var = xT.var()
        band = 3.0 * np.sqrt(2.0 / xT.size)  # var of chi2-normalized estimate
        assert abs(var - 1.0) <= band

    def test_reproducible_given_seed(self):
        spec = build_problem("switch2-linear")
        a = simulate_paths(spec, 64, 0.1, seed=99)
        b = simulate_paths(spec, 64, 0.1, seed=99)
        assert a.atom_times.size > 0
        assert_same_bundle(a, b)
        c = simulate_paths(spec, 64, 0.1, seed=100)
        assert not np.array_equal(a.x, c.x)

    def test_rejects_bad_arguments(self):
        spec = build_problem("bm1")
        with pytest.raises(ValueError, match="does not divide"):
            simulate_paths(spec, 10, 0.3, seed=0)
        for h in (0.0, float("nan"), -0.25):
            with pytest.raises(ValueError, match="step must be finite and positive"):
                simulate_paths(spec, 10, h, seed=0)
        for N in (0, True, 3.0, 2.5):  # a bool would build one path, a float fail inside numpy
            with pytest.raises(ValueError, match="path count must be an integer >= 1"):
                simulate_paths(spec, N, 0.25, seed=0)
        assert simulate_paths(spec, np.int64(3), 0.25, seed=0).N == 3
        for seed in (-1, 2.7, 3.0, True, False, "7"):  # a bool used to run as seed 0 or 1
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                simulate_paths(spec, 10, 0.25, seed=seed)
    def test_grid_contains_regular_times(self):
        spec = build_problem("switch3", {"T": 1.0})
        b = simulate_paths(spec, 40, 0.125, seed=3)
        regular = b.regular
        for p in range(b.N):
            grid = path_nodes(b, p)[0]
            assert np.all(np.isin(regular, grid))
            np.testing.assert_array_equal(grid, np.unique(np.concatenate([regular, path_atoms(b, p)[0]])))

    @pytest.mark.parametrize("seed", [3, 8])
    def test_step_major_layout(self, seed):
        """Step k lists the N node rows from t_k in path order, then one inner row per node inside the step by (path, time)."""
        spec = build_problem("switch3", {"intensity": [6.0, 4.0, 2.0]})
        b = simulate_paths(spec, 200, 0.125, seed=seed)
        N = b.N
        assert b.step_offsets[0] == 0 and b.step_offsets[b.K] == b.dt.size
        assert b.inner_path.size == b.inner_times.size == b.dt.size - b.K * N
        for k, (t_k, t_next) in enumerate(zip(b.regular[:-1], b.regular[1:])):
            lo, hi = b.step_offsets[k : k + 2]
            inner = slice(lo - k * N, hi - (k + 1) * N)  # the step's inner rows follow its N node rows
            paths, starts = b.inner_path[inner], b.inner_times[inner]
            assert paths.size == hi - lo - N
            # one node row per path opens the step; inner rows start strictly inside it, by path and then time
            seg_paths, durations, _ = b.step_segments(k)
            np.testing.assert_array_equal(seg_paths, np.concatenate((np.arange(N), paths)))
            assert np.all(np.diff(paths) >= 0)
            assert np.all((starts > t_k) & (starts < t_next))
            assert np.all(np.diff(starts)[paths[1:] == paths[:-1]] > 0)
            np.testing.assert_array_equal(durations, b.dt[lo:hi])
            np.testing.assert_allclose(np.bincount(seg_paths, durations), b.h, rtol=0, atol=1e-12)
            dw_step = np.zeros((N, b.d))
            np.add.at(dw_step, seg_paths, b.dw[lo:hi])  # in time order within each path
            np.testing.assert_array_equal(b.step_increments(k)[0], dw_step)
            # the regression dates' nodes are the node rows
            regimes, xs = b.nodes(k)
            np.testing.assert_array_equal(regimes, b.regime[lo : lo + N])
            np.testing.assert_array_equal(xs, b.x[lo : lo + N])
        assert np.bincount(b.inner_path[: b.step_offsets[1] - N]).max() >= 2

    def test_nodes_are_views(self):
        """nodes(k) slices the bundle's node rows, read-only: no gather, no copy."""
        spec = build_problem("switch3", {"intensity": [6.0, 4.0, 2.0]})
        b = simulate_paths(spec, 50, 0.125, seed=3)
        for k in range(b.K):
            regimes, xs = b.nodes(k)
            assert np.shares_memory(regimes, b.regime) and np.shares_memory(xs, b.x)
            with pytest.raises(ValueError, match="read-only"):
                xs[0] = 1.0

    def test_footprint_matches_layout(self):
        """Rows take S (2 + 16 d) bytes and each inner row 12 more; atom, terminal and offset arrays on top."""
        spec = build_problem("switch3", {"intensity": [6.0, 4.0, 2.0]})
        b = simulate_paths(spec, 200, 0.125, seed=3)
        S, I, A, N, K, d = b.regime.size, b.inner_path.size, b.atom_times.size, b.N, b.K, b.d
        assert all(np.diff(b.step_offsets) >= N + 2 * N // 5)  # several atoms per step
        rows = S * (2 + 16 * d) + 12 * I
        atoms = 8 * (N + 1) + (8 + 2) * A
        terminal = 8 * N * d + 2 * N
        held = sum(a.nbytes for a in vars(b).values() if isinstance(a, np.ndarray))
        assert held == rows + atoms + terminal + 8 * (K + 1)

    def test_euler_recursion_recomputes_exactly(self):
        spec = build_problem("switch2-linear")
        b = simulate_paths(spec, 30, 0.1, seed=21)
        paths = b._row_starts()[0]
        for p in range(5):
            sub = np.flatnonzero(paths == p)  # in time order
            x = b.x[sub[0]][None, :]
            for s in sub:
                np.testing.assert_array_equal(x[0], b.x[s])
                x = _euler_step(spec, int(b.regime[s]), x, b.dt[s : s + 1], b.dw[s][None, :])
            np.testing.assert_array_equal(x[0], b.x_T[p])

    def test_regime_changes_only_at_atoms(self):
        spec = build_problem("switch2-linear")
        b = simulate_paths(spec, 50, 0.05, seed=33)
        for p in range(b.N):
            times, marks = path_atoms(b, p)
            grid, reg, _ = path_nodes(b, p)
            changes = np.flatnonzero(np.diff(reg.astype(int)) != 0)
            for c in changes:
                t_change = grid[c + 1]
                assert np.any(np.isclose(times, t_change))
                mark = marks[np.argmin(np.abs(times - t_change))]
                assert reg[c + 1] == mark

    def test_initial_conditions(self):
        spec = build_problem("switch2-linear", {"x0": [0.7], "i0": 1})
        b = simulate_paths(spec, 10, 0.1, seed=2)
        paths, starts = b._row_starts()
        start = starts == 0.0
        assert np.array_equal(np.flatnonzero(start), np.arange(b.N))  # step 0's node rows
        assert np.array_equal(paths[start], np.arange(b.N))
        regimes_0, x_0 = b.nodes(0)
        assert np.all(b.x[start, 0] == 0.7) and np.all(x_0[:, 0] == 0.7)
        assert np.all(b.regime[start] == 1) and np.all(regimes_0 == 1)

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
            gaps.append(abs(b.x_T[:, 0].mean() - np.e))
        ratio = gaps[1] / gaps[0]
        assert 0.5 - 0.3 * 0.5 <= ratio <= 0.5 + 0.3 * 0.5

    def test_two_state_regime_marginal(self):
        lam = (1.3, 0.7)
        spec = build_problem("switch2-linear", {"intensity": list(lam), "i0": 1, "T": 1.0})
        b = simulate_paths(spec, 100_000, 0.5, seed=8)
        total = sum(lam)
        # jumps arrive at the total rate and land on j with prob lam_j/total
        p2 = (1.0 - np.exp(-total)) * lam[1] / total
        freq2 = np.mean(b.i_T == 2)
        band = 3.0 * np.sqrt(p2 * (1 - p2) / b.N)
        assert abs(freq2 - p2) <= band

    def test_jump_counts_match_atoms(self):
        spec = build_problem("switch2-linear")
        b = simulate_paths(spec, 40, 0.125, seed=13)
        counts = step_counts(b)
        for p in range(b.N):
            times, marks = path_atoms(b, p)
            regular = b.regular
            for k in range(b.K):
                for j in (1, 2):
                    inside = (times > regular[k]) & (times <= regular[k + 1])
                    expected = np.count_nonzero(inside & (marks == j))
                    assert counts[p, k, j - 1] == expected

    def test_multidimensional_state(self):
        spec = diffusion_spec(
            drift_fn=lambda i, x: np.zeros_like(x),
            vol_fn=lambda i, x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
            d=2,
            intensity=(0.5,),
        )
        b = simulate_paths(spec, 500, 0.25, seed=4)
        assert regular_nodes(b)[1].shape == (500, 5, 2)
        assert abs(b.x_T[:, 0].var() - 1.0) < 0.2

    def test_bundle_holds_no_regular_grid_copy(self):
        """Every array is sized by sub-intervals, inner sub-intervals, atoms, paths (the terminal node) or K + 1: no (N, K, .) array."""
        spec = build_problem("switch3", {"intensity": [6.0, 4.0, 2.0]})
        b = simulate_paths(spec, 50, 0.125, seed=3)
        S, A, N, K, d = b.regime.size, b.atom_times.size, b.N, b.K, b.d
        assert len({S, A, N, N + 1, K + 1}) == 5
        I = S - K * N  # the inner rows: every row but the K N node rows
        shapes = {name: a.shape for name, a in vars(b).items() if isinstance(a, np.ndarray)}
        assert shapes == {
            "step_offsets": (K + 1,),
            "regime": (S,),
            **dict.fromkeys(("x", "dw"), (S, d)),
            **dict.fromkeys(("inner_path", "inner_times"), (I,)),
            "x_T": (N, d),
            "i_T": (N,),
            "atom_offsets": (N + 1,),
            **dict.fromkeys(("atom_times", "atom_marks"), (A,)),
        }

    def test_shorter_run_is_a_prefix(self):
        """Path p's draws depend on (seed, p) alone: the first 40 paths of 1100 are a 40-path run."""
        spec = build_problem("switch3", {"intensity": [6.0, 4.0, 2.0]})
        short = simulate_paths(spec, 40, 0.125, seed=12)
        long = simulate_paths(spec, 1100, 0.125, seed=12)
        arrays = {name: value for name, value in vars(short).items() if isinstance(value, np.ndarray)}
        prefix = first_paths(long, 40)
        assert arrays.keys() == prefix.keys()
        for name, value in arrays.items():
            assert value.dtype == prefix[name].dtype, name
            np.testing.assert_array_equal(value, prefix[name], err_msg=name)
        np.testing.assert_array_equal(short.dt, long.dt[long._row_starts()[0] < 40])  # the derived durations too

    def test_durations_end_at_the_next_row_start(self):
        """A row lasts until its path's next row in the step starts, or until t_{k+1}: derived and stored alike."""
        spec = build_problem("switch3", {"intensity": [6.0, 4.0, 2.0]})
        b = simulate_paths(spec, 200, 0.125, seed=3)
        assert all(np.diff(b.step_offsets) >= b.N + 2 * b.N // 5)  # several atoms per step
        paths, starts = b._row_starts()
        ends = np.empty_like(starts)
        for k, t_next in enumerate(b.regular[1:]):
            lo, hi = b.step_offsets[k : k + 2]
            step_paths, step_starts = paths[lo:hi], starts[lo:hi]
            order = np.argsort(step_paths, kind="stable")  # each path's rows of the step in time order
            later = np.append(step_paths[order][1:] == step_paths[order][:-1], False)
            step_ends = np.full(hi - lo, t_next)
            step_ends[order[later]] = step_starts[order][1:][later[:-1]]
            ends[lo:hi] = step_ends
            np.testing.assert_array_equal(b.step_segments(k)[1], step_ends - step_starts)
        np.testing.assert_array_equal(b.dt, ends - starts)

    def test_simulation_peak_is_near_the_bundle(self):
        """The normals die before the Euler pass: simulating holds at most half a bundle beside the bundle."""
        spec = build_problem("switch2-linear")
        simulate_paths(spec, 100, 0.02, seed=1)  # one-time set-up is not the simulation's
        tracemalloc.start()
        try:
            b = simulate_paths(spec, 20_000, 0.02, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in vars(b).values() if isinstance(a, np.ndarray))
        assert peak <= 1.5 * held

    @pytest.mark.parametrize(
        "make_spec, h, seed",
        [
            # seed 31, the original contract seed, keeps the bare case id
            pytest.param(make_spec, h, seed, id=case if seed == 31 else f"{case}-seed{seed}")
            for case, make_spec, h in [
                ("switch2-linear", lambda: build_problem("switch2-linear"), 0.1),
                ("switch3", lambda: build_problem("switch3"), 0.125),
                (
                    "d2",
                    lambda: diffusion_spec(
                        drift_fn=lambda i, x: np.zeros_like(x),
                        vol_fn=lambda i, x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
                        d=2,
                        intensity=(1.5,),
                    ),
                    0.25,
                ),
            ]
            for seed in SEEDS
        ],
    )
    def test_stream_contract(self, make_spec, h, seed):
        """Block b draws its paths' counts, atoms and normals from SeedSequence(s, spawn_key=(b,))."""
        spec = make_spec()
        B, T, d = forward._BLOCK, spec.horizon, spec.d
        N = B + 40  # the run ends inside block 1
        b = simulate_paths(spec, N, h, seed=seed)
        assert b.atom_times.size > 0
        paths = b._row_starts()[0]
        order = np.argsort(paths, kind="stable")  # each path's sub-intervals in time order
        sizes = np.bincount(paths, minlength=N)
        pos = np.empty(order.size, dtype=int)  # a sub-interval's place in its path's grid
        pos[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        for block in (0, 1):
            lo, hi = block * B, min((block + 1) * B, N)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
            counts = rng.poisson(spec.intensity.total * T, B)  # every path of the block, present or not
            p_marks = spec.intensity.mark_probabilities()
            atoms = [(np.sort(rng.random(c)) * T, rng.choice(spec.intensity.m, size=c, p=p_marks) + 1) for c in counts]
            for p in range(lo, hi):
                np.testing.assert_array_equal(path_atoms(b, p)[0], atoms[p - lo][0])
                np.testing.assert_array_equal(path_atoms(b, p)[1], atoms[p - lo][1])
            rows = b.K + counts[: hi - lo]  # normal rows of each present path, in path order
            normals = rng.standard_normal((int(rows.sum()), d))
            first_row = np.cumsum(rows) - rows
            sub = np.flatnonzero((paths >= lo) & (paths < hi))
            expected = normals[first_row[paths[sub] - lo] + pos[sub]] * np.sqrt(b.dt[sub])[:, None]
            np.testing.assert_array_equal(b.dw[sub], expected)


class TestBundleFromPaths:
    def test_atom_beyond_horizon_rejected(self):
        spec = build_problem("switch2-linear", {"T": 0.5})
        with pytest.raises(ValueError, match="beyond the horizon"):
            bundle_from_paths(spec, 0.25, [[(0.9, 2)]])

    @pytest.mark.parametrize("mark", [0, 3])
    def test_mark_outside_regimes_rejected(self, mark):
        # every sub-interval's regime must be one the backward step evaluates
        spec = build_problem("switch2-linear", {"T": 0.5})
        with pytest.raises(ValueError, match="mark outside 1..2"):
            bundle_from_paths(spec, 0.25, [[(0.1, 1)], [(0.2, mark)]])

    def test_atom_at_nonpositive_time_rejected(self):
        spec = build_problem("switch2-linear", {"T": 0.5})
        with pytest.raises(ValueError, match="nonpositive time"):
            bundle_from_paths(spec, 0.25, [[(0.2, 1)], [(0.0, 2)]])

    def test_merge_edge_cases(self, tmp_path):
        """Coincident times share one node, as np.unique merges them.

        The expected arrays were recorded as padded per-path grids from the
        per-path merge (``np.unique`` of regular and atom times) that preceded
        the vectorized one, and converted by hand to the node-first layout:
        each step lists the sub-intervals from ``t_k`` in path order, then one
        per node inside the step by path and time; ``rows`` holds each row's
        path and start time. ``node_regimes`` holds the recorded regime
        at each path's regular nodes and ``counts`` its mark counts per step,
        as ``nodes(k)`` and ``step_increments(k)`` read them.
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
                [(0.1, 1)],  # a self-mark: new node, regime unchanged, atom counted
            ],
        )
        expected = {
            "step_offsets": [0, 8, 15],
            "inner_path": [1, 5, 4],
            "inner_times": [0.1, 0.1, 0.3],
            "regime": [1, 1, 1, 1, 1, 1, 2, 1, 2, 2, 1, 1, 2, 1, 2],
        }
        for name, values in expected.items():
            np.testing.assert_array_equal(getattr(b, name), values, err_msg=name)
        rows = {
            "path": [0, 1, 2, 3, 4, 5, 1, 5, 0, 1, 2, 3, 4, 5, 4],
            "times": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.3],
        }
        for name, got in zip(rows, b._row_starts()):
            np.testing.assert_array_equal(got, rows[name], err_msg=name)
        node_regimes = [[1, 2, 2], [1, 2, 2], [1, 1, 2], [1, 1, 1], [1, 2, 1], [1, 1, 1]]
        counts = [[[0, 1], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]],
                  [[0, 1], [2, 1]], [[1, 0], [0, 0]]]
        np.testing.assert_array_equal(regular_nodes(b)[0], node_regimes)
        np.testing.assert_array_equal(step_counts(b), counts)
        ends = np.array([0.25, 0.1, 0.25, 0.25, 0.25, 0.1, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5, 0.3, 0.5, 0.5])
        np.testing.assert_array_equal(b.dt, ends - np.array(rows["times"]))

        # paths.csv lists each path's recorded nodes in time order, then its terminal node at T
        nodes = {p: [] for p in range(b.N)}
        for p, t, i in zip(rows["path"], rows["times"], expected["regime"]):
            nodes[p].append((t, i))
        forward.dump_paths_csv(b, tmp_path / "paths.csv")
        rows = (tmp_path / "paths.csv").read_text().splitlines()
        assert rows[0] == "path,s,regime,x_1"
        written = [(int(p), float(t), int(i)) for p, t, i, _ in (row.split(",") for row in rows[1:])]
        assert written == [(p, t, i) for p in range(b.N) for t, i in [*nodes[p], (0.5, node_regimes[p][-1])]]

    def test_increments_follow_merged_grid(self):
        """dw_per_path gives one row per sub-interval left after the merge, and any other count is refused."""
        spec = build_problem("switch2-linear", {"T": 0.5})
        atoms = [[(0.25, 2), (0.1, 2), (0.1, 1), (0.3, 1)], []]  # path 0: 2 steps + 2 new nodes
        dws = [np.arange(4.0), np.array([5.0, 6.0])]
        b = bundle_from_paths(spec, 0.25, atoms, dws)
        paths = b._row_starts()[0]
        np.testing.assert_array_equal(b.dw[paths == 0, 0], dws[0])  # in time order
        np.testing.assert_array_equal(b.dw[paths == 1, 0], dws[1])
        dw_steps = np.stack([b.step_increments(k)[0][:, 0] for k in range(b.K)], axis=1)
        np.testing.assert_array_equal(dw_steps, [[1.0, 5.0], [5.0, 6.0]])
        with pytest.raises(ValueError):
            bundle_from_paths(spec, 0.25, atoms, [np.arange(5.0), dws[1]])

    @pytest.mark.parametrize("count", [1, 3])
    def test_increment_arrays_must_match_paths(self, count):
        """One increment array per path: extra arrays are not ignored, and missing ones raise no IndexError."""
        spec = build_problem("switch2-linear", {"T": 0.5})
        dws = [np.zeros(2)] * count
        with pytest.raises(ValueError, match=f"{count} increment arrays for 2 paths"):
            bundle_from_paths(spec, 0.25, [[], []], dws)

    def test_manual_atoms_and_grid(self):
        spec = build_problem("switch2-linear", {"T": 0.5})
        b = bundle_from_paths(spec, 0.25, [[(0.1, 2)], []])
        assert b.N == 2
        regimes_reg = regular_nodes(b)[0]
        assert step_counts(b)[0, 0, 1] == 1
        assert regimes_reg[0, 1] == 2 and regimes_reg[0, 2] == 2
        assert regimes_reg[1, 1] == spec.initial_regime
        rows, durations, regimes = b.step_segments(0)
        np.testing.assert_allclose(durations[rows == 0], [0.1, 0.15])
        assert list(regimes[rows == 0]) == [2, 2]
