"""Forward simulation of the regime process and the Euler state scheme.

The regime process is driven by a homogeneous marked Poisson stream: atoms
arrive at total rate ``Lambda = sum_j lambda_j``, each carrying an i.i.d.
mark ``j`` with probability ``lambda_j / Lambda``, and the regime jumps to
the mark at every atom. Atoms whose mark equals the current regime are
retained: they do not move the regime but they are counted by the
compensated jump measure.

The state follows an Euler recursion on each path's regular time grid
refined by the path's atom times, so drift and volatility always use the
regime holding on each sub-interval and the integral of the driver can be
segmented exactly.

Reproducibility contract: paths form fixed blocks of ``_BLOCK = 1024``
consecutive indices, and block ``b`` of a run with seed ``s`` draws from the
dedicated substream ``default_rng(SeedSequence(s, spawn_key=(b,)))``. It
consumes, in order: the Poisson atom counts of all the block's paths, their
atom times and marks path by path, then ``d`` standard normals per
sub-interval of each present path's grid, path by path in time order. Path
``p``'s draws therefore depend only on ``(s, p)``: a run of ``N`` paths is a
prefix of any longer run.

Simulation runs in two phases. The block draws come first: each path takes
``K + count`` normal rows, enough for the longest grid it can have, and an
atom that merges with a grid node leaves the tail unused. Only the paths a
run holds take normals, which is why they are the last draws of a block.
A vectorized build then runs the Euler updates one regular step at a time
over all paths and stores each sub-interval once, step-major and node-first
(:class:`PathBundle`): a step's first ``N`` rows are the paths'
sub-intervals from ``t_k`` in path order, so only the few rows that start at
an atom inside the step store a path index and a start time. At 50 000
switch2-linear paths and h = 0.02, 94 % of the rows are node rows and the
bundle holds 35.3 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .problem import IntensityMeasure, ProblemSpec, _is_int

Array = np.ndarray

__all__ = [
    "PathBundle",
    "sample_jump_marks",
    "simulate_paths",
    "bundle_from_paths",
]


def sample_jump_marks(intensity: IntensityMeasure, T: float, stream: np.random.Generator) -> tuple[Array, Array]:
    """Draw one marked Poisson path on (0, T] as ``(times, marks)``.

    Atom count is Poisson(total * T); times are sorted uniforms; marks are
    i.i.d. with probabilities ``lambda_j / total``. A zero total intensity
    yields an empty path. :func:`simulate_paths` draws the same law for a
    block of paths from one stream (all counts first, then the uniforms), so
    its paths follow this law without being this function's draws.
    """
    if not T > 0:
        raise ValueError("horizon must be positive")
    total = intensity.total
    if total == 0.0:
        return np.empty(0), np.empty(0, dtype=int)
    count = int(stream.poisson(total * T))
    times = np.sort(stream.random(count)) * T
    marks = stream.choice(intensity.m, size=count, p=intensity.mark_probabilities()) + 1
    keep = times > 0.0  # measure-zero guard: atoms live on (0, T]
    return times[keep], marks[keep]


def _step_count(T: float, h: float) -> int:
    if not (h > 0 and T > 0):
        raise ValueError("T and h must be positive")
    K = int(round(T / h))
    if K < 1 or abs(K * h - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"step {h} does not divide horizon {T}")
    return K


@dataclass
class PathBundle:
    """N simulated trajectories, stored one sub-interval at a time.

    Each path's grid is the regular grid refined by the path's atom times.
    A sub-interval runs from one node of that grid to the next and belongs
    to the regular step it starts in. The sub-interval arrays are flat and
    step-major: step ``k`` fills rows ``step_offsets[k]:step_offsets[k+1]``.
    The step's first ``N`` rows are its node rows, the sub-intervals from
    ``t_k`` of paths ``0..N-1`` in path order. Its inner rows follow, one per
    grid node inside ``(t_k, t_{k+1})`` (an atom, or atoms at one time),
    ordered by path and then time. A row's
    position gives a node row's path and start time, so only inner rows store
    them: step ``k``'s inner rows are ``inner_path`` and ``inner_times`` at
    ``step_offsets[k] - k N : step_offsets[k+1] - (k+1) N``. ``regime[s]``
    holds on its row's sub-interval ``[start, start + dt[s])``
    (right-continuous); ``x[s]`` is the state at its start and ``dw[s]`` its
    Brownian increment. The terminal node is ``(T, i_T, x_T)``.

    With ``S`` rows and ``I`` inner rows the row arrays take
    ``S (8 + 2 + 16 d) + 12 I`` bytes; the atom, terminal and offset arrays
    come on top.

    Only this module knows the layout: other code reads one regular step at a
    time, through :meth:`step_segments`, :meth:`nodes` and :meth:`step_increments`.
    """

    h: float
    K: int
    N: int
    d: int
    m: int
    T: float
    seed: int
    # sub-intervals, step by step: the N node rows, then the inner rows by (path, time)
    step_offsets: Array  # (K+1,) start of each step's rows
    dt: Array         # (S,)
    regime: Array     # (S,) int16
    x: Array          # (S, d) state at the start
    dw: Array         # (S, d)
    inner_path: Array   # (I,) int32 path of each inner row
    inner_times: Array  # (I,) start time of each inner row
    x_T: Array        # (N, d) terminal state
    i_T: Array        # (N,) int16 terminal regime
    # flat atom storage
    atom_offsets: Array  # (N+1,)
    atom_times: Array
    atom_marks: Array

    @property
    def regular(self) -> Array:
        return np.linspace(0.0, self.T, self.K + 1)

    def _inner(self, k: int) -> slice:
        """Step ``k``'s inner rows in ``inner_path`` and ``inner_times``."""
        lo, hi = self.step_offsets[k : k + 2]
        return slice(lo - k * self.N, hi - (k + 1) * self.N)

    def step_segments(self, k: int) -> tuple[Array, Array, Array]:
        """(path index, duration, regime) of step ``k``'s sub-intervals.

        The node rows come first, paths ``0..N-1``, so the first ``N``
        segments are the paths' first sub-intervals; the inner rows follow by
        path and then time.
        """
        lo, hi = self.step_offsets[k : k + 2]
        paths = np.concatenate((np.arange(self.N, dtype=np.int32), self.inner_path[self._inner(k)]))
        return paths, self.dt[lo:hi], self.regime[lo:hi]

    def nodes(self, k: int) -> tuple[Array, Array]:
        """(regime, state) of every path at ``t_k``: shapes (N,) and (N, d), views into the bundle."""
        if k == self.K:
            return self.i_T, self.x_T
        lo = self.step_offsets[k]
        regimes, xs = self.regime[lo : lo + self.N], self.x[lo : lo + self.N]
        regimes.flags.writeable = xs.flags.writeable = False  # a caller's write would change the bundle
        return regimes, xs

    def step_increments(self, k: int) -> tuple[Array, Array]:
        """(dW, counts) of every path over ``(t_k, t_{k+1}]``: the Brownian increment
        (N, d), summed in time order, and the number of mark-j atoms (N, m) at ``[:, j-1]``."""
        lo, hi = self.step_offsets[k : k + 2]
        paths = self.step_segments(k)[0]
        dw = np.stack([np.bincount(paths, self.dw[lo:hi, j], self.N) for j in range(self.d)], axis=1)
        t_k, t_next = self.regular[k : k + 2]  # the build's rule: searchsorted(regular, t, "left") - 1 == k
        atoms = np.flatnonzero((t_k < self.atom_times) & (self.atom_times <= t_next))
        owner = np.searchsorted(self.atom_offsets, atoms, side="right") - 1
        counts = np.bincount(owner * self.m + self.atom_marks[atoms] - 1, minlength=self.N * self.m)
        return dw, counts.reshape(self.N, self.m)

    def _row_starts(self) -> tuple[Array, Array]:
        """(path index, start time) of every row, in row order."""
        paths, times = [], []
        for k, t_k in enumerate(self.regular[:-1]):
            paths.append(self.step_segments(k)[0])
            times += [np.full(self.N, t_k), self.inner_times[self._inner(k)]]
        return np.concatenate(paths), np.concatenate(times)


def _euler_step(spec: ProblemSpec, i: int, x: Array, dt: Array, dw: Array) -> Array:
    """One Euler update for rows currently in regime i."""
    drift = np.asarray(spec.drift(i, x), dtype=float)
    vol = np.asarray(spec.vol(i, x), dtype=float)
    return x + drift * dt[:, None] + np.einsum("nij,nj->ni", vol, dw)


_BLOCK = 1024  # paths per substream


def _draw_blocks(spec: ProblemSpec, K: int, seed: int, N: int) -> tuple[Array, Array, Array]:
    """Raw draws of paths ``[0, N)``: atom counts, uniforms, normals.

    Block ``b`` (paths ``b * _BLOCK`` to ``(b + 1) * _BLOCK - 1``) draws from
    ``default_rng(SeedSequence(seed, spawn_key=(b,)))``, in order: the Poisson
    atom counts of all its paths, even those at or past ``N``; ``2c`` uniforms
    per path in path order (the atom times, then the marks, as
    :func:`sample_jump_marks` consumes them); then ``(K + c) * d`` standard
    normals per path below ``N``, in path order, one row per sub-interval the
    path's grid can have. The normals come last because only paths below ``N``
    take them, so path ``p``'s draws depend on ``seed`` and ``p`` alone. The
    rows a path leaves unused when atoms merge with grid nodes are skipped.

    Each block's counts and uniforms are drawn first; its generator then
    writes its normals into its rows of one preallocated array.
    """
    mean_count = spec.intensity.total * spec.horizon
    streams, counts, uniforms = [], [], []
    for lo in range(0, N, _BLOCK):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo // _BLOCK,)))
        c = rng.poisson(mean_count, _BLOCK)
        u = rng.random(2 * int(c.sum()))
        c = c[: N - lo]
        streams.append(rng)
        counts.append(c)
        uniforms.append(u[: 2 * int(c.sum())])
    counts = np.concatenate(counts)
    rows = np.concatenate(([0], np.cumsum(K + counts)))  # each path's first normal row, then the total
    normals = np.empty((int(rows[-1]), spec.d))
    for b, rng in enumerate(streams):
        rng.standard_normal(out=normals[rows[b * _BLOCK] : rows[min((b + 1) * _BLOCK, N)]])
    return counts, np.concatenate(uniforms), normals


def _atoms_from_draws(intensity: IntensityMeasure, T: float, counts: Array, uniforms: Array):
    """Flat atoms ``(atom_offsets, atom_times, atom_marks)`` from block draws.

    Path by path this is :func:`sample_jump_marks`: times are the sorted
    first ``c`` uniforms times ``T``; marks take the last ``c`` uniforms
    through the inverse CDF exactly as ``Generator.choice(m, p=...)`` does
    and stay in draw order; atoms at time 0 are dropped.
    """
    N = counts.size
    if not counts.any():  # also the zero-intensity case, which has no mark law
        return np.zeros(N + 1, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int16)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    path = np.repeat(np.arange(N), counts)
    flat = np.arange(path.size)
    time_u = uniforms[offsets[path] + flat]
    mark_u = uniforms[offsets[path + 1] + flat]
    times = time_u[np.lexsort((time_u, path))] * T
    cdf = intensity.mark_probabilities().cumsum()
    cdf /= cdf[-1]
    marks = (cdf.searchsorted(mark_u, side="right") + 1).astype(np.int16)
    keep = times > 0.0  # measure-zero guard: atoms live on (0, T]
    atom_offsets = np.concatenate(([0], np.cumsum(np.bincount(path[keep], minlength=N))))
    return atom_offsets, times[keep], marks[keep]


def simulate_paths(spec: ProblemSpec, N: int, h: float, seed: int) -> PathBundle:
    """Simulate ``N`` paths of the regime process and the Euler state.

    ``h`` must divide the horizon and ``seed`` be a non-negative integer.
    """
    if not _is_int(N) or N < 1:
        raise ValueError(f"path count must be an integer >= 1, got {N!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    T = spec.horizon
    K = _step_count(T, h)
    counts, uniforms, normals = _draw_blocks(spec, K, seed, N)

    atom_offsets, atom_times, atom_marks = _atoms_from_draws(spec.intensity, T, counts, uniforms)
    first_row = np.concatenate(([0], np.cumsum(K + counts)[:-1]))  # of each path's normals

    def increments(n_sub: Array) -> Callable[[Array, Array, Array], Array]:
        return lambda path, pos, dt: normals[first_row[path] + pos] * np.sqrt(dt)[:, None]

    return _build_bundle(spec, K, seed, atom_offsets, atom_times, atom_marks, increments)


def _build_bundle(
    spec: ProblemSpec,
    K: int,
    seed: int,
    atom_offsets: Array,
    atom_times: Array,
    atom_marks: Array,
    increments: Callable[[Array, Array, Array], Array],
) -> PathBundle:
    """Bundle from flat per-path atoms (sorted within each path, in (0, T]).

    An atom on a regular time, or on an earlier atom of its path, merges into
    that node, as ``np.unique`` of the regular and atom times would; call the
    other atoms new. A node's regime is the mark of the latest atom at or
    before it. ``increments(n_sub)``, given each path's sub-interval count,
    returns the function ``(path, pos, dt)`` giving the Brownian increments of
    the sub-intervals with those paths, positions in their path's grid and
    durations, one row each; that function is called twice per step, for the
    step's node rows and then for its inner rows.
    """
    d, m, T, N = spec.d, spec.m, spec.horizon, atom_offsets.size - 1
    regular = np.linspace(0.0, T, K + 1)
    atom_path = np.repeat(np.arange(N, dtype=np.int32), np.diff(atom_offsets))
    node = np.searchsorted(regular, atom_times, side="left")  # first regular time at or after the atom, >= 1

    latest = np.zeros((N, K + 1), dtype=np.int32)  # 1 + index of the latest atom at or before t_k
    np.maximum.at(latest, (atom_path, node), np.arange(1, atom_times.size + 1, dtype=np.int32))
    np.maximum.accumulate(latest, axis=1, out=latest)
    node_regime = np.concatenate(([spec.initial_regime], atom_marks)).astype(np.int16)[latest]
    del latest

    # runs of equal times within a path share one node; a new atom starts a run off the regular grid
    repeat = np.zeros(atom_times.size, dtype=bool)
    repeat[1:] = (atom_times[1:] == atom_times[:-1]) & (atom_path[1:] == atom_path[:-1])
    starts = np.flatnonzero(~repeat)
    run_last = np.append(starts[1:], atom_times.size) - 1
    off_grid = regular[node[starts]] != atom_times[starts]
    new, new_regime = starts[off_grid], atom_marks[run_last[off_grid]]
    new_step = node[new] - 1
    increment = increments(K + np.bincount(atom_path[new], minlength=N))
    order = np.argsort(new_step, kind="stable")  # step-major, path and time order kept within a step
    inner_path, inner_times, inner_regime = atom_path[new][order], atom_times[new][order], new_regime[order]
    by_step = np.searchsorted(new_step[order], np.arange(K + 1))
    step_offsets = by_step + N * np.arange(K + 1)

    S = int(step_offsets[-1])
    dt, regime, x, dw = np.empty(S), np.empty(S, dtype=np.int16), np.empty((S, d)), np.empty((S, d))
    state = np.tile(spec.initial_state, (N, 1))
    paths = np.arange(N, dtype=np.int32)
    earlier = np.zeros(N, dtype=int)  # inner rows of each path in the steps before
    for k in range(K):
        lo, hi = step_offsets[k], step_offsets[k + 1]
        t_k, t_next = regular[k], regular[k + 1]
        a = slice(by_step[k], by_step[k + 1])
        a_path, a_time = inner_path[a], inner_times[a]
        count = np.bincount(a_path, minlength=N)  # inner rows of each path in this step
        first = np.cumsum(count) - count  # each path's first inner row
        has = count > 0
        # a sub-interval ends where the next of its path starts: at the path's next atom, or at t_{k+1}
        i_n, dt_n, x_n, dw_n = regime[lo : lo + N], dt[lo : lo + N], x[lo : lo + N], dw[lo : lo + N]
        i_n[:] = node_regime[:, k]
        dt_n[:] = t_next
        dt_n[has] = a_time[first[has]]
        dt_n -= t_k
        dw_n[:] = increment(paths, k + earlier, dt_n)
        x_n[:] = state
        for i in np.unique(i_n):
            rows = np.flatnonzero(i_n == i)
            state[rows] = _euler_step(spec, int(i), x_n[rows], dt_n[rows], dw_n[rows])
        i_a, dt_a, x_a, dw_a = regime[lo + N : hi], dt[lo + N : hi], x[lo + N : hi], dw[lo + N : hi]
        i_a[:] = inner_regime[a]
        dt_a[:-1] = a_time[1:]
        dt_a[(first + count - 1)[has]] = t_next
        dt_a -= a_time
        rank = np.arange(a_path.size) - first[a_path]  # 0 for a path's first atom in the step
        dw_a[:] = increment(a_path, k + 1 + earlier[a_path] + rank, dt_a)
        earlier += count
        for r in range(int(count.max())):  # the r-th atoms of all paths that have one, in path order
            at = np.flatnonzero(rank == r)
            x_a[at] = state[a_path[at]]
            for i in np.unique(i_a[at]):
                rows = at[i_a[at] == i]
                state[a_path[rows]] = _euler_step(spec, int(i), x_a[rows], dt_a[rows], dw_a[rows])

    return PathBundle(
        h=T / K,
        K=K,
        N=N,
        d=d,
        m=m,
        T=T,
        seed=int(seed),
        step_offsets=step_offsets,
        dt=dt,
        regime=regime,
        x=x,
        dw=dw,
        inner_path=inner_path,
        inner_times=inner_times,
        x_T=state,
        i_T=node_regime[:, K].copy(),
        atom_offsets=atom_offsets,
        atom_times=atom_times,
        atom_marks=atom_marks,
    )


def bundle_from_paths(
    spec: ProblemSpec,
    h: float,
    atoms_per_path: Sequence[Sequence[tuple[float, int]]],
    dw_per_path: Optional[Sequence[Array]] = None,
) -> PathBundle:
    """Deterministic bundle from explicit atoms and Brownian increments.

    Intended for tests: ``atoms_per_path[p]`` lists ``(time, mark)`` atoms
    and ``dw_per_path[p]`` gives one increment row per sub-interval of the
    path's grid, in time order (zeros when omitted). Atoms at equal times, or
    on a regular time, share one grid node, whose regime is the mark of the
    last of them in ``(time, mark)`` order. The merge, the Euler recursion and
    the layout are those of :func:`simulate_paths`.
    """
    if dw_per_path is not None and len(dw_per_path) != len(atoms_per_path):
        raise ValueError(f"{len(dw_per_path)} increment arrays for {len(atoms_per_path)} paths")
    T = spec.horizon
    K = _step_count(T, h)
    offsets, times, marks = [0], [], []
    for p, atom_list in enumerate(atoms_per_path):
        atom_list = sorted(atom_list)
        if atom_list and atom_list[0][0] <= 0:
            raise ValueError(f"path {p} has an atom at a nonpositive time")
        if atom_list and atom_list[-1][0] > T:
            raise ValueError(f"path {p} has an atom beyond the horizon")
        if any(not 1 <= j <= spec.m for _, j in atom_list):
            raise ValueError(f"path {p} has a mark outside 1..{spec.m}")
        times.extend(float(t) for t, _ in atom_list)
        marks.extend(int(j) for _, j in atom_list)
        offsets.append(len(times))

    def increments(n_sub: Array) -> Callable[[Array, Array, Array], Array]:
        if dw_per_path is None:
            return lambda path, pos, dt: np.zeros((path.size, spec.d))
        rows = np.concatenate(
            [np.asarray(dw_per_path[p], dtype=float).reshape(n, spec.d) for p, n in enumerate(n_sub)]
        )
        first_row = np.cumsum(n_sub) - n_sub
        return lambda path, pos, dt: rows[first_row[path] + pos]

    return _build_bundle(
        spec,
        K,
        -1,
        np.asarray(offsets, dtype=np.int64),
        np.asarray(times, dtype=float),
        np.asarray(marks, dtype=np.int16),
        increments,
    )


def dump_paths_csv(bundle: PathBundle, path) -> None:
    """Write (path, s, regime, x_1..x_d) rows for every grid node, path by path in time order."""
    regime_T, x_T = bundle.nodes(bundle.K)
    paths, times = bundle._row_starts()
    order = np.argsort(paths, kind="stable")  # a path's rows are in time order: by step, its node row first
    bounds = np.searchsorted(paths[order], np.arange(bundle.N + 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,s,regime," + ",".join(f"x_{j+1}" for j in range(bundle.d)) + "\n")
        for p in range(bundle.N):
            rows = order[bounds[p] : bounds[p + 1]]
            nodes = zip(times[rows], bundle.regime[rows], bundle.x[rows])
            for s, regime, x in [*nodes, (bundle.T, regime_T[p], x_T[p])]:
                fh.write(f"{p},{float(s)!r},{int(regime)},{','.join(repr(float(v)) for v in x)}\n")
