"""Forward simulation of the regime process and the Euler state scheme.

The regime process is driven by a homogeneous marked Poisson stream: atoms
arrive at total rate ``Lambda = sum_j lambda_j``, each carrying an i.i.d.
mark ``j`` with probability ``lambda_j / Lambda``, and the regime jumps to
the mark at every atom. Atoms whose mark equals the current regime are
retained: they do not move the regime but they are counted by the
compensated jump measure. :func:`simulate_paths` is the only sampler of
this stream, and the bundle keeps every path's atoms (``atom_offsets``,
``atom_times``, ``atom_marks``), where the tests check the count and mark laws.

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
A vectorized build then stores each sub-interval once, step-major and
node-first (:class:`PathBundle`): a step's first ``N`` rows are the paths'
sub-intervals from ``t_k`` in path order, so only the few rows that start at
an atom inside the step store a path index, a start time and a duration.
The build takes two passes over the regular steps: the first writes the
regimes and Brownian increments, after which the normals are freed; the
second runs the Euler updates. At 50 000 switch2-linear paths and h = 0.02,
94 % of the rows are node rows, the bundle holds 25.8 MiB (35.3 MiB when
every row stored its duration), and ``tracemalloc`` peaks at 31.9 MiB while
simulating (58.3 MiB when the normals lived through the Euler updates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .problem import IntensityMeasure, ProblemSpec, _integer, _step_count

Array = np.ndarray

__all__ = [
    "PathBundle",
    "simulate_paths",
    "bundle_from_paths",
]


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
    them: step ``k``'s inner rows are ``inner_path``, ``inner_times`` and
    ``inner_dt`` at ``step_offsets[k] - k N : step_offsets[k+1] - (k+1) N``.
    ``regime[s]`` holds on its row's sub-interval ``[start, start + dt[s])``
    (right-continuous); ``x[s]`` is the state at its start and ``dw[s]`` its
    Brownian increment. The terminal node is ``(T, i_T, x_T)``. A node row's
    duration is not stored either: it runs to the path's first inner node of
    the step, or to ``t_{k+1}``. :meth:`step_segments` derives it for one
    step, and the ``dt`` property rebuilds every row's duration.

    With ``S`` rows and ``I`` inner rows the row arrays take
    ``S (2 + 16 d) + 20 I`` bytes; the atom, terminal and offset arrays
    come on top. At 50 000 switch2-linear paths and h = 0.02 (``S`` = 1 325 524,
    ``I`` = 75 524) that is 25.8 MiB in all.

    Only this module knows the layout: other code reads one regular step at a
    time, through :meth:`step_segments`, :meth:`nodes` and :meth:`step_increments`.
    """

    h: float
    K: int
    N: int
    d: int
    m: int
    T: float
    # sub-intervals, step by step: the N node rows, then the inner rows by (path, time)
    step_offsets: Array  # (K+1,) start of each step's rows
    regime: Array     # (S,) int16
    x: Array          # (S, d) state at the start
    dw: Array         # (S, d)
    inner_path: Array   # (I,) int32 path of each inner row
    inner_times: Array  # (I,) start time of each inner row
    inner_dt: Array     # (I,) duration of each inner row
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

    def _step_paths(self, k: int) -> Array:
        """Path index of each of step ``k``'s rows: ``0..N-1``, then the inner rows' paths."""
        return np.concatenate((np.arange(self.N, dtype=np.int32), self.inner_path[self._inner(k)]))

    def _step_dt(self, k: int, out: Array) -> Array:
        """Step ``k``'s row durations into ``out``: the node rows' derived as the build does, then the inner rows'."""
        inner = self._inner(k)
        t_k, t_next = self.regular[k : k + 2]
        _node_dt(out[: self.N], t_k, t_next, self.inner_path[inner], self.inner_times[inner])
        out[self.N :] = self.inner_dt[inner]
        return out

    def step_segments(self, k: int) -> tuple[Array, Array, Array]:
        """(path index, duration, regime) of step ``k``'s sub-intervals.

        The node rows come first, paths ``0..N-1``, so the first ``N``
        segments are the paths' first sub-intervals; the inner rows follow by
        path and then time.
        """
        lo, hi = self.step_offsets[k : k + 2]
        return self._step_paths(k), self._step_dt(k, np.empty(hi - lo)), self.regime[lo:hi]

    @property
    def dt(self) -> Array:
        """Every row's duration, in row order, rebuilt: only the inner rows store theirs."""
        dt = np.empty(self.regime.size)
        for k in range(self.K):
            self._step_dt(k, dt[self.step_offsets[k] : self.step_offsets[k + 1]])
        return dt

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
        paths = self._step_paths(k)
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
            paths.append(self._step_paths(k))
            times += [np.full(self.N, t_k), self.inner_times[self._inner(k)]]
        return np.concatenate(paths), np.concatenate(times)


def _node_dt(out: Array, t_k: float, t_next: float, inner_path: Array, inner_times: Array) -> Array:
    """One step's node-row durations into ``out`` (one entry per path).

    A path's node row ends at its first inner node of the step, or at
    ``t_{k+1}`` when it has none, and lasts that end minus ``t_k``;
    ``inner_path`` and ``inner_times`` are the step's inner rows, by path and
    then time.
    """
    out[:] = t_next - t_k
    first = np.ones(inner_path.size, dtype=bool)
    first[1:] = inner_path[1:] != inner_path[:-1]
    out[inner_path[first]] = inner_times[first] - t_k
    return out


def _euler_step(spec: ProblemSpec, i: int, x: Array, dt: Array, dw: Array) -> Array:
    """One Euler update for rows currently in regime i."""
    drift = np.asarray(spec.drift(i, x), dtype=float)
    vol = np.asarray(spec.vol(i, x), dtype=float)
    return x + drift * dt[:, None] + np.einsum("nij,nj->ni", vol, dw)


_BLOCK = 1024  # paths per substream


def _draw_blocks(spec: ProblemSpec, K: int, seed: int, N: int) -> tuple[Array, Array, Callable[[], Array]]:
    """Raw draws of paths ``[0, N)``: atom counts, uniforms, and a function drawing the normals.

    Block ``b`` (paths ``b * _BLOCK`` to ``(b + 1) * _BLOCK - 1``) draws from
    ``default_rng(SeedSequence(seed, spawn_key=(b,)))``, in order: the Poisson
    atom counts of all its paths, even those at or past ``N``; ``2c`` uniforms
    per path in path order (the atom times, then the marks, as
    :func:`_atoms_from_draws` reads them); then ``(K + c) * d`` standard
    normals per path below ``N``, in path order, one row per sub-interval the
    path's grid can have. The normals come last because only paths below ``N``
    take them, so path ``p``'s draws depend on ``seed`` and ``p`` alone. The
    rows a path leaves unused when atoms merge with grid nodes are skipped.

    Each block's counts and uniforms are drawn here. The returned function,
    called once, has each block's generator write its normals into its rows
    of one new array, so the normals live only as long as its caller holds them.
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

    def draw_normals() -> Array:
        normals = np.empty((int(rows[-1]), spec.d))
        for b, rng in enumerate(streams):
            rng.standard_normal(out=normals[rows[b * _BLOCK] : rows[min((b + 1) * _BLOCK, N)]])
        return normals

    return counts, np.concatenate(uniforms), draw_normals


def _atoms_from_draws(intensity: IntensityMeasure, T: float, counts: Array, uniforms: Array):
    """Flat atoms ``(atom_offsets, atom_times, atom_marks)`` from block draws.

    A path with ``c`` atoms owns ``2c`` consecutive uniforms: its times are
    the sorted first ``c`` times ``T``; its marks take the last ``c`` through
    the inverse CDF exactly as ``Generator.choice(m, p=...)`` does and stay
    in draw order; atoms at time 0 are dropped.
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

    ``N`` must be an integer >= 1, ``h`` divide the horizon and ``seed`` be
    a nonnegative integer.
    """
    N, seed = _integer(N, "path count", 1), _integer(seed, "seed")
    T = spec.horizon
    K = _step_count(T, h, "step")
    counts, uniforms, draw_normals = _draw_blocks(spec, K, seed, N)

    atom_offsets, atom_times, atom_marks = _atoms_from_draws(spec.intensity, T, counts, uniforms)
    first_row = np.concatenate(([0], np.cumsum(K + counts)[:-1]))  # of each path's normals
    del counts, uniforms

    def increments(n_sub: Array) -> Callable[[Array, Array, Array], Array]:
        normals = draw_normals()  # held by the returned function alone: the build's del frees them
        return lambda path, pos, dt: normals[first_row[path] + pos] * np.sqrt(dt)[:, None]

    return _build_bundle(spec, K, atom_offsets, atom_times, atom_marks, increments)


def _build_bundle(
    spec: ProblemSpec,
    K: int,
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

    The build runs in two passes over the steps. The first fills what does
    not depend on the state: ``regime``, ``dw`` and the inner rows'
    durations. The increment function, with the normals it holds, and the
    regimes at the regular times are then dropped, so the second pass, which
    allocates ``x`` and runs the Euler updates, holds only the bundle's
    arrays. A node row's duration is not stored: :func:`_node_dt` derives it
    in each pass, as :meth:`PathBundle.step_segments` does.
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
    order = np.argsort(new_step, kind="stable")  # step-major, path and time order kept within a step
    inner_path, inner_times, inner_regime = atom_path[new][order], atom_times[new][order], new_regime[order]
    by_step = np.searchsorted(new_step[order], np.arange(K + 1))
    step_offsets = by_step + N * np.arange(K + 1)
    increment = increments(K + np.bincount(atom_path[new], minlength=N))
    del atom_path, node, repeat, starts, run_last, off_grid, new, new_regime, new_step, order

    S, I = int(step_offsets[-1]), inner_path.size
    regime, dw, inner_dt = np.empty(S, dtype=np.int16), np.empty((S, d)), np.empty(I)
    rank = np.empty(I, dtype=np.int32)  # of an inner row among its path's in its step, 0 for the first
    paths = np.arange(N, dtype=np.int32)
    dt_n = np.empty(N)  # the node rows' durations of one step
    earlier = np.zeros(N, dtype=int)  # inner rows of each path in the steps before
    for k in range(K):  # pass 1: regimes, increments and inner durations
        lo, hi = step_offsets[k], step_offsets[k + 1]
        a = slice(by_step[k], by_step[k + 1])
        a_path, a_time, dt_a = inner_path[a], inner_times[a], inner_dt[a]
        count = np.bincount(a_path, minlength=N)  # inner rows of each path in this step
        first = np.cumsum(count) - count  # each path's first inner row
        regime[lo : lo + N] = node_regime[:, k]
        _node_dt(dt_n, regular[k], regular[k + 1], a_path, a_time)
        dw[lo : lo + N] = increment(paths, k + earlier, dt_n)
        # an inner sub-interval ends where the next of its path starts: at the path's next atom, or at t_{k+1}
        regime[lo + N : hi] = inner_regime[a]
        dt_a[:-1] = a_time[1:]
        dt_a[(first + count - 1)[count > 0]] = regular[k + 1]
        dt_a -= a_time
        rank[a] = np.arange(a_path.size) - first[a_path]
        dw[lo + N : hi] = increment(a_path, k + 1 + earlier[a_path] + rank[a], dt_a)
        earlier += count
    i_T = node_regime[:, K].copy()
    del increment, node_regime, inner_regime, earlier, count, first

    x = np.empty((S, d))
    state = np.tile(spec.initial_state, (N, 1))
    for k in range(K):  # pass 2: the Euler updates, the node rows' and then the inner rows' by rank
        lo, hi = step_offsets[k], step_offsets[k + 1]
        a = slice(by_step[k], by_step[k + 1])
        a_path, a_rank = inner_path[a], rank[a]
        i_n, x_n, dw_n = regime[lo : lo + N], x[lo : lo + N], dw[lo : lo + N]
        _node_dt(dt_n, regular[k], regular[k + 1], a_path, inner_times[a])
        x_n[:] = state
        for i in np.unique(i_n):
            rows = np.flatnonzero(i_n == i)
            state[rows] = _euler_step(spec, int(i), x_n[rows], dt_n[rows], dw_n[rows])
        i_a, dt_a, x_a, dw_a = regime[lo + N : hi], inner_dt[a], x[lo + N : hi], dw[lo + N : hi]
        for r in range(int(a_rank.max(initial=-1)) + 1):  # the r-th atoms of all paths that have one, in path order
            at = np.flatnonzero(a_rank == r)
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
        step_offsets=step_offsets,
        regime=regime,
        x=x,
        dw=dw,
        inner_path=inner_path,
        inner_times=inner_times,
        inner_dt=inner_dt,
        x_T=state,
        i_T=i_T,
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
    K = _step_count(T, h, "step")
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
        np.asarray(offsets, dtype=np.int64),
        np.asarray(times, dtype=float),
        np.asarray(marks, dtype=np.int16),
        increments,
    )


def dump_paths_csv(bundle: PathBundle, path) -> None:
    """Write (path, s, regime, x_1..x_d) rows for every grid node, path by path in time order.

    Each path's rows are formatted column by column, from one ``tolist()`` per column.
    """
    regime_T, x_T = bundle.nodes(bundle.K)
    paths, times = bundle._row_starts()
    order = np.argsort(paths, kind="stable")  # a path's rows are in time order: by step, its node row first
    bounds = np.searchsorted(paths[order], np.arange(bundle.N + 1))
    T = float(bundle.T)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,s,regime," + ",".join(f"x_{j+1}" for j in range(bundle.d)) + "\n")
        for p in range(bundle.N):
            rows = order[bounds[p] : bounds[p + 1]]
            columns = (
                itertools.repeat(str(p)),
                map(repr, times[rows].tolist() + [T]),
                map(str, bundle.regime[rows].tolist() + [int(regime_T[p])]),
                *(map(repr, bundle.x[rows, j].tolist() + [float(x_T[p, j])]) for j in range(bundle.d)),
            )
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
