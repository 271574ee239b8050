"""Ground-truth engines: exact chain dynamic programming and finite differences.

``lattice_dp_solve`` evaluates the backward scheme on an enumerated chain by
direct per-node dynamic programming. It is an independent second
implementation of the recursion in :mod:`switchbsde.backward` (exact mode):
the two share only the chain object, so agreement validates both.

``fd_solve`` solves the coupled obstacle system for switching-form problems
on a one-dimensional grid with a Crank-Nicolson step per regime. Its
banded matrix is solved in numpy alone, by a one-level SPIKE partition: the
diagonal blocks and the small reduced system are inverted once, for all
regimes together, so a step is three small batched matrix products. Projection mode
applies the switching obstacle ``v_i >= max_j (v_j - c_ij)`` after each
linear step as one :func:`facelift_terminal` sweep; penalized mode adds the
penalty implicitly through a per-node scalar solve, vectorized over regimes,
which keeps the values monotone in the penalty level for any step size and
converges to the projection update as the level grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .backward import DivergenceError, _check_built_for
from .lattice import LatticeChain, LatticeSpec, build_lattice_chain
from .problem import ProblemSpec, _integer, _step_count, check_regime

Array = np.ndarray

__all__ = [
    "LatticeSpec",
    "LatticeChain",
    "build_lattice_chain",
    "LatticeSolution",
    "lattice_dp_solve",
    "GridSolution",
    "facelift_terminal",
    "default_grid",
    "check_fd_inputs",
    "fd_solve",
    "oracle_compare",
    "CompareReport",
]


# ---------------------------------------------------------------------------
# exact dynamic programming on the chain


@dataclass
class LatticeSolution:
    """Per-node values of the scheme computed by direct enumeration.

    ``values[k]`` are the node values at step k; ``u[k]`` the re-based jump
    offsets, ``proxies[k][:, j-1]`` the Brownian-only continuation of regime
    j's next-step values (the step-(k+1) value of regime j seen from the
    node), and ``z[k]`` the gradient proxies.
    """

    chain: LatticeChain
    y0: float
    values: list[Array]
    z: list[Array]
    u: list[Array]
    proxies: list[Array]


def lattice_dp_solve(spec: ProblemSpec, lattice: LatticeSpec | LatticeChain, n: int = 0) -> LatticeSolution:
    """Evaluate the penalized backward recursion exactly on the chain.

    Raises :class:`DivergenceError` under the backward pass's guards: when a
    problem with a growth bound ``(c0, c1)`` gets a step's value
    ``|v| > 10 (c0 + c1 |x|)`` at one of the step's nodes, as the explicit
    penalty step does past ``n * Lambda * h ~ 1``, and when a step's values
    are not finite, with or without a growth bound. Refuses the levels
    :class:`SchemeConfig` refuses, and a chain built from a problem of
    another shape or horizon, as the backward pass does.
    """
    n = _integer(n, "penalization level")
    chain = lattice if isinstance(lattice, LatticeChain) else build_lattice_chain(spec, lattice)
    _check_built_for(spec, chain, "chain")
    lam = spec.intensity.weights
    spec.intensity.require_positive()
    h = chain.h
    K = chain.K

    terminal_nodes = chain.nodes[K]
    v = np.empty(terminal_nodes.regime.size)
    for i in np.unique(terminal_nodes.regime):
        rows = np.flatnonzero(terminal_nodes.regime == i)
        v[rows] = spec.terminal(int(i), terminal_nodes.x[rows])

    values: list[Array] = [None] * (K + 1)
    zs: list[Array] = [None] * K
    us: list[Array] = [None] * K
    proxies: list[Array] = [None] * K
    values[K] = v

    for k in range(K - 1, -1, -1):
        nodes = chain.nodes[k]
        es = chain.edges[k]
        tail, prob, dw, counts = es.tail, es.prob, es.dw, es.counts  # each expanded once per step
        n_nodes = nodes.regime.size
        v_head = np.take(v, es.head)  # take() reads int32 indices without the slow path of v[...]

        def reduce(weights: Array) -> Array:
            # bincount adds in edge order from zero, as np.add.at into zeros does
            return np.bincount(tail, weights, n_nodes)

        z = np.stack([reduce(prob * v_head * dw[:, c]) / h for c in range(chain.d)], axis=1)

        u_raw = np.empty((n_nodes, chain.m))
        proxy = np.empty((n_nodes, chain.m))
        for j in range(1, chain.m + 1):
            comp = counts[:, j - 1] - lam[j - 1] * h
            u_raw[:, j - 1] = reduce(prob * v_head * comp) / (lam[j - 1] * h)
            mark_edges = counts[:, j - 1] > 0
            proxy[:, j - 1] = reduce(np.where(mark_edges, prob * v_head / (lam[j - 1] * h), 0.0))
        own = u_raw[np.arange(n_nodes), nodes.regime - 1]
        u = u_raw - own[:, None]

        # one sub-interval per step (atoms sit at step ends): the integrand is
        # evaluated at the tail regime with the edge's next-step value, and
        # the jump compensator sum_j lambda_j (yvec_j - yvec_r) is removed
        f_edge = np.empty(tail.size)
        tail_regime = nodes.regime[tail]
        for r in np.unique(tail_regime):
            rows = np.flatnonzero(tail_regime == r)
            yvec = v_head[rows][:, None] + u[tail[rows]]
            yvec[:, r - 1] = v_head[rows]
            x_rows = nodes.x[tail[rows]]
            z_rows = z[tail[rows]]
            compensator = yvec @ lam - lam.sum() * yvec[:, r - 1]
            fv = np.asarray(spec.driver(int(r), x_rows, yvec, z_rows), dtype=float) - compensator
            if n > 0:
                pen = np.zeros(rows.size)
                for j in range(1, chain.m + 1):
                    hval = spec.constraint(int(r), j, x_rows, yvec[:, r - 1], yvec[:, j - 1], z_rows)
                    pen += lam[j - 1] * np.maximum(-np.asarray(hval, dtype=float), 0.0)
                fv = fv + n * pen
            f_edge[rows] = fv

        v = reduce(prob * (v_head + h * f_edge))
        if spec.growth_bound is not None and np.any(np.abs(v) > 10.0 * spec.growth_radius(nodes.x)):
            raise DivergenceError(f"DP value exceeded 10x the growth bound at step {k}")
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"non-finite DP value at step {k}")
        values[k], zs[k], us[k], proxies[k] = v, z, u, proxy

    return LatticeSolution(chain=chain, y0=float(values[0][0]), values=values, z=zs, u=us, proxies=proxies)


# ---------------------------------------------------------------------------
# finite differences for switching-form problems (d = 1)


@dataclass
class GridSolution:
    """Value arrays on a fixed space-time grid, one sheet per regime."""

    times: Array            # (n_t + 1,)
    xs: Array               # (M + 1,)
    values: Array           # (m, n_t + 1, M + 1)
    mode: str
    penalization: Optional[int] = None

    def value_at(self, t: float, i: int, x: float) -> float:
        """Linear interpolation in x at a grid time; refuses extrapolation and a regime outside ``1..m``."""
        i = check_regime(i, self.values.shape[0])
        kt = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[kt] - t) > 1e-9 * max(1.0, self.times[-1]):
            raise ValueError(f"time {t} is not on the oracle grid")
        if not (self.xs[0] - 1e-12 <= x <= self.xs[-1] + 1e-12):
            raise ValueError(f"state {x} outside the oracle grid; extrapolation refused")
        return float(np.interp(x, self.xs, self.values[i - 1, kt]))


def facelift_terminal(g: Array, costs: Array) -> Array:
    """Smallest data dominating g and compatible with switching.

    ``g`` has shape (m, n_x); one sweep of ``max(g_i, max_j g_j - c_ij)``
    suffices (and is idempotent) under the strict triangle condition that
    :class:`SwitchingCosts` enforces. Its zero diagonal makes the ``j = i``
    term ``g_i`` itself, so the sweep is one maximum over ``g_j - c_ij``.
    ``fd_solve`` applies it to the terminal data and, in projection mode,
    after every time step.
    """
    g = np.asarray(g, dtype=float)
    return (g[None] - costs[:, :, None]).max(axis=1)


def default_grid(spec: ProblemSpec, M: int = 400) -> tuple[int, float, float]:
    """Grid covering about four standard deviations around the start point.

    Wide enough that the mass escaping the domain is negligible at the
    start point, narrow enough to keep the node spacing useful.
    """
    probe = spec.initial_state[None, :]
    sig = max(float(np.asarray(spec.vol(i, probe))[0, 0, 0]) for i in range(1, spec.m + 1))
    bmax = max(abs(float(np.asarray(spec.drift(i, probe))[0, 0])) for i in range(1, spec.m + 1))
    radius = 4.0 * max(sig, 1e-3) * np.sqrt(spec.horizon) + bmax * spec.horizon
    x0 = float(spec.initial_state[0])
    return M, x0 - radius, x0 + radius


def _implicit_penalty_update(costs: Array, lam: Array, n: int, dt: float) -> Callable[[Array], Array]:
    """The map ``vhat -> v`` solving ``v_i = vhat_i + dt n sum_j lam_j max((vhat_j - c_ij) - v_i, 0)``.

    The left side is increasing and the right side non-increasing in
    ``v_i``, so the root is unique. Keeping only the q largest obstacles
    ``o_j = vhat_j - c_ij`` (j != i) and dropping the ``max`` gives the linear
    candidate ``(vhat_i + a sum_q lam_j o_j) / (1 + a sum_q lam_j)``, with
    ``a = dt n``; every candidate is at most the root, and the one for the
    active set equals it, so the root is the largest candidate (q = 0 gives
    ``vhat_i``). With two regimes that is
    ``max(vhat_i, (vhat_i + a lam_j o_j) / (1 + a lam_j))``, with no sort.
    Monotone in ``vhat``, the obstacles and ``n``, and tends to
    ``max(vhat_i, max_j vhat_j - c_ij)`` as n grows. The index and cost
    gathers depend on the regimes only and are built here once; the
    returned map does the per-node work of one time step.
    """
    m = costs.shape[0]
    a = dt * float(n)
    # row i lists the regimes j != i, in increasing order
    others = np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)
    other_costs = costs[np.arange(m)[:, None], others][..., None]
    other_lam = lam[others][..., None]

    def update(vhat: Array) -> Array:
        obstacles = vhat[others] - other_costs  # (m, m - 1, nx)
        weights = other_lam
        if m > 2:  # order each regime's obstacles, largest first; one needs no sort
            order = np.argsort(-obstacles, axis=1)
            obstacles = np.take_along_axis(obstacles, order, axis=1)
            weights = np.take_along_axis(other_lam, order, axis=1)
        v = vhat.copy()
        lam_cum = weighted_cum = 0.0
        for q in range(m - 1):
            lam_cum = lam_cum + weights[:, q]
            weighted_cum = weighted_cum + weights[:, q] * obstacles[:, q]
            np.maximum(v, (vhat + a * weighted_cum) / (1.0 + a * lam_cum), out=v)
        return v

    return update


def _spike_solver(stencil: Array, cols: Array) -> Callable[[Array], Array]:
    """The map ``v -> A^{-1} v`` for one banded matrix ``A`` per regime, by one-level SPIKE.

    ``stencil`` (m, N, 3) holds the matrices' rows: row r of regime i weighs
    the nodes ``cols[r]`` of :func:`fd_solve`. The N nodes are split into p
    blocks of s, about sqrt(N), nodes; the last block is padded with
    identity rows and holds at least three nodes, so the two end rows, which
    reach two nodes away, lie inside their blocks. A block's only links to
    its neighbours are then its last row's entry at the next block's first
    node and its first row's entry at the previous block's last node. With
    ``D`` the block diagonal, ``D^{-1} A`` is the identity plus one spike per
    link (a column of the block's inverse times the link's entry), so each
    block's first and last unknowns solve a 2p x 2p reduced system whose
    right-hand side is the first and last entries of ``D^{-1} v``
    (Polizzi and Sameh, Parallel Computing 32, 2006). Moving the links, with
    those unknowns, to the right-hand side leaves one solve per block.

    The blocks and the reduced systems are inverted here once, all regimes
    stacked; the returned map costs three batched matrix products over the
    blocks. Raises ValueError when a regime's diagonal block or reduced
    system is singular.
    """
    m, n_nodes = stencil.shape[:2]
    s = max(3, math.isqrt(n_nodes - 1) + 1)
    while n_nodes % s in (1, 2):  # the last block would hold fewer than three nodes
        s += 1
    p = -(-n_nodes // s)
    rows = np.repeat(np.arange(n_nodes), 3)
    cols = cols.ravel()
    entries = stencil.reshape(m, -1)
    row_block, col_block = rows // s, cols // s
    inside, up, down = (col_block == row_block), (col_block > row_block), (col_block < row_block)
    blocks = np.zeros((m, p, s, s))
    blocks[:, row_block[inside], rows[inside] % s, cols[inside] % s] = entries[:, inside]
    pad = np.arange(n_nodes - (p - 1) * s, s)
    blocks[:, p - 1, pad, pad] = 1.0
    to_next, to_prev = np.zeros((m, p)), np.zeros((m, p))
    to_next[:, row_block[up]] = entries[:, up]
    to_prev[:, row_block[down]] = entries[:, down]

    # unknowns 2j and 2j + 1 of the reduced system are block j's first and
    # last node. Row 2j of `links` maps the reduced right-hand side to what
    # block j's first row moves to its right-hand side (its link times
    # unknown 2j - 1), row 2j + 1 the same for its last row and unknown 2j + 2
    inverse = np.empty_like(blocks)
    links = np.zeros((m, 2 * p, 2 * p))
    j = np.arange(p - 1)
    for i in range(m):
        try:
            inverse[i] = np.linalg.inv(blocks[i])
            system = np.eye(2 * p)
            system[2 * j, 2 * j + 2] = inverse[i, :-1, 0, -1] * to_next[i, :-1]
            system[2 * j + 1, 2 * j + 2] = inverse[i, :-1, -1, -1] * to_next[i, :-1]
            system[2 * j + 2, 2 * j + 1] = inverse[i, 1:, 0, 0] * to_prev[i, 1:]
            system[2 * j + 3, 2 * j + 1] = inverse[i, 1:, -1, 0] * to_prev[i, 1:]
            reduced = np.linalg.inv(system)
        except np.linalg.LinAlgError:
            raise ValueError(f"Crank-Nicolson matrix of regime {i + 1} is singular") from None
        links[i, 2 * j + 2] = -to_prev[i, 1:, None] * reduced[2 * j + 1]
        links[i, 2 * j + 1] = -to_next[i, :-1, None] * reduced[2 * j + 2]
    end_rows = np.ascontiguousarray(inverse[:, :, :: s - 1])  # each block's first and last row
    rhs = np.zeros((m, p, s, 1))  # the pad rows stay zero
    flat, ends = rhs.reshape(m, p * s), rhs[:, :, :: s - 1, 0]

    def solve(v: Array) -> Array:
        flat[:, :n_nodes] = v
        ends[...] += np.matmul(links, np.matmul(end_rows, rhs).reshape(m, 2 * p, 1)).reshape(m, p, 2)
        return np.matmul(inverse, rhs).reshape(m, p * s)[:, :n_nodes]

    return solve


def check_fd_inputs(
    spec: ProblemSpec,
    grid: tuple[int, float, float],
    dt: float,
    mode: str,
    penalization: Optional[int],
) -> int:
    """Refuse what :func:`fd_solve` cannot run (ValueError); returns the time-step count."""
    if spec.d != 1:
        raise ValueError("finite-difference oracle supports d = 1 only")
    if spec.switching_costs is None:
        raise ValueError("finite-difference oracle needs a switching-form problem")
    if mode not in ("projection", "penalized"):
        raise ValueError(f"unknown fd mode {mode!r}")
    if mode == "penalized":
        _integer(penalization, "penalization level")
    elif penalization is not None:
        raise ValueError("projection mode takes no penalization level")
    M, x_min, x_max = grid
    if _integer(M, "grid node count M") < 4 or not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
        raise ValueError("grid must have at least 5 nodes and finite x_min < x_max")
    return _step_count(spec.horizon, dt, "time step")


def fd_solve(
    spec: ProblemSpec,
    grid: tuple[int, float, float],
    dt: float,
    mode: str = "projection",
    penalization: Optional[int] = None,
) -> GridSolution:
    """Crank-Nicolson solve of the coupled switching system on a 1-d grid.

    ``grid = (M, x_min, x_max)``. Boundary rows evaluate the generator with
    one-sided stencils (no artificial Dirichlet data). ``mode`` is
    ``"projection"`` or ``"penalized"``: the latter needs a ``penalization``
    level, the former takes none.
    The time grid steps backward from the face-lifted terminal data.
    Each step applies ``2 A^{-1} - I`` to the next step's values, with
    ``A = I - dt/2 G``, and adds the precomputed ``A^{-1} dt f``. ``A^{-1}``
    is a one-level SPIKE solve (:func:`_spike_solver`), all regimes in one
    batch; a regime's values do not depend on the other regimes' stencils.
    """
    n_t = check_fd_inputs(spec, grid, dt, mode, penalization)
    M, x_min, x_max = grid
    T = spec.horizon
    dt = T / n_t
    half = 0.5 * dt
    xs = np.linspace(x_min, x_max, M + 1)
    dx = xs[1] - xs[0]
    m = spec.m
    lam = spec.intensity.weights
    costs = spec.switching_costs.costs

    x2d = xs[:, None]
    drift = np.stack([np.asarray(spec.drift(i, x2d), dtype=float)[:, 0] for i in range(1, m + 1)])
    diff2 = np.stack([np.asarray(spec.vol(i, x2d), dtype=float)[:, 0, 0] ** 2 for i in range(1, m + 1)])
    zeros_vals = np.zeros((M + 1, m))
    zeros_z = np.zeros((M + 1, 1))
    source = np.stack(
        [np.asarray(spec.driver(i, x2d, zeros_vals, zeros_z), dtype=float) for i in range(1, m + 1)]
    )

    # Generator row r of regime i weighs v[cols[r]] by w[i, r]. Interior rows
    # are central; the two end rows use the shifted 3-point first and second
    # differences, both exact on quadratics, so no artificial boundary layer
    # forms. They reach one node past the tridiagonal band.
    rows = np.arange(M + 1)
    cols = np.clip(rows - 1, 0, M - 2)[:, None] + np.arange(3)
    first = np.tile([-1.0, 0.0, 1.0], (M + 1, 1))
    first[0], first[M] = [-3.0, 4.0, -1.0], [1.0, -4.0, 3.0]
    second = np.array([1.0, -2.0, 1.0])
    w = (diff2 / (2 * dx**2))[..., None] * second + (drift / (2 * dx))[..., None] * first

    # A step solves A v_k = B v_{k+1} + dt f with A = I - dt/2 G and
    # B = I + dt/2 G = 2 I - A, so v_k = 2 A^{-1} v_{k+1} - v_{k+1} + A^{-1} dt f;
    # the last term is the same at every step. A is a stencil like w, row r's
    # own node at position r - cols[r, 0].
    implicit = -half * w
    implicit[:, rows, rows - cols[:, 0]] += 1.0
    solve = _spike_solver(implicit, cols)
    solved_source = solve(dt * source)

    if mode == "projection":
        constrain = partial(facelift_terminal, costs=costs)
    else:
        constrain = _implicit_penalty_update(costs, lam, penalization, dt)
    g = np.stack([np.asarray(spec.terminal(i, x2d), dtype=float) for i in range(1, m + 1)])
    v = facelift_terminal(g, costs)
    values = np.empty((m, n_t + 1, M + 1))
    values[:, n_t] = v
    bound = None
    if spec.growth_bound is not None:
        c0, c1 = spec.growth_bound
        bound = 10.0 * (c0 + c1 * np.abs(xs))

    for step in range(n_t - 1, -1, -1):
        vhat = solve(v)
        vhat *= 2.0
        vhat -= v
        vhat += solved_source
        v = constrain(vhat)
        # one reduction per step (NaN fails it too); the message is chosen on failure
        if not (np.isfinite(v).all() if bound is None else (np.abs(v) <= bound).all()):
            if bound is not None and np.any(np.abs(v) > bound):
                raise DivergenceError(f"finite-difference values exceeded 10x the growth bound at t-step {step}")
            raise DivergenceError(f"finite-difference values became non-finite at t-step {step}")
        values[:, step] = v

    times = np.linspace(0.0, T, n_t + 1)
    return GridSolution(
        times=times,
        xs=xs,
        values=values,
        mode=mode,
        penalization=penalization,
    )


# ---------------------------------------------------------------------------
# cross-engine comparison


@dataclass
class CompareReport:
    value: float
    oracle_value: float
    abs_gap: float
    rel_gap: float
    at: tuple[float, int, float]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "oracle_value": self.oracle_value,
            "abs_gap": self.abs_gap,
            "rel_gap": self.rel_gap,
            "at": {"t": self.at[0], "regime": self.at[1], "x": self.at[2]},
        }


def oracle_compare(result, gridsol: GridSolution, at: tuple[float, int, float]) -> CompareReport:
    """Gap between a solver value and the grid oracle at one point.

    ``result`` is a :class:`SolveResult` (its ``y0`` is used) or a plain
    number. The oracle value is interpolated linearly in x; points off the
    grid, and a regime outside ``1..m``, are refused.
    """
    t, regime, x = at
    value = float(result.y0) if hasattr(result, "y0") else float(result)
    oracle_value = gridsol.value_at(t, regime, float(x))
    abs_gap = abs(value - oracle_value)
    denom = max(abs(oracle_value), 1e-12)
    return CompareReport(
        value=value,
        oracle_value=oracle_value,
        abs_gap=abs_gap,
        rel_gap=abs_gap / denom,
        at=(float(t), int(regime), float(x)),
    )
