"""Backward induction for the penalized system on simulated or enumerated paths.

Stepping backward from the terminal payoff, each step estimates

* the gradient proxy ``Z_k = E_k[Y_{k+1} (W_{k+1} - W_k)] / h`` componentwise,
* the jump offsets ``U_k(j) = E_k[Y_{k+1} mu~_k(j)] / (lambda_j h)`` per mark,
  where ``mu~_k(j)`` is the compensated mark-j count over the step,
* the value ``Y_k = E_k[Y_{k+1} + int f^n ds]`` with the penalized driver
  integrated exactly over the step's regime segmentation (state frozen at
  ``X_k``, regime varying with the path).

Conditional expectations ``E_k`` are either least-squares projections on a
basis at ``(I_k, X_k)`` (Monte Carlo mode, :class:`PathBundle` input) or
exact transition averages (enumerated mode, :class:`LatticeChain` input).
The backward code path is identical in both modes. At ``k = 0`` all paths
share the initial state, so the estimate degenerates to the plain sample
mean by construction.

After prediction the jump offsets are re-based: the own-regime component is
subtracted from every component, which zeroes it exactly and makes the
offsets consistent estimates of the cross-regime value differences.

Every per-step operation works on several penalization levels at once: its
arrays carry a leading level axis, and a single level is the one-row case.
One private driver runs the pass for a list of levels and returns one
:class:`SolveResult` per level; :func:`solve_backward` is its one-level
call and :func:`penalization_ladder` reads its results for the whole
schedule. A step's view, design and Gram factors are built once for all
levels. Products and sums still run level by level, each on its level's
contiguous slice as a one-level pass has it, because batched ones need not
round the same; so every level of a ladder is bit for bit its own solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .forward import PathBundle
from .lattice import LatticeChain
from .problem import ProblemSpec, _is_int, constraint_values, penalty_batch
from .regression import BasisSpec, build_design, ols_fit

Array = np.ndarray

__all__ = [
    "SchemeConfig",
    "SolveResult",
    "ConvergenceReport",
    "DivergenceError",
    "estimate_z",
    "estimate_u",
    "step_y",
    "solve_backward",
    "penalization_ladder",
    "skorohod_residual",
]


class DivergenceError(RuntimeError):
    """Numerical abort: estimates left the plausible range."""


@dataclass(frozen=True)
class SchemeConfig:
    """Resolution knobs of one backward solve."""

    h: float
    n: int = 0
    paths: int = 10_000
    basis: BasisSpec = field(default_factory=BasisSpec)
    ridge: Optional[float] = None
    clip_to_growth_bound: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"penalization level must be a nonnegative integer, got {self.n!r}")
        if not _is_int(self.paths) or self.paths < 1:
            raise ValueError(f"path count must be an integer >= 1, got {self.paths!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"time step must be finite and positive, got {self.h!r}")
        if self.ridge is not None and not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError("ridge must be None or a finite nonnegative number")

    def echo(self) -> dict:
        return {
            "h": self.h,
            "n": self.n,
            "paths": self.paths,
            "basis": {
                "kind": self.basis.kind,
                "degree": self.basis.degree,
                "stratify_by_regime": self.basis.stratify_by_regime,
            },
            "ridge": self.ridge,
            "clip_to_growth_bound": self.clip_to_growth_bound,
            "seed": self.seed,
        }


@dataclass
class FitRecord:
    """Diagnostics of one per-step regression fit of one target column at one level."""

    step: int
    family: str
    stratum: int
    sample_count: int
    gram_condition: float
    residual_mse: float
    rank_deficient: bool


# ---------------------------------------------------------------------------
# ensembles: a uniform per-step view over Monte Carlo paths and chain nodes


@dataclass
class _StepView:
    """One Monte Carlo step's arrays, built once and shared by all of that step's operations."""

    k: int
    regimes: Array           # (N,) int regime at t_k
    xs: Array                # (N, d) state at t_k
    dw: Optional[Array]      # (N, d) Brownian increment over the step; None at k = K
    counts: Optional[Array]  # (N, m) float mark counts over the step; None at k = K
    strata: Array            # regimes present at t_k, increasing
    blocks: Optional[dict] = None  # design blocks, built by the step's first fit


class MonteCarloEnsemble:
    """Per-step view of a :class:`PathBundle` with OLS conditional expectations.

    The arrays of one step (regimes, states, increments, float counts, strata,
    design blocks and their Gram factors) live in a :class:`_StepView` that is
    built on the step's first access, from the bundle's per-step reads, and
    replaced when another step is asked for: one step is alive at a time.
    """

    exact = False

    def __init__(self, spec: ProblemSpec, bundle: PathBundle, basis: BasisSpec, ridge: Optional[float]):
        if bundle.m != spec.m or bundle.d != spec.d:
            raise ValueError("bundle was generated from a different problem shape")
        if abs(bundle.T - spec.horizon) > 1e-9:
            raise ValueError("bundle horizon does not match the problem")
        self.spec = spec
        self.bundle = bundle
        self.basis = basis
        self.ridge = ridge
        self.h = bundle.h
        self.n_steps = bundle.K
        self._step: Optional[_StepView] = None
        self._arange = np.arange(bundle.N)
        self._weights = np.full(bundle.N, 1.0 / bundle.N)
        self._weights.flags.writeable = False

    def _view(self, k: int) -> _StepView:
        if self._step is None or self._step.k != k:
            self._step = None  # release the previous step before building this one
            regimes, xs = self.bundle.nodes(k)
            dw, counts = self.bundle.step_increments(k) if k < self.n_steps else (None, None)
            self._step = _StepView(
                k=k,
                regimes=regimes.astype(int),
                xs=xs,
                dw=dw,
                counts=None if counts is None else counts.astype(float),
                strata=np.flatnonzero(np.bincount(regimes)),
            )
        return self._step

    def n_units(self, k: int) -> int:
        return self.bundle.N

    def states(self, k: int):
        view = self._view(k)
        return view.regimes, view.xs

    def unit_weights(self, k: int) -> Array:
        return self._weights

    def edge_arrays(self, k: int):
        """tail, head, prob, dW, counts for step k (one edge per path)."""
        view = self._view(k)
        return self._arange, self._arange, None, view.dw, view.counts

    def segments(self, k: int):
        """(edge, tail unit, head unit, duration, regime) of the step's sub-intervals.

        Edges are paths, so the edge index is the tail and the head unit too.
        The first ``N`` segments are the paths' first sub-intervals, from
        ``t_k``; the sub-intervals from atoms inside the step follow, by path
        and then time.
        """
        paths, durations, regimes = self.bundle.step_segments(k)
        return paths, paths, paths, durations, regimes

    def edge_to_unit(self, k: int, values: Array) -> Array:
        return values

    def _design(self, k: int) -> dict:
        view = self._view(k)
        if view.blocks is None:
            view.blocks = build_design(self.basis, view.regimes, view.xs)
        return view.blocks

    def condexp(self, k: int, targets: Array, family: str) -> tuple[Array, list[list[FitRecord]]]:
        """Projection of ``targets``, shape (L, N, c): c columns at each of L levels.

        One fit per stratum covers every column of every level. The records
        come as one list per level, each as a one-level call gives it.
        """
        if not np.all(np.isfinite(targets)):
            raise DivergenceError(f"non-finite regression target for {family} at step {k}")
        levels, _, c = targets.shape
        out = np.empty_like(targets)
        if k == 0:
            # all paths share the initial state: E_0 is the plain mean
            for level in range(levels):
                out[level] = targets[level].mean(axis=0)
            return out, [[] for _ in range(levels)]
        fits = []
        for stratum, block in sorted(self._design(k).items()):
            fit = ols_fit(block.matrix, np.take(targets, block.rows, axis=1), self.ridge, block.factor)
            block.factor = fit.factor
            out[:, block.rows] = fit.fitted
            fits.append((stratum, fit))
        records = [
            [
                FitRecord(
                    step=k,
                    family=family if c == 1 else f"{family}{col + 1}",
                    stratum=stratum,
                    sample_count=fit.sample_count,
                    gram_condition=fit.gram_condition,
                    residual_mse=float(fit.residual_mse[level, col]),
                    rank_deficient=fit.rank_deficient,
                )
                for stratum, fit in fits
                for col in range(c)
            ]
            for level in range(levels)
        ]
        return out, records

    def thinnest_stratum(self) -> Optional[int]:
        """Fewest paths in any regression stratum over the fitted steps.

        Steps ``1..K-1`` are fitted (step 0 is a plain mean); ``None`` when
        there are none.
        """
        if self.n_steps < 2:
            return None
        if not self.basis.stratify_by_regime:
            return self.bundle.N
        counts = (np.bincount(self.bundle.nodes(k)[0]) for k in range(1, self.n_steps))
        return min(int(c[c > 0].min()) for c in counts)

    def absent_strata(self, k: int) -> list[int]:
        present = set(self._view(k).strata.tolist())
        return [i for i in range(1, self.spec.m + 1) if i not in present]


class LatticeEnsemble:
    """Per-step view of a :class:`LatticeChain` with exact conditional expectations."""

    exact = True

    def __init__(self, spec: ProblemSpec, chain: LatticeChain):
        if chain.m != spec.m or chain.d != spec.d:
            raise ValueError("chain was built from a different problem shape")
        if abs(chain.T - spec.horizon) > 1e-9:
            raise ValueError("chain horizon does not match the problem")
        self.spec = spec
        self.chain = chain
        self.h = chain.h
        self.n_steps = chain.K

    def n_units(self, k: int) -> int:
        return self.chain.nodes[k].regime.size

    def states(self, k: int):
        ns = self.chain.nodes[k]
        return ns.regime.astype(int), ns.x

    def unit_weights(self, k: int) -> Array:
        return self.chain.nodes[k].mass

    def edge_arrays(self, k: int):
        es = self.chain.edges[k]
        return es.tail, es.head, es.prob, es.dw, es.counts.astype(float)

    def segments(self, k: int):
        """(edge, tail node, head node, duration, regime): one whole-step sub-interval per edge, in edge order."""
        es = self.chain.edges[k]
        n_edges = es.tail.size
        regimes = self.chain.nodes[k].regime[es.tail].astype(int)
        return np.arange(n_edges), es.tail, es.head, np.full(n_edges, self.h), regimes

    def edge_to_unit(self, k: int, values: Array) -> Array:
        return self._reduce(k, values)

    def _reduce(self, k: int, per_edge: Array) -> Array:
        """Probability-weighted sum over each node's out-edges of ``per_edge``, shape (L, edges, ...)."""
        es = self.chain.edges[k]
        columns = per_edge.reshape(per_edge.shape[:2] + (-1,))
        out = np.empty((columns.shape[0], self.n_units(k), columns.shape[2]))
        for level, level_columns in enumerate(columns):
            weighted = es.prob[:, None] * level_columns
            # bincount adds in edge order, as np.add.at does, column by column
            for col, weights in enumerate(weighted.T):
                out[level, :, col] = np.bincount(es.tail, weights=weights, minlength=out.shape[1])
        return out.reshape(out.shape[:2] + per_edge.shape[2:])

    def condexp(self, k: int, targets: Array, family: str) -> tuple[Array, list[list[FitRecord]]]:
        """Exact conditional expectation of ``targets``, shape (L, edges, c)."""
        if not np.all(np.isfinite(targets)):
            raise DivergenceError(f"non-finite target for {family} at step {k}")
        return self._reduce(k, targets), [[] for _ in targets]

    def absent_strata(self, k: int) -> list[int]:
        return []


Ensemble = Union[MonteCarloEnsemble, LatticeEnsemble]


def make_ensemble(spec: ProblemSpec, config: SchemeConfig, bundle) -> Ensemble:
    if not isinstance(bundle, (PathBundle, LatticeChain)):
        raise TypeError(f"cannot build an ensemble from {type(bundle).__name__}")
    kind = "bundle" if isinstance(bundle, PathBundle) else "chain"
    if abs(bundle.h - config.h) > 1e-9 * max(1.0, config.h):
        raise ValueError(f"{kind} step does not match the configured step ({bundle.h!r} against {config.h!r})")
    if isinstance(bundle, LatticeChain):
        return LatticeEnsemble(spec, bundle)
    if bundle.N != config.paths:
        raise ValueError(f"bundle path count {bundle.N} does not match the configured {config.paths}")
    return MonteCarloEnsemble(spec, bundle, config.basis, config.ridge)


# ---------------------------------------------------------------------------
# per-step operations


def _check_step(ens: Ensemble, k: int, y_next: Array) -> None:
    if not 0 <= k < ens.n_steps:
        raise ValueError(f"step index {k} out of range [0, {ens.n_steps})")
    if np.ndim(y_next) != 2:
        raise ValueError(f"y_next must have shape (L, n), one row per level, got shape {np.shape(y_next)}")


def estimate_z(ens: Ensemble, k: int, y_next: Array) -> tuple[Array, list[list[FitRecord]]]:
    """Gradient-proxy estimate at step k from next-step values.

    Regresses ``Y_{k+1} * dW / h`` componentwise; ``dW`` is the aggregate
    increment over the whole step. ``y_next`` of shape (L, n), one row per
    level, gives ``z`` of shape (L, N, d) and one list of fit records per
    level.
    """
    _check_step(ens, k, y_next)
    _, head, _, dw, _ = ens.edge_arrays(k)
    targets = np.take(y_next, head, axis=1)[:, :, None] * dw
    targets /= ens.h
    return ens.condexp(k, targets, "z")


def estimate_u(ens: Ensemble, k: int, y_next: Array) -> tuple[Array, Array, list[list[FitRecord]]]:
    """Jump-offset estimates at step k, re-based at the current regime.

    Returns ``(u, u_raw, fit records)`` where ``u_raw`` is the direct
    compensated-count regression and ``u`` subtracts each unit's own-regime
    component (making it exactly zero there). ``y_next`` has shape (L, n),
    one row per level; both estimates are (L, N, m), and the fit records
    come one list per level.
    """
    _check_step(ens, k, y_next)
    ens.spec.intensity.require_positive()
    lam = ens.spec.intensity.weights
    _, head, _, _, counts = ens.edge_arrays(k)
    compensated = counts - lam[None, :] * ens.h
    targets = np.take(y_next, head, axis=1)[:, :, None] * compensated
    targets /= lam[None, :] * ens.h
    u_raw, records = ens.condexp(k, targets, "u")
    regimes, _ = ens.states(k)
    own = u_raw[:, np.arange(u_raw.shape[1]), regimes - 1]
    return u_raw - own[:, :, None], u_raw, records


def _driver_terms(
    spec: ProblemSpec, levels: Sequence[int], ens: Ensemble, k: int, y_next: Array, z: Array, u: Array
) -> tuple[Array, Array, Array, Array]:
    """Per-edge driver integral, penalty mass, time-averaged violation and ``min_j h_ij``.

    The integral runs over the step's sub-intervals: on a sub-interval in
    regime ``r`` the integrand is the penalized driver at state ``X_k``
    (frozen), value vector rebuilt from ``(Y_{k+1}, U_k)`` with ``r`` as the
    base regime, and the step's ``Z_k``, minus the jump compensator
    ``sum_j lambda_j (yvec_j - yvec_r)``. The compensator belongs to the
    scheme, not to the problem's driver: the backward equation removes the
    jump integral of the value process, whose conditional mean per unit
    time is exactly that sum.

    ``min_j h_ij`` is read on each edge's first sub-interval, which starts at
    ``X_k`` in the tail regime: the arguments of the Skorohod residual. It is
    zero where the constraint is not evaluated (one regime at level 0, where
    no penalty mass accrues).

    ``levels`` holds L levels; ``y_next`` (L, n), ``z`` (L, N, d), ``u``
    (L, N, m) and the four (L, edges) outputs carry one row per level. The
    gathers and sums that do not depend on the level run once; the driver,
    the constraint, the compensator product and the per-edge sums run once
    per level.
    """
    levels = np.asarray(levels)
    _, xs = ens.states(k)
    lam = spec.intensity.weights
    seg_edge, seg_tail, seg_head, seg_dt, seg_regime = ens.segments(k)

    f_val = np.empty((levels.size, seg_edge.size))
    pen_val = np.zeros((levels.size, seg_edge.size))
    min_h = np.zeros((levels.size, seg_edge.size))
    for r in range(1, spec.m + 1):
        rows = np.flatnonzero(seg_regime == r)
        if rows.size == 0:
            continue
        tails = seg_tail[rows]
        # take() keeps each level's rows contiguous, as a one-level pass has them
        y_r = np.take(y_next, seg_head[rows], axis=1)
        x_r, z_r = xs[tails], np.take(z, tails, axis=1)
        yvec = y_r[:, :, None] + np.take(u, tails, axis=1)
        yvec[:, :, r - 1] = y_r
        for level, n in enumerate(levels):
            values, z_level = yvec[level], z_r[level]
            # a product over all levels' rows at once need not round the same
            compensator = values @ lam - lam.sum() * values[:, r - 1]
            f_val[level, rows] = spec.driver(r, x_r, values, z_level) - compensator
            if spec.m > 1 or n > 0:
                h = constraint_values(spec, r, x_r, values, z_level)
                pen_val[level, rows] = penalty_batch(spec, h)
                # reduce the whole column-major array: selecting rows first would
                # copy it to row-major
                min_h[level, rows] = h.min(axis=1)
                del h  # not alive beside the next group's arrays
        del y_r, z_r, yvec  # free this regime's arrays before the next regime's

    # every edge has a sub-interval, and the first n_edges segments are the
    # edges' first sub-intervals in edge order
    n_edges = int(seg_edge.max()) + 1
    # per level, as a one-level pass has it; bincount adds in segment order, as np.add.at does
    integral, penalty_mass, violation = [np.empty((levels.size, n_edges)) for _ in range(3)]
    for level, (n, f, pen) in enumerate(zip(levels, f_val, pen_val)):
        integral[level] = np.bincount(seg_edge, seg_dt * (f + n * pen), n_edges)
        penalty_mass[level] = np.bincount(seg_edge, seg_dt * n * pen, n_edges)
        violation[level] = np.bincount(seg_edge, seg_dt * pen / ens.h, n_edges)
    return integral, penalty_mass, violation, min_h[:, :n_edges]


def step_y(
    ens: Ensemble,
    k: int,
    y_next: Array,
    z_k: Array,
    u_k: Array,
    spec: ProblemSpec,
    levels: Sequence[int],
) -> tuple[Array, Array, Array, Array, list[list[FitRecord]]]:
    """Value estimate at step k: project ``Y_{k+1} + int f^n`` on the basis.

    Returns ``(y, penalty_mass, violation, skorohod, fit records)`` with the
    penalty mass and the time-averaged constraint violation reduced per
    unit, and the step's Skorohod term ``E[min_j h_ij * penalty_mass]``.
    ``levels`` holds L levels, one per row of ``y_next`` (L, n), ``z_k``
    (L, N, d) and ``u_k`` (L, N, m); the per-unit outputs are (L, N), the
    Skorohod terms (L,), and the fit records come one list per level.
    """
    _check_step(ens, k, y_next)
    if np.ndim(levels) != 1 or len(levels) != y_next.shape[0]:
        raise ValueError(f"need one level per row of y_next ({y_next.shape[0]}), got levels {levels!r}")
    tail, head, prob, _, _ = ens.edge_arrays(k)
    integral, penalty_edge, violation_edge, min_h = _driver_terms(spec, levels, ens, k, y_next, z_k, u_k)
    targets = np.take(y_next, head, axis=1) + integral
    y, records = ens.condexp(k, targets[:, :, None], "y")
    penalty_mass = ens.edge_to_unit(k, penalty_edge)
    skorohod = np.zeros(len(penalty_mass))
    weight = None
    for level, mass in enumerate(penalty_mass):
        if np.any(mass):
            if weight is None:
                weight = ens.unit_weights(k)[tail]
                if prob is not None:
                    weight = weight * prob
            skorohod[level] = np.sum(weight * min_h[level] * mass[tail])
    return y[:, :, 0], penalty_mass, ens.edge_to_unit(k, violation_edge), skorohod, records


# ---------------------------------------------------------------------------
# the full backward pass


@dataclass
class SolveResult:
    """Output of one backward solve.

    ``ys`` (steps ``0..K``), ``zs``, ``us`` and ``penalty_mass`` (steps
    ``0..K-1``) are the per-unit arrays of every step; they are ``None``
    unless the solve ran with ``keep_steps=True``.
    """

    y0: float
    scheme: SchemeConfig
    mode: str
    violation_mean: Array
    violation_max: Array
    skorohod_steps: Array
    fit_records: list[FitRecord]
    absent_strata_steps: dict[int, list[int]] = field(default_factory=dict)
    clipped_fraction: float = 0.0
    ys: Optional[list[Array]] = None
    zs: Optional[list[Array]] = None
    us: Optional[list[Array]] = None
    penalty_mass: Optional[list[Array]] = None

    @property
    def mean_violation(self) -> float:
        """Mean over the steps of the per-step mean violation; 0 without steps."""
        return float(np.mean(self.violation_mean)) if len(self.violation_mean) else 0.0

    def diagnostics_dict(self) -> dict:
        return {
            "violation_mean": [float(v) for v in self.violation_mean],
            "violation_max": [float(v) for v in self.violation_max],
            "mean_violation": self.mean_violation,
            "clipped_fraction": self.clipped_fraction,
            "absent_strata_steps": {str(k): v for k, v in self.absent_strata_steps.items()},
        }


def _solve_levels(
    spec: ProblemSpec, config: SchemeConfig, levels: Sequence[int], bundle, keep_steps: bool = False
) -> list[SolveResult]:
    """One backward pass for every penalization level in ``levels`` at once.

    Returns one result per level, its scheme ``config`` at that level. Only
    the current step's arrays and the values they were built from are alive,
    unless ``keep_steps`` keeps every step's per-unit arrays.
    """
    schemes = [replace(config, n=n) for n in levels]  # refuses a bad level before the pass
    spec.intensity.require_positive()
    ens = make_ensemble(spec, config, bundle)
    if isinstance(ens, MonteCarloEnsemble):
        thinnest, size = ens.thinnest_stratum(), config.basis.size(spec.d)
        if thinnest is not None and thinnest < size:
            warnings.warn(f"fewer paths per stratum than basis functions ({thinnest} < {size})", stacklevel=3)
    regimes_T, x_T = ens.states(ens.n_steps)
    y_T = np.empty(regimes_T.size)
    for i in np.unique(regimes_T):
        rows = np.flatnonzero(regimes_T == i)
        y_T[rows] = spec.terminal(int(i), x_T[rows])

    K, L = ens.n_steps, len(levels)
    y = np.repeat(y_T[None], L, axis=0)
    # each step's (L, units) arrays; a level's result holds their rows
    kept = {"ys": [None] * K + [y], "zs": [None] * K, "us": [None] * K, "penalty_mass": [None] * K} if keep_steps else {}
    viol_mean, viol_max, skorohod = (np.zeros((L, K)) for _ in range(3))
    records: list[list[FitRecord]] = [[] for _ in range(L)]
    absent: dict[int, list[int]] = {}
    clipped = np.zeros(L, dtype=int)
    total_units = 0
    for k in range(K - 1, -1, -1):
        z, rec_z = estimate_z(ens, k, y)
        u, rec_u = estimate_u(ens, k, y)[::2]  # u_raw is not kept alive beside the step
        y, pm, vl, skorohod[:, k], rec_y = step_y(ens, k, y, z, u, spec, levels)

        if spec.growth_bound is not None:
            _, xs = ens.states(k)
            radius = spec.growth_radius(xs)
            if config.clip_to_growth_bound:
                clipped += np.count_nonzero(np.abs(y) > radius, axis=1)
                y = np.clip(y, -radius, radius)
            if np.any(np.abs(y) > 10.0 * radius):
                raise DivergenceError(f"value estimate exceeded 10x the growth bound at step {k}")

        w = ens.unit_weights(k)
        viol_mean[:, k] = [w @ row for row in vl]
        viol_max[:, k] = vl.max(axis=1) if vl.size else 0.0
        for level_records, z_records, u_records, y_records in zip(records, rec_z, rec_u, rec_y):
            level_records += z_records + u_records + y_records
        missing = ens.absent_strata(k)
        if missing:
            absent[k] = missing
        total_units += y.shape[1]
        for arrays, values in zip(kept.values(), (y, z, u, pm)):
            arrays[k] = values
        del pm, vl  # not alive beside the next step's arrays

    return [
        SolveResult(
            y0=float(ens.unit_weights(0) @ y[level]),
            scheme=scheme,
            mode="exact" if ens.exact else "mc",
            violation_mean=viol_mean[level],
            violation_max=viol_max[level],
            skorohod_steps=skorohod[level],
            fit_records=records[level],
            absent_strata_steps=dict(absent),
            clipped_fraction=int(clipped[level]) / max(total_units, 1),
            **{name: [values[level] for values in arrays] for name, arrays in kept.items()},
        )
        for level, scheme in enumerate(schemes)
    ]


def solve_backward(spec: ProblemSpec, config: SchemeConfig, bundle, *, keep_steps: bool = False) -> SolveResult:
    """Run the backward scheme on a path bundle or an enumerated chain.

    The result holds ``y0`` and the per-step scalars and fit records; with
    ``keep_steps=True`` it also holds every step's ``Y``, ``Z``, ``U`` and
    penalty mass per unit.
    """
    return _solve_levels(spec, config, [config.n], bundle, keep_steps)[0]


def skorohod_residual(result: SolveResult) -> float:
    """Discrete minimality diagnostic: sum of min-constraint times penalty mass.

    Accumulates, in increasing step order, the terms ``step_y`` formed from
    ``min_j h_{i,j}(X_k, Y_{k+1}, Y_{k+1} + U_k(j), Z_k)`` against the
    realized penalty increments, averaged under the path measure. The
    constraint arguments are the penalty's own evaluation points, so the
    residual tends to zero exactly when mass stops accruing off the
    constraint boundary. Meaningful when the constraint ignores ``z``.
    """
    total = 0.0
    for term in result.skorohod_steps:
        total += float(term)
    return total


@dataclass
class ConvergenceReport:
    """Penalization ladder: value and violation as the level grows."""

    n_schedule: list[int]
    y0: list[float]
    mean_violation: list[float]
    y0_nondecreasing: list[bool]
    violation_nonincreasing: list[bool]
    skorohod: list[float]

    @property
    def monotone(self) -> bool:
        return all(self.y0_nondecreasing)

    def to_dict(self) -> dict:
        return {
            "n_schedule": list(self.n_schedule),
            "y0": self.y0,
            "mean_violation": self.mean_violation,
            "y0_nondecreasing": self.y0_nondecreasing,
            "violation_nonincreasing": self.violation_nonincreasing,
            "skorohod_residual": self.skorohod,
            "monotone": self.monotone,
        }


def penalization_ladder(
    spec: ProblemSpec,
    config: SchemeConfig,
    n_schedule: list[int],
    bundle,
) -> ConvergenceReport:
    """Run the backward solve along an increasing penalization schedule.

    All levels share the same paths (or chain), so differences along the
    ladder are purely due to the penalty level. One backward pass carries
    every level, and each level's result is bit for bit that of its own
    :func:`solve_backward`. A level that trips the growth-bound guard aborts
    the whole ladder.
    """
    if len(n_schedule) == 0:  # any sequence, a numpy array included
        raise ValueError("n_schedule must have at least one entry")
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    results = _solve_levels(spec, config, n_schedule, bundle)
    y0s = [r.y0 for r in results]
    viols = [r.mean_violation for r in results]
    return ConvergenceReport(
        n_schedule=[int(n) for n in n_schedule],
        y0=y0s,
        mean_violation=viols,
        y0_nondecreasing=[b >= a for a, b in zip(y0s, y0s[1:])],
        violation_nonincreasing=[b <= a for a, b in zip(viols, viols[1:])],
        skorohod=[skorohod_residual(r) for r in results],
    )
