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
The backward code path is identical in both modes: each ensemble hands it
one record per step with the same fields (units at ``t_k`` with their
weights, and edges to ``t_{k+1}`` with their increments), and keeps only its
sub-intervals and its conditional expectation to itself. At ``k = 0`` all
paths share the initial state, so the estimate degenerates to the plain
sample mean by construction.

After prediction the jump offsets are re-based: the own-regime component is
subtracted from every component, which zeroes it exactly and makes the
offsets consistent estimates of the cross-regime value differences.

Every per-step operation works on several penalization levels at once: its
arrays carry a leading level axis, and a single level is the one-row case.
One private driver runs the pass for a list of levels and returns one
:class:`SolveResult` per level; :func:`solve_backward` is its one-level
call and :func:`penalization_ladder` reads its results for the whole
schedule. A step's record, design and Gram factors are built once for all
levels. Products and sums still run level by level, each on its level's
contiguous slice as a one-level pass has it, because batched ones need not
round the same; so every level of a ladder is bit for bit its own solve.

The step's arithmetic keeps its inner loops long. Products over the short
trailing axes (the ``d`` Brownian components, the ``m`` marks) run one
column at a time as ufuncs writing through ``out=``, so each loop runs over
the units or edges instead of over two or three entries. No result is
placed by an advanced-index scatter: each regression stratum is fitted on a
contiguous slice of one stratum-ordered copy of its targets, laid out by
:func:`~switchbsde.regression.build_design`, and the driver terms fill
contiguous slices of buffers ordered by the same regime grouping; each
result is gathered back once through the inverse permutation. The orders
are stable and every value comes from the same floating-point operations in
the same order as an element-by-element evaluation, so the outputs do not
depend on this layout.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .forward import PathBundle
from .lattice import LatticeChain
from .problem import ProblemSpec, _integer, _positive, constraint_values, penalty_batch
from .regression import BasisSpec, _Design, _inverse, _strata, build_design, ols_fit

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
    """Resolution knobs of one backward solve.

    The Monte Carlo regressions fit one stratum per present regime, each
    under the automatic ridge ``1e-10 trace(G) / L`` of :func:`ols_fit`.
    """

    h: float
    n: int = 0
    paths: int = 10_000
    basis: BasisSpec = field(default_factory=BasisSpec)
    clip_to_growth_bound: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # stored as the checked ints, so numpy integers echo as JSON numbers
        object.__setattr__(self, "n", _integer(self.n, "penalization level"))
        object.__setattr__(self, "paths", _integer(self.paths, "path count", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        _positive(self.h, "time step")
        if not isinstance(self.basis, BasisSpec):
            raise ValueError(f"basis must be a BasisSpec, got {self.basis!r}")
        if not isinstance(self.clip_to_growth_bound, bool):
            raise ValueError(f"clip_to_growth_bound must be true or false, got {self.clip_to_growth_bound!r}")

    def echo(self) -> dict:
        return asdict(self)


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
# ensembles: one step record over Monte Carlo paths and chain nodes


@dataclass
class _Step:
    """One step of an ensemble: its units at ``t_k`` and their edges to ``t_{k+1}``.

    The fields mean the same in both modes. A chain's units are its nodes at
    ``t_k``; a bundle's are its paths, and edge ``p`` is path ``p`` at both
    ends with probability 1, so ``tail``, ``head`` and ``prob`` are ``None``.
    The per-edge fields are ``None`` at ``k = K``.
    """

    k: int
    regimes: Array           # (units,) regime at t_k
    xs: Array                # (units, d) state at t_k
    weights: Array           # (units,) probability of each unit
    dw: Optional[Array] = None      # (edges, d) Brownian increment over the step
    counts: Optional[Array] = None  # (edges, m) integer mark counts over the step
    tail: Optional[Array] = None    # (edges,) unit at t_k
    head: Optional[Array] = None    # (edges,) unit at t_{k+1}
    prob: Optional[Array] = None    # (edges,) probability given the tail
    # Monte Carlo only, set by the step's first fit: the strata of build_design
    design: Optional[_Design] = None


def _along(index: Optional[Array], values: Array) -> Array:
    """``values`` (..., units) at each edge's unit in ``index``; ``None``, on a bundle, where edges are units."""
    return values if index is None else np.take(values, index, axis=-1)


def _reduce(step: _Step, per_edge: Array) -> Array:
    """Probability-weighted sum of ``per_edge`` (L, edges, ...) over each unit's out-edges.

    On a bundle each unit has one edge, of probability 1: ``per_edge`` itself.
    """
    if step.prob is None:
        return per_edge
    columns = per_edge.reshape(per_edge.shape[:2] + (-1,))
    out = np.empty((columns.shape[0], step.regimes.size, columns.shape[2]))
    weights = np.empty(step.prob.size)
    # column by column, each product one contiguous loop over the edges;
    # bincount adds in edge order, as np.add.at does
    for level, level_columns in enumerate(columns):
        for col in range(columns.shape[2]):
            np.multiply(step.prob, level_columns[:, col], out=weights)
            out[level, :, col] = np.bincount(step.tail, weights=weights, minlength=out.shape[1])
    return out.reshape(out.shape[:2] + per_edge.shape[2:])


class MonteCarloEnsemble:
    """A :class:`PathBundle` with OLS conditional expectations.

    :meth:`step` builds a step's record from the bundle's per-step reads on
    the step's first access, and the step's first fit adds its design: the
    strata with their Gram factors. Asking for another step replaces the
    record: one step is alive at a time.
    """

    exact = False

    def __init__(self, spec: ProblemSpec, bundle: PathBundle, basis: BasisSpec):
        self.spec = spec
        self.bundle = bundle
        self.basis = basis
        self.h = bundle.h
        self.n_steps = bundle.K
        self._step: Optional[_Step] = None
        self._weights = np.full(bundle.N, 1.0 / bundle.N)
        self._weights.flags.writeable = False

    def step(self, k: int) -> _Step:
        if self._step is None or self._step.k != k:
            self._step = None  # release the previous step before building this one
            regimes, xs = self.bundle.nodes(k)
            self._step = _Step(k, regimes, xs, self._weights)
            if k < self.n_steps:
                dw, counts = self.bundle.step_increments(k)
                self._step.dw, self._step.counts = dw, counts
        return self._step

    def segments(self, k: int) -> tuple[Array, Array, Array]:
        """(edge, duration, regime) of the step's sub-intervals.

        The first ``N`` segments are the paths' first sub-intervals, from
        ``t_k``; the sub-intervals from atoms inside the step follow, by path
        and then time.
        """
        return self.bundle.step_segments(k)

    def condexp(self, k: int, targets: Array, family: str) -> tuple[Array, list[list[FitRecord]]]:
        """Projection of ``targets``, shape (L, N, c): c columns at each of L levels.

        One fit per stratum covers every column of every level. The records
        come as one list per level, each as a one-level call gives it.
        """
        if not np.all(np.isfinite(targets)):
            raise DivergenceError(f"non-finite regression target for {family} at step {k}")
        levels, _, c = targets.shape
        if k == 0:
            # all paths share the initial state: E_0 is the plain mean
            out = np.empty_like(targets)
            for level in range(levels):
                out[level] = targets[level].mean(axis=0)
            return out, [[] for _ in range(levels)]
        step = self.step(k)
        if step.design is None:
            step.design = build_design(self.basis, step.regimes, step.xs)
        design = step.design
        # each stratum fits a contiguous slice of one stratum-ordered copy of
        # the targets, its rows in the order an advanced index gives them; the
        # fitted values overwrite the slice and are gathered back once, and
        # each fit's records are taken before the next fit replaces it
        ordered = np.take(targets, design.order, axis=1)
        records: list[list[FitRecord]] = [[] for _ in range(levels)]
        for block in design.blocks:
            fit = ols_fit(block.matrix, ordered[:, block.rows], block.factor)
            ordered[:, block.rows] = fit.fitted
            for level, level_records in enumerate(records):
                level_records += [
                    FitRecord(
                        step=k,
                        family=family if c == 1 else f"{family}{col + 1}",
                        stratum=block.regime,
                        sample_count=fit.sample_count,
                        gram_condition=fit.gram_condition,
                        residual_mse=float(fit.residual_mse[level, col]),
                        rank_deficient=fit.rank_deficient,
                    )
                    for col in range(c)
                ]
        return np.take(ordered, design.inverse, axis=1), records

    def thinnest_stratum(self) -> Optional[int]:
        """Fewest paths in any regression stratum over the fitted steps.

        Steps ``1..K-1`` are fitted (step 0 is a plain mean); ``None`` when
        there are none.
        """
        if self.n_steps < 2:
            return None
        counts = (np.bincount(self.bundle.nodes(k)[0]) for k in range(1, self.n_steps))
        return min(int(c[c > 0].min()) for c in counts)

    def absent_strata(self, k: int) -> list[int]:
        present = set(np.flatnonzero(np.bincount(self.step(k).regimes)).tolist())
        return [i for i in range(1, self.spec.m + 1) if i not in present]


class LatticeEnsemble:
    """A :class:`LatticeChain` with exact conditional expectations; :meth:`step` holds one step's record at a time."""

    exact = True

    def __init__(self, spec: ProblemSpec, chain: LatticeChain):
        self.spec = spec
        self.chain = chain
        self.h = chain.h
        self.n_steps = chain.K
        self._step: Optional[_Step] = None

    def step(self, k: int) -> _Step:
        if self._step is None or self._step.k != k:
            self._step = None  # release the previous step before building this one
            nodes, edges = self.chain.nodes[k], ()
            if k < self.n_steps:
                # the chain's outcome table expanded to the step's edges once per step, and
                # the head as intp, which np.take reads without converting it on each call
                es = self.chain.edges[k]
                edges = (es.dw, es.counts, es.tail, es.head.astype(np.intp), es.prob)
            self._step = _Step(k, nodes.regime, nodes.x, nodes.mass, *edges)
        return self._step

    def segments(self, k: int) -> tuple[Array, Array, Array]:
        """(edge, duration, regime): one whole-step sub-interval per edge, in edge order."""
        step = self.step(k)
        n_edges = step.tail.size
        return np.arange(n_edges), np.full(n_edges, self.h), np.take(step.regimes, step.tail)

    def condexp(self, k: int, targets: Array, family: str) -> tuple[Array, list[list[FitRecord]]]:
        """Exact conditional expectation of ``targets``, shape (L, edges, c)."""
        if not np.all(np.isfinite(targets)):
            raise DivergenceError(f"non-finite target for {family} at step {k}")
        return _reduce(self.step(k), targets), [[] for _ in targets]

    def absent_strata(self, k: int) -> list[int]:
        return []


Ensemble = Union[MonteCarloEnsemble, LatticeEnsemble]


def _check_built_for(spec: ProblemSpec, bundle: Union[PathBundle, LatticeChain], kind: str) -> None:
    """Refuse a bundle or chain built from a problem of another shape or horizon."""
    if bundle.m != spec.m or bundle.d != spec.d:
        raise ValueError(f"{kind} was built from a different problem shape")
    if abs(bundle.T - spec.horizon) > 1e-9:
        raise ValueError(f"{kind} horizon does not match the problem")


def make_ensemble(spec: ProblemSpec, config: SchemeConfig, bundle) -> Ensemble:
    if not isinstance(bundle, (PathBundle, LatticeChain)):
        raise TypeError(f"cannot build an ensemble from {type(bundle).__name__}")
    kind = "bundle" if isinstance(bundle, PathBundle) else "chain"
    _check_built_for(spec, bundle, kind)
    if abs(bundle.h - config.h) > 1e-9 * max(1.0, config.h):
        raise ValueError(f"{kind} step does not match the configured step ({bundle.h!r} against {config.h!r})")
    if isinstance(bundle, LatticeChain):
        return LatticeEnsemble(spec, bundle)
    if bundle.N != config.paths:
        raise ValueError(f"bundle path count {bundle.N} does not match the configured {config.paths}")
    return MonteCarloEnsemble(spec, bundle, config.basis)


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
    step = ens.step(k)
    dw, y_head = step.dw, _along(step.head, y_next)
    targets = np.empty(y_head.shape + dw.shape[1:])
    # column by column: a broadcast product loops over the d columns innermost
    for col in range(dw.shape[1]):
        np.multiply(y_head, dw[:, col], out=targets[:, :, col])
    targets /= ens.h
    return ens.condexp(k, targets, "z")


def estimate_u(ens: Ensemble, k: int, y_next: Array) -> tuple[Array, list[list[FitRecord]]]:
    """Jump-offset estimates at step k, re-based at the current regime.

    Returns ``(u, fit records)``: ``u`` is the compensated-count regression
    minus each unit's own-regime component, which makes it exactly zero
    there. ``y_next`` has shape (L, n), one row per level; ``u`` is
    (L, N, m), and the fit records come one list per level.
    """
    _check_step(ens, k, y_next)
    ens.spec.intensity.require_positive()
    lam_h = ens.spec.intensity.weights * ens.h
    step = ens.step(k)
    counts, y_head = step.counts, _along(step.head, y_next)
    targets = np.empty(y_head.shape + counts.shape[1:])
    # column by column, as for z
    for j in range(counts.shape[1]):
        column = targets[:, :, j]
        np.multiply(y_head, counts[:, j] - lam_h[j], out=column)
        column /= lam_h[j]
    u_raw, records = ens.condexp(k, targets, "u")
    del targets
    levels, units, m = u_raw.shape
    # each unit's own-regime column, by a flat gather
    own = np.take(u_raw.reshape(levels, units * m), np.arange(0, units * m, m) + (step.regimes - 1), axis=1)
    u = np.empty_like(u_raw)
    for j in range(m):
        np.subtract(u_raw[:, :, j], own, out=u[:, :, j])
    return u, records


def _driver_terms(
    spec: ProblemSpec, levels: Sequence[int], ens: Ensemble, k: int, y_next: Array, z: Array, u: Array
) -> tuple[Array, Array, Array, Array]:
    """Per-edge driver integral, penalty mass, time-averaged violation and ``min_j h_ij``.

    The integral runs over the step's sub-intervals: on a sub-interval in
    regime ``r`` the integrand is the penalized driver at state ``X_k``
    (frozen), value vector rebuilt from ``(Y_{k+1}, U_k)`` with ``Y_{k+1}`` as
    regime ``r``'s value, so that ``yvec_j - yvec_r = U_k(j) - U_k(r)`` (the
    paper's ``v_j - v_r``), and the step's ``Z_k``, minus the jump compensator
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
    step = ens.step(k)
    lam = spec.intensity.weights
    seg_edge, seg_dt, seg_regime = ens.segments(k)
    # each segment's tail and head unit: on a bundle its edge, the path, is
    # both; a chain's segments are its edges, in edge order
    seg_tail, seg_head = (seg_edge, seg_edge) if step.tail is None else (step.tail, step.head)
    # every edge has a sub-interval, and the first n_edges segments are the
    # edges' first sub-intervals in edge order
    n_edges = int(seg_edge.max()) + 1

    # each regime's values fill its contiguous slice of regime-ordered
    # buffers, one level at a time; each buffer is gathered back to segment
    # order once, after the regimes' arrays are freed
    groups = _strata(seg_regime)
    f_val = np.empty((levels.size, seg_edge.size))
    pen_val = np.zeros((levels.size, seg_edge.size))
    min_h = np.zeros((levels.size, seg_edge.size))
    start = 0
    for r, segments in groups.items():
        rows = slice(start, start + segments.size)
        start = rows.stop
        tails = seg_tail[segments]
        # take() keeps each level's rows contiguous, as a one-level pass has them
        y_r = np.take(y_next, seg_head[segments], axis=1)
        x_r, z_r = step.xs[tails], np.take(z, tails, axis=1)
        # the value vector with Y_{k+1} as the segment regime's value: U_k is
        # re-based at the tail regime, so column j holds
        # U_k(j) + Y_{k+1} - U_k(r), built in the gathered offsets, and column
        # r holds Y_{k+1} itself
        yvec = np.take(u, tails, axis=1)
        y_base = y_r - yvec[:, :, r - 1]
        for j in range(spec.m):
            if j == r - 1:
                yvec[:, :, j] = y_r
            else:
                yvec[:, :, j] += y_base
        del y_r, y_base
        for level, n in enumerate(levels):
            values, z_level = yvec[level], z_r[level]
            # a product over all levels' rows at once need not round the same
            compensator = values @ lam
            compensator -= lam.sum() * values[:, r - 1]
            np.subtract(spec.driver(r, x_r, values, z_level), compensator, out=f_val[level, rows])
            del compensator
            if spec.m > 1 or n > 0:
                h = constraint_values(spec, r, x_r, values, z_level)
                pen_val[level, rows] = penalty_batch(spec, h)
                # reduce the whole column-major array: selecting rows first would
                # copy it to row-major
                np.min(h, axis=1, out=min_h[level, rows])
                del h  # not alive beside the next group's arrays
        del z_r, yvec  # free this regime's arrays before the next regime's
    inverse = _inverse(groups.values())
    del groups
    f_val = np.take(f_val, inverse, axis=1)
    pen_val = np.take(pen_val, inverse, axis=1)
    min_h = np.take(min_h, inverse[:n_edges], axis=1)
    del inverse

    # per level, as a one-level pass has it; bincount adds in segment order, as
    # np.add.at does, and is handed the edges as intp so it does not convert
    # them on each call. The weights seg_dt (f + n pen), seg_dt n pen and
    # seg_dt pen / h are built, operation by operation, in one reused buffer.
    seg_edge = seg_edge.astype(np.intp, copy=False)
    weights = np.empty(seg_edge.size)
    integral, penalty_mass, violation = [np.empty((levels.size, n_edges)) for _ in range(3)]
    for level, (n, f, pen) in enumerate(zip(levels, f_val, pen_val)):
        np.multiply(n, pen, out=weights)
        weights += f
        weights *= seg_dt
        integral[level] = np.bincount(seg_edge, weights, n_edges)
        np.multiply(seg_dt, n, out=weights)
        weights *= pen
        penalty_mass[level] = np.bincount(seg_edge, weights, n_edges)
        np.multiply(seg_dt, pen, out=weights)
        weights /= ens.h
        violation[level] = np.bincount(seg_edge, weights, n_edges)
    return integral, penalty_mass, violation, min_h


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
    step = ens.step(k)
    targets, penalty_edge, violation_edge, min_h = _driver_terms(spec, levels, ens, k, y_next, z_k, u_k)
    targets += _along(step.head, y_next)  # the driver integral plus Y_{k+1}
    y, records = ens.condexp(k, targets[:, :, None], "y")
    del targets
    penalty_mass = _reduce(step, penalty_edge)
    skorohod = np.zeros(len(penalty_mass))
    weight = None
    for level, mass in enumerate(penalty_mass):
        if np.any(mass):
            if weight is None:
                weight = _along(step.tail, step.weights)
                if step.prob is not None:
                    weight = weight * step.prob
            skorohod[level] = np.sum(weight * min_h[level] * _along(step.tail, mass))
    return y[:, :, 0], penalty_mass, _reduce(step, violation_edge), skorohod, records


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


def _terminal_values(spec: ProblemSpec, ens: Ensemble) -> Array:
    """``g_i(X_T)`` of every unit at the horizon, under its terminal regime."""
    step = ens.step(ens.n_steps)
    y_T = np.empty(step.regimes.size)
    for i in np.unique(step.regimes):
        rows = np.flatnonzero(step.regimes == i)
        y_T[rows] = spec.terminal(int(i), step.xs[rows])
    return y_T


def _solve_levels(
    spec: ProblemSpec, config: SchemeConfig, levels: Sequence[int], bundle, keep_steps: bool = False
) -> list[SolveResult]:
    """One backward pass for every penalization level in ``levels`` at once.

    Returns one result per level, its scheme ``config`` at that level. Only
    the current step's arrays and the values they were built from are alive,
    unless ``keep_steps`` keeps every step's per-unit arrays.
    """
    schemes = [replace(config, n=n) for n in levels]
    spec.intensity.require_positive()
    ens = make_ensemble(spec, config, bundle)
    if isinstance(ens, MonteCarloEnsemble):
        thinnest, size = ens.thinnest_stratum(), config.basis.size(spec.d)
        if thinnest is not None and thinnest < size:
            warnings.warn(f"fewer paths per stratum than basis functions ({thinnest} < {size})", stacklevel=3)
    K, L = ens.n_steps, len(levels)
    y = np.repeat(_terminal_values(spec, ens)[None], L, axis=0)
    # each step's (L, units) arrays; a level's result holds their rows
    kept = {"ys": [None] * K + [y], "zs": [None] * K, "us": [None] * K, "penalty_mass": [None] * K} if keep_steps else {}
    viol_mean, viol_max, skorohod = (np.zeros((L, K)) for _ in range(3))
    records: list[list[FitRecord]] = [[] for _ in range(L)]
    absent: dict[int, list[int]] = {}
    clipped = np.zeros(L, dtype=int)
    total_units = 0
    for k in range(K - 1, -1, -1):
        z, rec_z = estimate_z(ens, k, y)
        u, rec_u = estimate_u(ens, k, y)
        y, pm, vl, skorohod[:, k], rec_y = step_y(ens, k, y, z, u, spec, levels)

        step = ens.step(k)
        if spec.growth_bound is not None:
            radius = spec.growth_radius(step.xs)
            if config.clip_to_growth_bound:
                clipped += np.count_nonzero(np.abs(y) > radius, axis=1)
                y = np.clip(y, -radius, radius)
            if np.any(np.abs(y) > 10.0 * radius):
                raise DivergenceError(f"value estimate exceeded 10x the growth bound at step {k}")

        # np.sum, unlike a BLAS dot product, rounds the same under any thread count
        viol_mean[:, k] = [np.sum(step.weights * row) for row in vl]
        viol_max[:, k] = vl.max(axis=1) if vl.size else 0.0
        for level_records, z_records, u_records, y_records in zip(records, rec_z, rec_u, rec_y):
            level_records += z_records + u_records + y_records
        missing = ens.absent_strata(k)
        if missing:
            absent[k] = missing
        total_units += y.shape[1]
        for arrays, values in zip(kept.values(), (y, z, u, pm)):
            arrays[k] = values
        del step, pm, vl  # not alive beside the next step's arrays

    return [
        SolveResult(
            y0=float(np.sum(ens.step(0).weights * y[level])),
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


def _check_schedule(n_schedule) -> list[int]:
    """A ladder's levels as ints, refused unless a nonempty, strictly increasing sequence of levels."""
    levels = [_integer(n, "penalization level") for n in n_schedule]  # any sequence, a numpy array included
    if not levels:
        raise ValueError("n_schedule must have at least one entry")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    return levels


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
    levels = _check_schedule(n_schedule)
    results = _solve_levels(spec, config, levels, bundle)
    y0s = [r.y0 for r in results]
    viols = [r.mean_violation for r in results]
    return ConvergenceReport(
        n_schedule=levels,
        y0=y0s,
        mean_violation=viols,
        y0_nondecreasing=[b >= a for a, b in zip(y0s, y0s[1:])],
        violation_nonincreasing=[b <= a for a, b in zip(viols, viols[1:])],
        skorohod=[skorohod_residual(r) for r in results],
    )
