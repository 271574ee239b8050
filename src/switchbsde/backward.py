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
the units or edges instead of over two or three entries. Every step's units
come grouped by regime: a chain stores its nodes so, and a bundle lays each
step's paths out once, in the order of its ``build_design``. So each stratum
is fitted in place on its slice, each regime's first sub-intervals are one
slice of the edges, only a bundle's sub-intervals from atoms inside a step
are gathered, and ``Y_{k+1}`` crosses a step by one gather, at the edge
heads. Sums over the paths and the arrays ``keep_steps`` keeps run in path
order, and every value comes from the same floating-point operations in the
same order as an element-by-element evaluation: no output depends on layout.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .forward import PathBundle
from .lattice import LatticeChain
from .problem import ProblemSpec, _integer, _positive, constraint_values, penalty_batch
from .regression import BasisSpec, _Design, build_design, ols_fit

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

    The fields mean the same in both modes, and the units come grouped by
    regime. A chain's units are its nodes, each one's out-edges together. A
    bundle's are its paths, laid out by ``design.order`` (by path without a
    design, at ``k = 0`` and ``K``); its edge ``p`` is unit ``p``, so ``tail``
    and ``prob`` are ``None``, and ``head`` is the path's place in step
    ``k+1``'s layout (``None`` by path). Per-edge fields are ``None`` at ``K``.
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
    # Monte Carlo steps 1..K-1 only: the strata of build_design, whose order lays out the paths
    design: Optional[_Design] = None


def _along(index: Optional[Array], values: Array) -> Array:
    """``values`` (..., units) at each entry of ``index``; ``values`` itself where ``index`` is ``None``."""
    return values if index is None else np.take(values, index, axis=-1)


def _by_path(step: _Step, values: Array, axis: int = 1) -> Array:
    """``values`` with its unit axis in path order: a bundle step's layout undone, a chain's units as they are."""
    return values if step.design is None else np.take(values, step.design.inverse, axis=axis)


def _regime_slices(regimes: Array, m: int) -> dict[int, slice]:
    """Each regime's slice of ``regimes``, which come grouped by regime in increasing order; empty ones included."""
    bounds = np.searchsorted(regimes, np.arange(1, m + 2))
    return {r: slice(bounds[r - 1], bounds[r]) for r in range(1, m + 1)}


def _reduce(step: _Step, per_edge: Array) -> Array:
    """Probability-weighted sum of ``per_edge`` (edges,) or (L, edges, ...) over each unit's out-edges.

    On a bundle each unit has one edge, of probability 1: ``per_edge`` itself.
    """
    if step.prob is None:
        return per_edge
    if per_edge.ndim == 1:
        return np.bincount(step.tail, weights=step.prob * per_edge, minlength=step.regimes.size)
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

    :meth:`step` builds a step's record on its first access, with its design
    (the strata with their Gram factors) at ``1 <= k < K``, whose order lays
    out the paths. Another step replaces the record: one is alive at a time.
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

    def _design(self, k: int) -> Optional[_Design]:
        """Step ``k``'s strata, whose order lays out its paths; ``None`` at ``k = 0`` and ``k >= K``, with no fit."""
        return build_design(self.basis, *self.bundle.nodes(k)) if 0 < k < self.n_steps else None

    def step(self, k: int) -> _Step:
        if self._step is None or self._step.k != k:
            # the layout the heads point into: on a backward pass, the released record's
            after = self._step.design if self._step is not None and self._step.k == k + 1 else self._design(k + 1)
            self._step = None  # release the previous step before building this one
            design = self._design(k)
            order, rows = (None, slice(None)) if design is None else (design.order, design.order)
            self._step = _Step(k, *(a[rows] for a in self.bundle.nodes(k)), self._weights, design=design)
            if k < self.n_steps:
                dw, counts = self.bundle.step_increments(k)
                head = order if after is None else _along(order, after.inverse)
                self._step.dw, self._step.counts, self._step.head = dw[rows], counts[rows], head
        return self._step

    def segments(self, k: int) -> tuple[Array, Array, Array]:
        """(edge, duration, regime) of the sub-intervals: the edges' first ones, in the layout, then the rest by path."""
        step = self.step(k)
        edge, dt, regime = self.bundle.step_segments(k)
        if step.design is not None:
            N = self.bundle.N
            edge[N:] = step.design.inverse[edge[N:]]  # the first N are 0..N-1 in either order
            dt[:N] = np.take(dt[:N], step.design.order)
            regime = np.concatenate((step.regimes, regime[N:]))
        return edge, dt, regime

    def condexp(self, k: int, targets: Array, family: str) -> tuple[Array, list[list[FitRecord]]]:
        """Projection of ``targets``, shape (L, N, c): c columns at each of L levels, written over ``targets``.

        One fit per stratum covers every column of every level, in place on
        the stratum's slice of the units. The records come as one list per
        level, each as a one-level call gives it.
        """
        if not np.all(np.isfinite(targets)):
            raise DivergenceError(f"non-finite regression target for {family} at step {k}")
        levels, _, c = targets.shape
        records: list[list[FitRecord]] = [[] for _ in range(levels)]
        design = self.step(k).design
        if design is None:
            # all paths share the initial state: E_0 is the plain mean
            for level in range(levels):
                targets[level] = targets[level].mean(axis=0)
            return targets, records
        # each fit's records are taken before the next fit replaces it
        for block in design.blocks:
            fit = ols_fit(block.matrix, targets[:, block.rows], block.factor)
            targets[:, block.rows] = fit.fitted
            for level, level_records in enumerate(records):
                level_records += [
                    FitRecord(k, family if c == 1 else f"{family}{col + 1}", block.regime, fit.sample_count,
                              fit.gram_condition, float(fit.residual_mse[level, col]), fit.rank_deficient)
                    for col in range(c)
                ]
        return targets, records

    def thinnest_stratum(self) -> Optional[int]:
        """Fewest paths in any regression stratum over the fitted steps.

        Steps ``1..K-1`` are fitted (step 0 is a plain mean); ``None`` when
        there are none.
        """
        if self.n_steps < 2:
            return None
        counts = (np.bincount(self.bundle.nodes(k)[0]) for k in range(1, self.n_steps))
        return min(int(c[c > 0].min()) for c in counts)


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


def _check_step(ens: Ensemble, k: int, y_head: Array) -> None:
    if not 0 <= k < ens.n_steps:
        raise ValueError(f"step index {k} out of range [0, {ens.n_steps})")
    if np.ndim(y_head) != 2 or np.shape(y_head)[1] != ens.step(k).dw.shape[0]:
        raise ValueError(f"y_head must have shape (L, n), a row per level and a column per edge, got {np.shape(y_head)}")


def estimate_z(ens: Ensemble, k: int, y_head: Array) -> tuple[Array, list[list[FitRecord]]]:
    """Gradient-proxy estimate at step k from next-step values.

    Regresses ``Y_{k+1} * dW / h`` componentwise; ``dW`` is the aggregate
    increment over the whole step. ``y_head`` (L, edges), one row per level,
    holds ``Y_{k+1}`` at each edge's head; ``z`` is (L, units, d), in the
    step's layout, and the fit records come one list per level.
    """
    _check_step(ens, k, y_head)
    dw = ens.step(k).dw
    targets = np.empty(y_head.shape + dw.shape[1:])
    # column by column: a broadcast product loops over the d columns innermost
    for col in range(dw.shape[1]):
        np.multiply(y_head, dw[:, col], out=targets[:, :, col])
    targets /= ens.h
    return ens.condexp(k, targets, "z")


def estimate_u(ens: Ensemble, k: int, y_head: Array) -> tuple[Array, list[list[FitRecord]]]:
    """Jump-offset estimates at step k, re-based at the current regime.

    Returns ``(u, fit records)``: ``u`` (L, units, m) is the compensated-count
    regression minus each unit's own-regime component, exactly zero there;
    arguments and layout are those of :func:`estimate_z`.
    """
    _check_step(ens, k, y_head)
    ens.spec.intensity.require_positive()
    lam_h = ens.spec.intensity.weights * ens.h
    step = ens.step(k)
    targets = np.empty(y_head.shape + step.counts.shape[1:])
    # column by column, as for z
    for j in range(step.counts.shape[1]):
        column = targets[:, :, j]
        np.multiply(y_head, step.counts[:, j] - lam_h[j], out=column)
        column /= lam_h[j]
    u, records = ens.condexp(k, targets, "u")
    # re-based in place, one regime's slice of the units at a time: its own
    # column is subtracted from the others, and last from itself
    for r, units in _regime_slices(step.regimes, ens.spec.m).items():
        own = u[:, units, r - 1]
        for j in [*range(r - 1), *range(r, u.shape[2]), r - 1]:
            u[:, units, j] -= own
    return u, records


def _stacked(values: Array, first, inner: Array) -> Array:
    """Rows ``first`` (a slice or indices) of ``values`` followed by rows ``inner``: a view of a slice alone."""
    rows = values[first] if isinstance(first, slice) else values.take(first, axis=0)  # take() beats an index
    return rows if inner.size == 0 else np.concatenate((rows, values.take(inner, axis=0)))


def _driver_terms(
    spec: ProblemSpec, levels: Sequence[int], ens: Ensemble, k: int, y_head: Array, z: Array, u: Array
) -> Iterator[tuple[Array, Array, Array, Array]]:
    """Each level's per-edge driver integral, penalty mass, time-averaged violation and ``min_j h_ij``.

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

    ``y_head`` (L, edges) holds ``Y_{k+1}`` at each edge's head; ``z`` (L,
    units, d) and ``u`` (L, units, m) are in the step's layout. Each level
    yields its four (edges,) arrays before the next level runs.
    """
    step = ens.step(k)
    lam = spec.intensity.weights
    seg_edge, seg_dt, seg_regime = ens.segments(k)
    n_edges = y_head.shape[1]
    inner_edge = seg_edge[n_edges:].copy()
    # each regime's first sub-intervals are one slice of the edges; a bundle's inner ones, gathered, follow in
    # (path, time) order: one batch, as an element-by-element evaluation has it (a split one need not round the same)
    groups = []  # with the units at the tails: a bundle's edges are its units
    for r, first in _regime_slices(seg_regime[:n_edges], spec.m).items():
        rows = np.flatnonzero(seg_regime[n_edges:] == r)
        edges = inner_edge[rows]
        tails = (first, edges) if step.tail is None else (step.tail[first], step.tail[edges])
        if first.stop > first.start or rows.size:
            x, dt = _stacked(step.xs, *tails), _stacked(seg_dt, first, n_edges + rows)
            groups.append((r, first, rows, edges, tails, x, dt))
    del seg_edge, seg_dt, seg_regime
    inner_terms, lam_total = np.empty((3, inner_edge.size)), lam.sum()  # one level's terms per inner row
    for level, n in enumerate(levels):
        sums, min_h = np.empty((3, n_edges)), np.empty(n_edges)  # the integral, penalty mass and violation
        for r, first, rows, edges, tails, x, dt in groups:
            n_first = first.stop - first.start
            y_r, z_r = _stacked(y_head[level], first, edges), _stacked(z[level], *tails)
            # the value vector with Y_{k+1} as the sub-interval regime's value:
            # U_k is re-based at the tail regime, so column j holds
            # U_k(j) + Y_{k+1} - U_k(r), and column r holds Y_{k+1} itself
            values = _stacked(u[level], *tails)
            values = values.copy() if np.may_share_memory(values, u) else values
            y_base = y_r - values[:, r - 1]
            for j in [*range(r - 1), *range(r, spec.m)]:
                values[:, j] += y_base
            values[:, r - 1] = y_r
            del y_r, y_base
            # a product over all levels' rows at once need not round the same
            compensator = values @ lam
            compensator -= lam_total * values[:, r - 1]
            f = np.subtract(spec.driver(r, x, values, z_r), compensator)
            del compensator
            h = constraint_values(spec, r, x, values, z_r) if spec.m > 1 or n > 0 else None
            del values, z_r
            pen = np.zeros(f.size) if h is None else penalty_batch(spec, h)
            # a slice of the column-major h, which an index would copy to row-major
            min_h[first] = 0.0 if h is None else h[:n_first].min(axis=1)
            del h
            # the terms dt (f + n pen), dt n pen and dt pen / h. An edge's sum
            # starts from 0.0 (which turns -0.0 into 0.0) with its first
            # sub-interval and adds its inner ones in time order, as bincount
            # over the sub-intervals in order adds them
            terms = np.empty((3, f.size))
            np.multiply(np.add(n * pen, f, out=terms[0]), dt, out=terms[0])
            np.multiply(dt * n, pen, out=terms[1])
            np.divide(np.multiply(dt, pen, out=terms[2]), ens.h, out=terms[2])
            np.add(0.0, terms[:, :n_first], out=sums[:, first])
            inner_terms[:, rows] = terms[:, n_first:]
            del f, pen, terms
        for row in range(3 if inner_edge.size else 0):  # no loop variable holds a view of the sums
            np.add.at(sums[row], inner_edge, inner_terms[row])
        yield (*sums, min_h)
        del sums, min_h  # not alive beside the next level's


def step_y(
    ens: Ensemble,
    k: int,
    y_head: Array,
    z_k: Array,
    u_k: Array,
    spec: ProblemSpec,
    levels: Sequence[int],
    *,
    keep_mass: bool = False,
) -> tuple[Array, Optional[Array], Array, Array, Array, list[list[FitRecord]]]:
    """Value estimate at step k: project ``Y_{k+1} + int f^n`` on the basis.

    Returns ``(y, penalty_mass, violation_mean, violation_max, skorohod, fit
    records)``: ``y`` and the penalty mass per unit (``None`` unless
    ``keep_mass``) as (L, units) in the step's layout, and per level the mean
    and max over the units of the time-averaged constraint violation and
    the step's Skorohod term ``E[min_j h_ij * penalty_mass]``. The arguments
    are those of :func:`_driver_terms`, which yields one level at a time.
    """
    _check_step(ens, k, y_head)
    if np.ndim(levels) != 1 or len(levels) != y_head.shape[0]:
        raise ValueError(f"need one level per row of y_head ({y_head.shape[0]}), got levels {levels!r}")
    step = ens.step(k)
    targets = np.empty(y_head.shape)
    penalty_mass = np.empty((len(levels), step.regimes.size)) if keep_mass else None
    violation_mean, violation_max, skorohod = (np.zeros(len(levels)) for _ in range(3))
    weight = step.weights if step.prob is None else _along(step.tail, step.weights) * step.prob
    per_level = _driver_terms(spec, levels, ens, k, y_head, z_k, u_k)
    for level in range(len(levels)):
        # next(), not enumerate(): its reused result tuple would hold this level's arrays beside the next's
        integral, mass, violation, min_h = next(per_level)
        np.add(integral, y_head[level], out=targets[level])  # the driver integral plus Y_{k+1}
        mass, violation = _reduce(step, mass), _reduce(step, violation)
        if keep_mass:
            penalty_mass[level] = mass
        # np.sum, unlike a BLAS dot product, rounds the same under any thread
        # count; sums over the units add in path order, as the paths' arrays have them
        violation_mean[level] = np.sum(step.weights * _by_path(step, violation, axis=0))
        violation_max[level] = violation.max() if violation.size else 0.0
        if np.any(mass):
            skorohod[level] = np.sum(_by_path(step, weight * min_h * _along(step.tail, mass), axis=0))
        del integral, mass, violation, min_h  # not alive beside the next level's
    per_level.close()  # its last level's buffers are not alive beside the fit
    y, records = ens.condexp(k, targets[:, :, None], "y")
    return y[:, :, 0], penalty_mass, violation_mean, violation_max, skorohod, records


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
    y = np.repeat(_terminal_values(spec, ens)[None], L, axis=0)  # step K keeps path order
    # each step's (L, units) arrays in path order; a level's result holds their rows
    kept = {"ys": [None] * K + [y], "zs": [None] * K, "us": [None] * K, "penalty_mass": [None] * K} if keep_steps else {}
    viol_mean, viol_max, skorohod = (np.zeros((L, K)) for _ in range(3))
    records: list[list[FitRecord]] = [[] for _ in range(L)]
    absent: dict[int, list[int]] = {}
    clipped = np.zeros(L, dtype=int)
    total_units = 0
    for k in range(K - 1, -1, -1):
        step = ens.step(k)
        y = y_head = _along(step.head, y)  # the step's one gather of Y_{k+1}, which it replaces
        z, rec_z = estimate_z(ens, k, y_head)
        u, rec_u = estimate_u(ens, k, y_head)
        terms = step_y(ens, k, y_head, z, u, spec, levels, keep_mass=keep_steps)
        y, pm, viol_mean[:, k], viol_max[:, k], skorohod[:, k], rec_y = terms

        if spec.growth_bound is not None:
            radius = spec.growth_radius(step.xs)
            for level, row in enumerate(y):  # in place: no (L, units) temporary beside the step's arrays
                if config.clip_to_growth_bound:
                    clipped[level] += np.count_nonzero(np.abs(row) > radius)
                    np.clip(row, -radius, radius, out=row)
                if np.any(np.abs(row) > 10.0 * radius):
                    raise DivergenceError(f"value estimate exceeded 10x the growth bound at step {k}")
            del radius, row  # a row view would keep this step's y alive beside the next

        for level_records, z_records, u_records, y_records in zip(records, rec_z, rec_u, rec_y):
            level_records += z_records + u_records + y_records
        if step.design is not None:  # a fitted step: the regimes without a stratum
            fitted = {block.regime for block in step.design.blocks}
            if missing := [i for i in range(1, spec.m + 1) if i not in fitted]:
                absent[k] = missing
        total_units += y.shape[1]
        for arrays, values in zip(kept.values(), (y, z, u, pm)):
            arrays[k] = _by_path(step, values)
        del step, y_head, z, u, pm, terms  # not alive beside the next step's arrays

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
