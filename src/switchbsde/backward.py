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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .forward import PathBundle
from .lattice import LatticeChain
from .problem import ProblemSpec, constraint_values, penalty_batch
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
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"penalization level must be a nonnegative integer, got {self.n!r}")
        if self.paths < 1:
            raise ValueError("path count must be >= 1")
        if not self.h > 0:
            raise ValueError("time step must be positive")
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
    """Diagnostics of one per-step regression fit."""

    step: int
    family: str
    stratum: int
    sample_count: int
    gram_condition: float
    residual_mse: float
    rank_deficient: bool


# ---------------------------------------------------------------------------
# ensembles: a uniform per-step view over Monte Carlo paths and chain nodes


class MonteCarloEnsemble:
    """Per-step view of a :class:`PathBundle` with OLS conditional expectations."""

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
        self._design_cache: tuple[int, dict] | None = None
        self._arange = np.arange(bundle.N)

    def n_units(self, k: int) -> int:
        return self.bundle.N

    def states(self, k: int):
        return self.bundle.i_reg[:, k].astype(int), self.bundle.x_reg[:, k, :]

    def unit_weights(self, k: int) -> Array:
        return np.full(self.bundle.N, 1.0 / self.bundle.N)

    def edge_arrays(self, k: int):
        """tail, head, prob, dW, counts for step k (one edge per path)."""
        b = self.bundle
        return self._arange, self._arange, None, b.dw_reg[:, k, :], b.counts_reg[:, k, :].astype(float)

    def segments(self, k: int):
        """(edge index, duration, regime) for the step's sub-intervals."""
        return self.bundle.step_segments()[k]

    def edge_to_unit(self, k: int, values: Array) -> Array:
        return values

    def _design(self, k: int) -> dict:
        if self._design_cache is None or self._design_cache[0] != k:
            regimes, xs = self.states(k)
            self._design_cache = (k, build_design(self.basis, regimes, xs))
        return self._design_cache[1]

    def condexp(self, k: int, targets: Array, family: str) -> tuple[Array, list[FitRecord]]:
        targets = np.atleast_2d(targets.T).T  # (N, c)
        if not np.all(np.isfinite(targets)):
            raise DivergenceError(f"non-finite regression target for {family} at step {k}")
        n, c = targets.shape
        out = np.empty_like(targets)
        records: list[FitRecord] = []
        if k == 0:
            # all paths share the initial state: E_0 is the plain mean
            out[:] = targets.mean(axis=0)[None, :]
            return out, records
        blocks = self._design(k)
        for stratum, block in sorted(blocks.items()):
            fit = ols_fit(block.matrix, targets[block.rows], self.ridge)
            out[block.rows] = block.matrix @ fit.coefficients
            records.extend(
                FitRecord(
                    step=k,
                    family=family if c == 1 else f"{family}{col + 1}",
                    stratum=stratum,
                    sample_count=fit.sample_count,
                    gram_condition=fit.gram_condition,
                    residual_mse=float(mse),
                    rank_deficient=fit.rank_deficient,
                )
                for col, mse in enumerate(fit.residual_mse)
            )
        return out, records

    def thinnest_stratum(self) -> Optional[int]:
        """Fewest paths in any regression stratum over the fitted steps.

        Steps ``1..K-1`` are fitted (step 0 is a plain mean); ``None`` when
        there are none.
        """
        fitted = self.bundle.i_reg[:, 1 : self.n_steps]
        if fitted.shape[1] == 0:
            return None
        if not self.basis.stratify_by_regime:
            return self.bundle.N
        return min(int(c[c > 0].min()) for c in map(np.bincount, fitted.T))

    def absent_strata(self, k: int) -> list[int]:
        present = set(np.unique(self.bundle.i_reg[:, k]).astype(int))
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
        es = self.chain.edges[k]
        n_edges = es.tail.size
        regimes = self.chain.nodes[k].regime[es.tail].astype(int)
        return np.arange(n_edges), np.full(n_edges, self.h), regimes

    def edge_to_unit(self, k: int, values: Array) -> Array:
        return self._reduce(k, values)

    def _reduce(self, k: int, per_edge: Array) -> Array:
        es = self.chain.edges[k]
        per_edge = np.atleast_2d(per_edge.T).T
        out = np.zeros((self.n_units(k), per_edge.shape[1]))
        np.add.at(out, es.tail, es.prob[:, None] * per_edge)
        return out[:, 0] if out.shape[1] == 1 else out

    def condexp(self, k: int, targets: Array, family: str) -> tuple[Array, list[FitRecord]]:
        if not np.all(np.isfinite(targets)):
            raise DivergenceError(f"non-finite target for {family} at step {k}")
        return self._reduce(k, targets), []

    def absent_strata(self, k: int) -> list[int]:
        return []


Ensemble = Union[MonteCarloEnsemble, LatticeEnsemble]


def make_ensemble(spec: ProblemSpec, config: SchemeConfig, bundle) -> Ensemble:
    if isinstance(bundle, PathBundle):
        if abs(bundle.h - config.h) > 1e-9 * max(1.0, config.h):
            raise ValueError("bundle step does not match the configured step")
        if bundle.N != config.paths:
            raise ValueError(f"bundle path count {bundle.N} does not match the configured {config.paths}")
        return MonteCarloEnsemble(spec, bundle, config.basis, config.ridge)
    if isinstance(bundle, LatticeChain):
        return LatticeEnsemble(spec, bundle)
    raise TypeError(f"cannot build an ensemble from {type(bundle).__name__}")


# ---------------------------------------------------------------------------
# per-step operations


def _check_step(ens: Ensemble, k: int) -> None:
    if not 0 <= k < ens.n_steps:
        raise ValueError(f"step index {k} out of range [0, {ens.n_steps})")


def estimate_z(ens: Ensemble, k: int, y_next: Array) -> tuple[Array, list[FitRecord]]:
    """Gradient-proxy estimate at step k from next-step values.

    Regresses ``Y_{k+1} * dW / h`` componentwise; ``dW`` is the aggregate
    increment over the whole step.
    """
    _check_step(ens, k)
    _, head, _, dw, _ = ens.edge_arrays(k)
    targets = y_next[head][:, None] * dw / ens.h
    values, records = ens.condexp(k, targets, "z")
    return np.atleast_2d(values.T).T, records


def estimate_u(ens: Ensemble, k: int, y_next: Array) -> tuple[Array, Array, list[FitRecord]]:
    """Jump-offset estimates at step k, re-based at the current regime.

    Returns ``(u, u_raw, fit records)`` where ``u_raw`` is the direct
    compensated-count regression and ``u`` subtracts each unit's own-regime
    component (making it exactly zero there).
    """
    _check_step(ens, k)
    ens.spec.intensity.require_positive()
    lam = ens.spec.intensity.weights
    _, head, _, _, counts = ens.edge_arrays(k)
    compensated = counts - lam[None, :] * ens.h
    targets = y_next[head][:, None] * compensated / (lam[None, :] * ens.h)
    u_raw, records = ens.condexp(k, targets, "u")
    u_raw = np.atleast_2d(u_raw.T).T
    regimes, _ = ens.states(k)
    own = u_raw[np.arange(u_raw.shape[0]), regimes - 1]
    u = u_raw - own[:, None]
    return u, u_raw, records


def _driver_terms(
    spec: ProblemSpec, n_pen: int, ens: Ensemble, k: int, y_next: Array, z: Array, u: Array
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
    """
    tail, head, _, _, _ = ens.edge_arrays(k)
    _, xs = ens.states(k)
    lam = spec.intensity.weights
    seg_edge, seg_dt, seg_regime = ens.segments(k)

    y_seg = y_next[head][seg_edge]
    x_seg = xs[tail][seg_edge]
    z_seg = z[tail][seg_edge]
    u_seg = u[tail][seg_edge]

    f_val = np.empty(seg_edge.size)
    pen_val = np.zeros(seg_edge.size)
    min_h = np.zeros(seg_edge.size)
    for r in np.unique(seg_regime):
        rows = np.flatnonzero(seg_regime == r)
        yvec = y_seg[rows][:, None] + u_seg[rows]
        yvec[:, r - 1] = y_seg[rows]
        compensator = yvec @ lam - lam.sum() * yvec[:, r - 1]
        f_val[rows] = spec.driver(int(r), x_seg[rows], yvec, z_seg[rows]) - compensator
        if spec.m > 1 or n_pen > 0:
            h = constraint_values(spec, int(r), x_seg[rows], yvec, z_seg[rows])
            pen_val[rows] = penalty_batch(spec, h)
            # reduce the whole column-major array: selecting rows first would
            # copy it to row-major
            min_h[rows] = h.min(axis=1)
            del h  # not alive beside the next group's arrays

    n_edges = tail.size
    # segments are ordered by edge (by path in Monte Carlo, one per edge on a
    # chain), so an edge's first row is its first sub-interval
    min_h = min_h[np.searchsorted(seg_edge, np.arange(n_edges))]
    integral = np.zeros(n_edges)
    np.add.at(integral, seg_edge, seg_dt * (f_val + n_pen * pen_val))
    penalty_mass = np.zeros(n_edges)
    np.add.at(penalty_mass, seg_edge, seg_dt * n_pen * pen_val)
    violation = np.zeros(n_edges)
    np.add.at(violation, seg_edge, seg_dt * pen_val / ens.h)
    return integral, penalty_mass, violation, min_h


def step_y(
    ens: Ensemble,
    k: int,
    y_next: Array,
    z_k: Array,
    u_k: Array,
    spec: ProblemSpec,
    n: int,
) -> tuple[Array, Array, Array, float, list[FitRecord]]:
    """Value estimate at step k: project ``Y_{k+1} + int f^n`` on the basis.

    Returns ``(y, penalty_mass, violation, skorohod, fit records)`` with the
    penalty mass and the time-averaged constraint violation reduced per
    unit, and the step's Skorohod term ``E[min_j h_ij * penalty_mass]``.
    """
    _check_step(ens, k)
    tail, head, prob, _, _ = ens.edge_arrays(k)
    integral, penalty_edge, violation_edge, min_h = _driver_terms(spec, n, ens, k, y_next, z_k, u_k)
    targets = y_next[head] + integral
    y, records = ens.condexp(k, targets, "y")
    y = np.asarray(y).reshape(-1)
    penalty_mass = ens.edge_to_unit(k, penalty_edge)
    skorohod = 0.0
    if np.any(penalty_mass):
        edge_prob = prob if prob is not None else np.ones(tail.size)
        skorohod = float(np.sum(ens.unit_weights(k)[tail] * edge_prob * min_h * penalty_mass[tail]))
    return y, penalty_mass, ens.edge_to_unit(k, violation_edge), skorohod, records


# ---------------------------------------------------------------------------
# the full backward pass


@dataclass
class SolveResult:
    """Output of one backward solve."""

    y0: float
    scheme: SchemeConfig
    mode: str
    ys: list[Array]
    zs: list[Array]
    us: list[Array]
    penalty_mass: list[Array]
    violation_mean: Array
    violation_max: Array
    skorohod_steps: Array
    fit_records: list[FitRecord]
    absent_strata_steps: dict[int, list[int]] = field(default_factory=dict)
    clipped_fraction: float = 0.0

    def diagnostics_dict(self) -> dict:
        return {
            "violation_mean": [float(v) for v in self.violation_mean],
            "violation_max": [float(v) for v in self.violation_max],
            "mean_violation": float(np.mean(self.violation_mean)) if len(self.violation_mean) else 0.0,
            "clipped_fraction": self.clipped_fraction,
            "absent_strata_steps": {str(k): v for k, v in self.absent_strata_steps.items()},
        }


def solve_backward(spec: ProblemSpec, config: SchemeConfig, bundle) -> SolveResult:
    """Run the backward scheme on a path bundle or an enumerated chain."""
    spec.intensity.require_positive()
    ens = make_ensemble(spec, config, bundle)
    K = ens.n_steps

    if isinstance(ens, MonteCarloEnsemble):
        thinnest, size = ens.thinnest_stratum(), config.basis.size(spec.d)
        if thinnest is not None and thinnest < size:
            warnings.warn(f"fewer paths per stratum than basis functions ({thinnest} < {size})", stacklevel=2)

    regimes_T, x_T = ens.states(K)
    y = np.empty(regimes_T.size)
    for i in np.unique(regimes_T):
        rows = np.flatnonzero(regimes_T == i)
        y[rows] = spec.terminal(int(i), x_T[rows])

    ys: list[Array] = [None] * (K + 1)
    zs: list[Array] = [None] * K
    us: list[Array] = [None] * K
    pmass: list[Array] = [None] * K
    viol_mean = np.zeros(K)
    viol_max = np.zeros(K)
    skorohod = np.zeros(K)
    records: list[FitRecord] = []
    absent: dict[int, list[int]] = {}
    clipped = 0
    total_units = 0
    ys[K] = y

    for k in range(K - 1, -1, -1):
        z, rec_z = estimate_z(ens, k, y)
        u, _, rec_u = estimate_u(ens, k, y)
        y_new, pm, vl, skorohod[k], rec_y = step_y(ens, k, y, z, u, spec, config.n)

        if config.clip_to_growth_bound and spec.growth_bound is not None:
            _, xs = ens.states(k)
            bound = spec.growth_radius(xs)
            clipped += int(np.count_nonzero(np.abs(y_new) > bound))
            y_new = np.clip(y_new, -bound, bound)
        if spec.growth_bound is not None:
            _, xs = ens.states(k)
            if np.any(np.abs(y_new) > 10.0 * spec.growth_radius(xs)):
                raise DivergenceError(f"value estimate exceeded 10x the growth bound at step {k}")

        w = ens.unit_weights(k)
        viol_mean[k] = float(w @ vl)
        viol_max[k] = float(vl.max()) if vl.size else 0.0
        missing = ens.absent_strata(k)
        if missing:
            absent[k] = missing
        records.extend(rec_z + rec_u + rec_y)
        ys[k], zs[k], us[k], pmass[k] = y_new, z, u, pm
        total_units += y_new.size
        y = y_new

    y0 = float(ens.unit_weights(0) @ ys[0])
    return SolveResult(
        y0=y0,
        scheme=config,
        mode="exact" if ens.exact else "mc",
        ys=ys,
        zs=zs,
        us=us,
        penalty_mass=pmass,
        violation_mean=viol_mean,
        violation_max=viol_max,
        skorohod_steps=skorohod,
        fit_records=records,
        absent_strata_steps=absent,
        clipped_fraction=clipped / max(total_units, 1),
    )


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
    ladder are purely due to the penalty level.
    """
    if not n_schedule:
        raise ValueError("n_schedule must have at least one entry")
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    configs = [replace(config, n=n) for n in n_schedule]  # refuses a bad level before any solve
    y0s: list[float] = []
    viols: list[float] = []
    skos: list[float] = []
    for level in configs:
        result = solve_backward(spec, level, bundle)
        y0s.append(result.y0)
        viols.append(float(np.mean(result.violation_mean)) if result.violation_mean.size else 0.0)
        skos.append(skorohod_residual(result))
        del result  # free this level's per-step arrays before the next solve
    return ConvergenceReport(
        n_schedule=[int(n) for n in n_schedule],
        y0=y0s,
        mean_violation=viols,
        y0_nondecreasing=[b >= a for a, b in zip(y0s, y0s[1:])],
        violation_nonincreasing=[b <= a for a, b in zip(viols, viols[1:])],
        skorohod=skos,
    )
