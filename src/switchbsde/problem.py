"""Problem data for coupled regime-switching value systems.

A problem couples ``m`` diffusion regimes on R^d. Each regime ``i`` carries
its own drift ``b_i`` and volatility ``sigma_i``, a running driver
``f_i(x, values, zproxy)`` that may read the whole value vector
``values = (v_1, ..., v_m)``, and pairwise constraint functions
``h_{i,j}(x, y, y', z)`` that must stay nonnegative along the solution.
A finite intensity weight ``lambda_j`` is attached to every target regime;
it drives both the forward regime process and the penalty measure.

Conventions used throughout the package:

* regimes are 1-based integers ``1..m``;
* every coefficient evaluator is vectorized over a leading batch axis:
  ``x`` has shape ``(n, d)``, vector outputs ``(n, d)``, matrix outputs
  ``(n, d, d)``, scalar outputs ``(n,)``;
* evaluators must be pure and reentrant; a ``ProblemSpec`` is immutable
  after construction.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

__all__ = [
    "IntensityMeasure",
    "SwitchingCosts",
    "CoefficientSet",
    "ProblemSpec",
    "ValidationReport",
    "check_regime",
    "make_switching_problem",
    "constraint_values",
    "penalty_batch",
    "validate_problem",
]


def _integer(value, what: str, minimum: int = 0) -> int:
    """``value`` as an int, refused unless an integer (not a bool) >= ``minimum``: every integer setting's rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        bound = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{what} must be {bound}, got {value!r}")
    return int(value)


def _positive(value, what: str) -> float:
    """``value`` as a float, refused unless a finite positive number (not a bool): every step's and horizon's rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
    return float(value)


def _step_count(T: float, h: float, what: str) -> int:
    """Number of steps ``h`` takes over the horizon ``T``: the rule every time grid of the package applies."""
    _positive(h, what)
    K = int(round(T / h))
    if K < 1 or abs(K * h - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"{what} {h} does not divide horizon {T}")
    return K


def check_regime(i: int, m: int) -> int:
    """Validate a 1-based regime index against the regime count."""
    i = int(i)
    if not 1 <= i <= m:
        raise ValueError(f"regime index {i} outside 1..{m}")
    return i


@dataclass(frozen=True)
class IntensityMeasure:
    """Finite nonnegative mark intensities, one weight per target regime.

    ``weights[j-1]`` is the arrival intensity (per unit time) of marks
    pointing at regime ``j``. Simulation only needs nonnegative weights;
    the backward solver additionally requires every weight to be strictly
    positive because its jump estimator divides by ``lambda_j``.
    """

    weights: Array

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size == 0:
            raise ValueError("intensity weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)):
            raise ValueError("intensity weights must be finite")
        if np.any(w < 0):
            raise ValueError("negative intensity weight")
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.size

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def mark_probabilities(self) -> Array:
        """Distribution of a single mark, ``lambda_j / total``."""
        if self.total <= 0.0:
            raise ValueError("mark probabilities undefined for zero total intensity")
        return self.weights / self.total

    def require_positive(self) -> None:
        if np.any(self.weights <= 0):
            raise ValueError("nonpositive intensity weight")


@dataclass(frozen=True)
class SwitchingCosts:
    """Cost matrix ``c[i, j]`` paid for an instantaneous switch i -> j.

    Zero diagonal, finite strictly positive off-diagonal entries and the strict
    triangle condition ``c[i,j] < c[i,k] + c[k,j]`` are enforced; the
    triangle condition rules out free multi-switch loops that a penalized
    solver would chase.
    """

    costs: Array

    def __post_init__(self) -> None:
        c = np.asarray(self.costs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("switching cost matrix must be square")
        m = c.shape[0]
        if np.any(np.diagonal(c) != 0.0):
            raise ValueError("switching cost matrix must have zero diagonal")
        off = c[~np.eye(m, dtype=bool)]
        if not np.all((off > 0.0) & (off < np.inf)):  # NaN fails both
            raise ValueError("off-diagonal switching costs must be finite and positive")
        for i, j, k in itertools.permutations(range(m), 3):
            if not c[i, j] < c[i, k] + c[k, j]:
                raise ValueError(
                    "switching costs violate the strict triangle condition "
                    f"c[{i+1},{j+1}] < c[{i+1},{k+1}] + c[{k+1},{j+1}]"
                )
        object.__setattr__(self, "costs", c)

    @property
    def m(self) -> int:
        return self.costs.shape[0]

    def cost(self, i: int, j: int) -> float:
        return float(self.costs[i - 1, j - 1])


@dataclass(frozen=True)
class CoefficientSet:
    """Batched coefficient evaluators for one problem.

    Signatures (``n`` is the batch size):

    * ``drift(i, x)``: ``(n, d) -> (n, d)``
    * ``vol(i, x)``: ``(n, d) -> (n, d, d)``
    * ``driver(i, x, values, zproxy)``: values ``(n, m)``, zproxy ``(n, d)``
      ``-> (n,)``
    * ``constraint(i, j, x, y_cur, y_tgt, z)``: ``y_cur``/``y_tgt`` ``(n,)``
      ``-> (n,)``; must be non-increasing in ``y_tgt``
    * ``terminal(i, x)``: ``(n, d) -> (n,)``
    """

    drift: Callable[[int, Array], Array]
    vol: Callable[[int, Array], Array]
    driver: Callable[[int, Array, Array, Array], Array]
    constraint: Callable[[int, int, Array, Array, Array, Array], Array]
    terminal: Callable[[int, Array], Array]


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one coupled system.

    ``growth_bound = (c0, c1)``, two finite nonnegative constants, optionally
    asserts ``|v_i(t,x)| <= c0 + c1|x|`` and is used by the solver for
    clipping and divergence detection.
    ``switching_costs`` is set for problems built by
    :func:`make_switching_problem`; the finite-difference oracle requires it.
    """

    m: int
    d: int
    horizon: float
    intensity: IntensityMeasure
    coefficients: CoefficientSet
    initial_regime: int
    initial_state: Array
    growth_bound: Optional[tuple[float, float]] = None
    switching_costs: Optional[SwitchingCosts] = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _integer(self.m, "regime count m", 1))
        object.__setattr__(self, "d", _integer(self.d, "state dimension d", 1))
        object.__setattr__(self, "horizon", _positive(self.horizon, "horizon"))
        if self.intensity.m != self.m:
            raise ValueError("intensity weight count must match the regime count")
        check_regime(self.initial_regime, self.m)
        x0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if x0.shape != (self.d,):
            raise ValueError(f"initial state must have shape ({self.d},)")
        object.__setattr__(self, "initial_state", x0)
        if self.growth_bound is not None:
            c0, c1 = self.growth_bound
            if not (0 <= c0 < np.inf and 0 <= c1 < np.inf):  # NaN fails both
                raise ValueError("growth bound constants must be finite and nonnegative")
            object.__setattr__(self, "growth_bound", (float(c0), float(c1)))
        if self.switching_costs is not None and self.switching_costs.m != self.m:
            raise ValueError("switching cost matrix size must match the regime count")

    # thin delegates, mostly for readability at call sites
    def drift(self, i: int, x: Array) -> Array:
        return self.coefficients.drift(i, x)

    def vol(self, i: int, x: Array) -> Array:
        return self.coefficients.vol(i, x)

    def driver(self, i: int, x: Array, values: Array, zproxy: Array) -> Array:
        return self.coefficients.driver(i, x, values, zproxy)

    def constraint(self, i: int, j: int, x: Array, y_cur: Array, y_tgt: Array, z: Array) -> Array:
        return self.coefficients.constraint(i, j, x, y_cur, y_tgt, z)

    def terminal(self, i: int, x: Array) -> Array:
        return self.coefficients.terminal(i, x)

    def growth_radius(self, x: Array) -> Array:
        """Pointwise bound ``c0 + c1 |x|`` (requires growth_bound)."""
        if self.growth_bound is None:
            raise ValueError("problem has no growth bound")
        c0, c1 = self.growth_bound
        return c0 + c1 * np.linalg.norm(np.atleast_2d(x), axis=-1)


def make_switching_problem(
    m: int,
    d: int,
    costs: SwitchingCosts | Array,
    drift: Callable[[int, Array], Array],
    vol: Callable[[int, Array], Array],
    running_reward: Callable[[int, Array], Array],
    terminal: Callable[[int, Array], Array],
    intensity: IntensityMeasure | Array,
    *,
    horizon: float = 1.0,
    initial_regime: int = 1,
    initial_state: Array | float = 0.0,
    growth_bound: Optional[tuple[float, float]] = None,
    name: str = "switching",
) -> ProblemSpec:
    """Build a switching problem: pay ``c[i,j]`` to move the value basis to j.

    The constraint evaluator is ``h_{i,j}(x, y, y', z) = y - y' + c[i,j]``,
    i.e. regime i's value may never fall below ``v_j - c[i,j]``, and the
    driver is the running reward of the current regime, independent of the
    value vector and of the gradient proxy. ``m = 1`` is allowed: a single
    regime with cost matrix ``[[0]]``, whose only constraint is the vacuous
    self term.
    """
    sw = costs if isinstance(costs, SwitchingCosts) else SwitchingCosts(np.asarray(costs, float))
    if sw.m != m:
        raise ValueError("switching cost matrix size must match the regime count")
    lam = intensity if isinstance(intensity, IntensityMeasure) else IntensityMeasure(intensity)
    cost_matrix = sw.costs

    def constraint(i: int, j: int, x: Array, y_cur: Array, y_tgt: Array, z: Array) -> Array:
        return np.asarray(y_cur) - np.asarray(y_tgt) + cost_matrix[i - 1, j - 1]

    def coupled_driver(i: int, x: Array, values: Array, zproxy: Array) -> Array:
        return running_reward(i, x)

    coeffs = CoefficientSet(
        drift=drift,
        vol=vol,
        driver=coupled_driver,
        constraint=constraint,
        terminal=terminal,
    )
    x0 = np.full(d, float(initial_state)) if np.ndim(initial_state) == 0 else initial_state
    return ProblemSpec(
        m=m,
        d=d,
        horizon=horizon,
        intensity=lam,
        coefficients=coeffs,
        initial_regime=initial_regime,
        initial_state=x0,
        growth_bound=growth_bound,
        switching_costs=sw,
        name=name,
    )


def constraint_values(spec: ProblemSpec, i: int, x: Array, values: Array, zproxy: Array) -> Array:
    """Constraint values ``h_{i,j}(x, values_i, values_j, z)`` for every mark j, shape (n, m).

    Column ``j-1`` holds the constraint towards regime ``j``, the self term
    ``j = i`` included.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    values = np.atleast_2d(np.asarray(values, dtype=float))
    y_cur = values[:, i - 1]
    # column-major (n, m): each mark's column is contiguous, and a reduction
    # over the marks (the Skorohod minimum) runs several times faster than
    # over rows of length m
    out = np.empty((spec.m, x.shape[0]))
    for j in range(1, spec.m + 1):
        out[j - 1] = spec.constraint(i, j, x, y_cur, values[:, j - 1], zproxy)
    return out.T


def penalty_batch(spec: ProblemSpec, h: Array) -> Array:
    """Constraint-violation mass ``sum_j lambda_j [h_{i,j}]^-``, shape (n,).

    ``h`` is the (n, m) output of :func:`constraint_values`. ``[a]^- =
    max(-a, 0)``; the sum runs over every mark including ``j = i`` (the self
    term vanishes for switching constraints since ``c[i,i] = 0``).
    """
    lam = spec.intensity.weights
    total = np.zeros(h.shape[0])
    for j in range(spec.m):
        total += lam[j] * np.maximum(-h[:, j], 0.0)
    return total


@dataclass
class ValidationReport:
    """Outcome of the structural spot checks on a problem."""

    checks: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    lipschitz: dict[str, float] = field(default_factory=dict)
    sample_count: int = 0
    rng_seed: int = 0

    @property
    def passed(self) -> bool:
        return not self.warnings

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": dict(self.checks),
            "warnings": list(self.warnings),
            "lipschitz_ratios": {k: float(v) for k, v in self.lipschitz.items()},
            "sample_count": self.sample_count,
            "rng_seed": self.rng_seed,
        }


def validate_problem(spec: ProblemSpec, sample_count: int = 200, rng_seed: int = 0) -> ValidationReport:
    """Spot-check the structural assumptions behind the solver.

    Hard failures (raise ``ValueError``): a sample count that is not an
    integer >= 1, nonpositive intensity weights and malformed dimensions.
    Everything sampling-based is reported, never enforced: monotonicity of
    the constraint in its target-value argument, and empirical Lipschitz
    ratios for drift, vol, driver, constraint and terminal data over random
    point pairs. Two calls with the same seed produce identical reports.
    """
    sample_count = _integer(sample_count, "sample_count", 1)
    spec.intensity.require_positive()

    report = ValidationReport(sample_count=sample_count, rng_seed=int(rng_seed))
    report.checks["intensity_positive"] = "ok"

    rng = np.random.default_rng(rng_seed)
    scale = 1.0 + float(np.linalg.norm(spec.initial_state))
    xs = spec.initial_state[None, :] + scale * rng.standard_normal((sample_count, spec.d))
    xs2 = spec.initial_state[None, :] + scale * rng.standard_normal((sample_count, spec.d))
    values = rng.standard_normal((sample_count, spec.m))
    zs = rng.standard_normal((sample_count, spec.d))

    # dimension checks on a small batch
    probe = xs[:2]
    for i in range(1, spec.m + 1):
        b = np.asarray(spec.drift(i, probe))
        if b.shape != probe.shape:
            raise ValueError(f"drift evaluator returned shape {b.shape}, expected {probe.shape}")
        s = np.asarray(spec.vol(i, probe))
        if s.shape != (2, spec.d, spec.d):
            raise ValueError(f"vol evaluator returned shape {s.shape}, expected {(2, spec.d, spec.d)}")
        g = np.asarray(spec.terminal(i, probe))
        if g.shape != (2,):
            raise ValueError(f"terminal evaluator returned shape {g.shape}, expected (2,)")
    report.checks["dimensions"] = "ok"

    # H-style monotonicity: h_{i,j} non-increasing in the target value
    mono_ok = True
    y_lo = values[:, 0]
    bumps = np.abs(rng.standard_normal(sample_count)) + 1e-3
    for i in range(1, spec.m + 1):
        for j in range(1, spec.m + 1):
            h_lo = np.asarray(spec.constraint(i, j, xs, y_lo, y_lo, zs), dtype=float)
            h_hi = np.asarray(spec.constraint(i, j, xs, y_lo, y_lo + bumps, zs), dtype=float)
            if np.any(h_hi > h_lo + 1e-12):
                mono_ok = False
    if mono_ok:
        report.checks["constraint_monotone"] = "ok"
    else:
        report.checks["constraint_monotone"] = "violated on samples"
        report.warnings.append("constraint is not non-increasing in the target value on sampled points")

    # sampled Lipschitz ratios, reported only
    diffs = np.linalg.norm(xs - xs2, axis=1)
    keep = diffs > 1e-12
    def _ratio(fn_values_a: Array, fn_values_b: Array) -> float:
        num = np.abs(np.asarray(fn_values_a, dtype=float) - np.asarray(fn_values_b, dtype=float))
        if num.ndim > 1:
            num = np.linalg.norm(num.reshape(num.shape[0], -1), axis=1)
        return float(np.max(num[keep] / diffs[keep])) if np.any(keep) else 0.0

    for i in range(1, spec.m + 1):
        report.lipschitz[f"drift[{i}]"] = _ratio(spec.drift(i, xs), spec.drift(i, xs2))
        report.lipschitz[f"vol[{i}]"] = _ratio(spec.vol(i, xs), spec.vol(i, xs2))
        report.lipschitz[f"driver[{i}]"] = _ratio(
            spec.driver(i, xs, values, zs), spec.driver(i, xs2, values, zs)
        )
        report.lipschitz[f"terminal[{i}]"] = _ratio(spec.terminal(i, xs), spec.terminal(i, xs2))
        y_cur = values[:, 0]
        y_tgt = values[:, -1] + 0.5
        for j in range(1, spec.m + 1):
            report.lipschitz[f"constraint[{i},{j}]"] = _ratio(
                spec.constraint(i, j, xs, y_cur, y_tgt, zs),
                spec.constraint(i, j, xs2, y_cur, y_tgt, zs),
            )
    report.checks["lipschitz_sampled"] = "reported"

    if spec.switching_costs is not None:
        # construction already enforces the invariants; re-verify and record
        _ = SwitchingCosts(spec.switching_costs.costs)
        report.checks["switching_costs"] = "ok"

    return report
