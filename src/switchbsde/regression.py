"""Least-squares estimation of conditional expectations given (regime, state).

The estimators regress per-sample targets on a finite basis evaluated at the
state, separately per regime value by default (stratification computes the
conditional expectation given the discrete coordinate exactly). Features are
standardized per stratum before expansion. One :func:`ols_fit` per stratum
solves every target column from one eigendecomposition of the Gram matrix,
which also gives the fit's condition number and numerical rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "BasisSpec",
    "OlsFit",
    "build_design",
    "ols_fit",
]

POOLED = 0  # key of the single block of an unstratified design


@dataclass(frozen=True)
class BasisSpec:
    """Basis family for one conditional-expectation estimator.

    ``kind`` is ``"global-polynomial"`` (all monomials of total degree
    <= ``degree``) or ``"piecewise-linear"`` (d = 1 only: affine part plus
    ``degree`` hinge functions at training quantiles). With
    ``stratify_by_regime`` a separate fit is run per regime value.
    """

    kind: str = "global-polynomial"
    degree: int = 2
    stratify_by_regime: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("global-polynomial", "piecewise-linear"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.degree < 0:
            raise ValueError("basis degree must be nonnegative")

    def size(self, d: int) -> int:
        """Number of basis functions per stratum."""
        if self.kind == "global-polynomial":
            return comb(d + self.degree, self.degree)
        if d != 1:
            raise ValueError("piecewise-linear basis requires d = 1")
        return self.degree + 2


def _exponents(d: int, degree: int) -> Array:
    exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) <= degree]
    exps.sort(key=lambda e: (sum(e), e))
    return np.asarray(exps, dtype=int)


def _features(basis: BasisSpec, x: Array) -> Array:
    """Basis expansion of the standardized states ``x``, shape (n, basis size).

    Each coordinate is shifted by its mean and divided by its standard
    deviation (when positive); hinge knots sit at quantiles of the
    standardized first coordinate.
    """
    shift = x.mean(axis=0)
    scale = x.std(axis=0)
    z = (x - shift) / np.where(scale > 0, scale, 1.0)
    if basis.kind == "global-polynomial":
        powers = np.ones((z.shape[0], basis.degree + 1, z.shape[1]))
        for p in range(1, basis.degree + 1):
            powers[:, p] = powers[:, p - 1] * z
        return np.prod(powers[:, _exponents(x.shape[1], basis.degree), np.arange(x.shape[1])], axis=2)
    qs = np.linspace(0.0, 1.0, basis.degree + 2)[1:-1]
    knots = np.quantile(z[:, 0], qs) if basis.degree > 0 else np.empty(0)
    return np.column_stack([np.ones(z.shape[0]), z[:, 0], *(np.maximum(z[:, 0] - knot, 0.0) for knot in knots)])


@dataclass
class OlsFit:
    """One least-squares fit: coefficients plus conditioning diagnostics."""

    coefficients: Array
    gram_condition: float
    residual_mse: Array
    sample_count: int
    rank_deficient: bool = False


def ols_fit(design: Array, targets: Array, ridge: float | None = 0.0) -> OlsFit:
    """Minimize ``(1/n)||targets - design @ coef||^2 + ridge ||coef||^2`` per target column.

    ``targets`` is ``(n,)`` or ``(n, c)``; ``coefficients`` and ``residual_mse``
    follow its trailing shape. One eigendecomposition of ``G = design^T design / n``
    gives the solve, ``gram_condition = max|e| / min|e|`` and the rank, the count of
    eigenvalues above ``L * eps * max|e|``; ``rank_deficient`` is ``rank < L`` under
    any ridge. ``ridge=None`` selects ``1e-10 trace(G) / L``; ``ridge = 0`` drops the
    eigenvalues at or below the floor, which gives the minimum-norm solution.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n, L = design.shape
    if n < 1 or L < 1 or targets.shape[0] != n:
        raise ValueError("design needs >= 1 row and column, and as many rows as the targets")
    gram = design.T @ design / n
    ridge = 1e-10 * float(np.trace(gram)) / L if ridge is None else ridge
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    evals, evecs = np.linalg.eigh(gram)
    magnitude = np.abs(evals)
    floor = L * np.finfo(float).eps * magnitude.max()
    inverse = np.divide(1.0, evals + ridge, out=np.zeros(L), where=evals + ridge > floor)
    coef = (evecs * inverse) @ (evecs.T @ (design.T @ targets / n))
    return OlsFit(
        coefficients=coef,
        gram_condition=float(magnitude.max() / magnitude.min()) if magnitude.min() > 0 else float("inf"),
        residual_mse=np.mean((targets - design @ coef) ** 2, axis=0),
        sample_count=n,
        rank_deficient=bool(np.count_nonzero(evals > floor) < L),
    )


@dataclass
class _Block:
    rows: Array
    matrix: Array


def build_design(basis: BasisSpec, regimes: Sequence[int] | Array, xs: Array) -> dict[int, _Block]:
    """Design matrices partitioned by regime stratum.

    Returns a dict ``regime -> block`` where each block holds the row
    indices of that stratum and its feature matrix. States are standardized
    per stratum before expansion. Without stratification everything lands
    in one block under the ``POOLED`` key.
    """
    regimes = np.asarray(regimes, dtype=int)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if regimes.shape[0] != xs.shape[0]:
        raise ValueError("regimes and states must have the same length")
    if xs.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    if not basis.stratify_by_regime:
        return {POOLED: _Block(rows=np.arange(xs.shape[0]), matrix=_features(basis, xs))}
    blocks: dict[int, _Block] = {}
    for r in np.unique(regimes):
        rows = np.flatnonzero(regimes == r)
        blocks[int(r)] = _Block(rows=rows, matrix=_features(basis, xs[rows]))
    return blocks

