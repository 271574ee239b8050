"""Least-squares estimation of conditional expectations given (regime, state).

The estimators regress per-sample targets on a finite basis evaluated at the
state, separately per regime value by default (stratification computes the
conditional expectation given the discrete coordinate exactly). Features are
standardized per stratum before expansion.
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
        exps = _exponents(x.shape[1], basis.degree)
        return np.prod(z[:, None, :] ** exps[None, :, :], axis=2)
    qs = np.linspace(0.0, 1.0, basis.degree + 2)[1:-1]
    knots = np.quantile(z[:, 0], qs) if basis.degree > 0 else np.empty(0)
    return np.column_stack([np.ones(z.shape[0]), z[:, 0], *(np.maximum(z[:, 0] - knot, 0.0) for knot in knots)])


@dataclass
class OlsFit:
    """One least-squares fit: coefficients plus conditioning diagnostics."""

    coefficients: Array
    gram_condition: float
    residual_mse: float
    sample_count: int
    ridge: float = 0.0
    rank_deficient: bool = False


def ols_fit(design: Array, targets: Array, ridge: float = 0.0) -> OlsFit:
    """Minimize ``(1/n)||targets - design @ coef||^2 + ridge ||coef||^2``.

    With ``ridge = 0`` and a rank-deficient design the minimum-norm solution
    is returned and flagged rather than raising.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n, L = design.shape
    if n < 1 or targets.shape[0] != n:
        raise ValueError("design and target row counts must match and be >= 1")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    gram = design.T @ design / n
    gram_condition = float(np.linalg.cond(gram)) if L > 0 else 0.0
    if ridge > 0.0:
        coef = np.linalg.solve(gram + ridge * np.eye(L), design.T @ targets / n)
        rank_deficient = False
    else:
        coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
        rank_deficient = rank < L
    resid = targets - design @ coef
    residual_mse = float(np.mean(resid**2)) if resid.ndim == 1 else float(np.mean(resid**2, axis=0).mean())
    return OlsFit(
        coefficients=coef,
        gram_condition=gram_condition,
        residual_mse=residual_mse,
        sample_count=n,
        ridge=float(ridge),
        rank_deficient=rank_deficient,
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


def _auto_ridge(matrix: Array) -> float:
    n, L = matrix.shape
    gram_trace = float(np.einsum("ij,ij->", matrix, matrix)) / n
    return 1e-10 * gram_trace / max(L, 1)
