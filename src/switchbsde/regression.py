"""Least-squares estimation of conditional expectations given (regime, state).

The estimators regress per-sample targets on a finite basis evaluated at the
state, separately per regime value: the regime is part of the Markov state,
and one fit per regime computes the conditional expectation given that
discrete coordinate exactly. Features are standardized per stratum before
expansion. One :func:`ols_fit` per stratum solves every target column from
one eigendecomposition of the Gram matrix, which also gives the fit's
condition number and numerical rank; the solver always fits under the
automatic ridge ``1e-10 trace(G) / L``. A backward step builds one design
per step and factors each stratum's Gram matrix once: the z, u and y fits
of that step pass the :class:`GramFactor` of the first fit back in, so the
three families share one factorization per (step, stratum). Targets may
carry a leading axis of blocks (the levels of a penalization ladder): one
fit covers every block, with each block's products run in the one-block
shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .problem import _integer

Array = np.ndarray

__all__ = [
    "BasisSpec",
    "GramFactor",
    "OlsFit",
    "build_design",
    "ols_fit",
]


@dataclass(frozen=True)
class BasisSpec:
    """Basis family for one conditional-expectation estimator.

    ``kind`` is ``"global-polynomial"`` (all monomials of total degree
    <= ``degree``) or ``"piecewise-linear"`` (d = 1 only: affine part plus
    ``degree`` hinge functions at training quantiles). A separate fit is run
    per regime value.
    """

    kind: str = "global-polynomial"
    degree: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("global-polynomial", "piecewise-linear"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        object.__setattr__(self, "degree", _integer(self.degree, "basis degree"))  # echoes as a JSON number

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


@dataclass(frozen=True)
class GramFactor:
    """Eigendecomposition of one design's Gram matrix ``G = design^T design / n``."""

    evals: Array
    evecs: Array
    trace: float

    @classmethod
    def of(cls, design: Array) -> "GramFactor":
        gram = design.T @ design / design.shape[0]
        evals, evecs = np.linalg.eigh(gram)
        return cls(evals=evals, evecs=evecs, trace=float(np.trace(gram)))


@dataclass
class OlsFit:
    """One least-squares fit: coefficients, fitted values and conditioning diagnostics."""

    coefficients: Array
    fitted: Array
    gram_condition: float
    residual_mse: Array
    sample_count: int
    rank_deficient: bool
    factor: GramFactor


def ols_fit(design: Array, targets: Array, ridge: float | None = 0.0, factor: GramFactor | None = None) -> OlsFit:
    """Minimize ``(1/n)||targets - design @ coef||^2 + ridge ||coef||^2`` per target column.

    ``targets`` is ``(n,)``, ``(n, c)`` or ``(B, n, c)``; ``coefficients``,
    ``fitted`` and ``residual_mse`` follow its shape. A leading axis of ``B``
    blocks runs every product block by block in the ``(n, c)`` shape, so block
    ``b`` gets bit for bit what a fit on ``targets[b]`` alone gets: a product
    over all ``B * c`` columns at once need not round the same. One
    eigendecomposition of ``G = design^T design / n`` gives the solve,
    ``gram_condition = max|e| / min|e|`` and the rank, the count of
    eigenvalues above ``L * eps * max|e|``; ``rank_deficient`` is ``rank < L``
    under any ridge. ``ridge=None`` selects ``1e-10 trace(G) / L``;
    ``ridge = 0`` drops the eigenvalues at or below the floor, which gives the
    minimum-norm solution. ``factor``, the ``factor`` of an earlier fit on the
    same design, skips the eigendecomposition.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n, L = design.shape
    blocked = targets.ndim == 3
    if n < 1 or L < 1 or targets.shape[int(blocked)] != n:
        raise ValueError("design needs >= 1 row and column, and as many rows as the targets")
    if targets.ndim > 3:
        raise ValueError("targets must be (n,), (n, c) or (blocks, n, c)")
    if factor is None:
        factor = GramFactor.of(design)
    elif factor.evals.shape != (L,):
        raise ValueError("factor was computed for a design with a different column count")
    ridge = 1e-10 * factor.trace / L if ridge is None else ridge
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    evals, evecs = factor.evals, factor.evecs
    magnitude = np.abs(evals)
    floor = L * np.finfo(float).eps * magnitude.max()
    inverse = np.divide(1.0, evals + ridge, out=np.zeros(L), where=evals + ridge > floor)
    solve = evecs * inverse
    if blocked:
        coef = np.stack([solve @ (evecs.T @ (design.T @ np.ascontiguousarray(block) / n)) for block in targets])
        fitted = np.empty(targets.shape)
        for block_coef, block_fitted in zip(coef, fitted):
            np.matmul(design, block_coef, out=block_fitted)
    else:
        coef = solve @ (evecs.T @ (design.T @ targets / n))
        fitted = design @ coef
    # one contiguous row per target column: a mean down the columns of (n, c) is strided
    by_column = [np.swapaxes(a if blocked else a.reshape(n, -1), -1, -2) for a in (targets, fitted)]
    resid = np.subtract(*by_column, out=np.empty(by_column[0].shape))
    resid *= resid
    mse = np.mean(resid, axis=-1)
    return OlsFit(
        coefficients=coef,
        fitted=fitted,
        gram_condition=float(magnitude.max() / magnitude.min()) if magnitude.min() > 0 else float("inf"),
        residual_mse=mse if targets.ndim > 1 else mse[0],
        sample_count=n,
        rank_deficient=bool(np.count_nonzero(evals > floor) < L),
        factor=factor,
    )


@dataclass
class _Block:
    rows: Array
    matrix: Array
    factor: GramFactor | None = None  # set by the first fit on this block


def build_design(basis: BasisSpec, regimes: Sequence[int] | Array, xs: Array) -> dict[int, _Block]:
    """Design matrices partitioned by regime stratum.

    Returns a dict ``regime -> block``, one block per present regime in
    increasing regime order, where each block holds the row indices of that
    stratum and its feature matrix. States are standardized per stratum
    before expansion.
    """
    regimes = np.asarray(regimes, dtype=int)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if regimes.shape[0] != xs.shape[0]:
        raise ValueError("regimes and states must have the same length")
    if xs.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    blocks: dict[int, _Block] = {}
    for r in np.flatnonzero(np.bincount(regimes)):
        rows = np.flatnonzero(regimes == r)
        blocks[int(r)] = _Block(rows=rows, matrix=_features(basis, xs[rows]))
    return blocks

