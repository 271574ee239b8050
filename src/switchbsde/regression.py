"""Least-squares estimation of conditional expectations given (regime, state).

The estimators regress per-sample targets on a finite basis evaluated at the
state, separately per regime value: the regime is part of the Markov state,
and one fit per regime computes the conditional expectation given that
discrete coordinate exactly. Features are standardized per stratum before
expansion.

:func:`build_design` owns a step's strata: it lays the rows out end to end,
stratum by stratum, with the permutation that undoes the layout, and gives
each stratum its feature matrix and the :class:`GramFactor` of that matrix,
built once. The z, u and y fits of a backward step all pass that factor to
:func:`ols_fit`, so the three families share one factorization per (step,
stratum). One :func:`ols_fit` solves every target column from the
eigendecomposition of the Gram matrix ``G``, which also gives the fit's
condition number and numerical rank, under the one ridge
``1e-10 trace(G) / L``. Targets may carry a leading axis of blocks (the
levels of a penalization ladder): one fit covers every block, with each
block's products run in the one-block shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Collection, Sequence

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


def ols_fit(design: Array, targets: Array, factor: GramFactor | None = None) -> OlsFit:
    """Minimize ``(1/n)||targets - design @ coef||^2 + ridge ||coef||^2`` per target column.

    The ridge is ``1e-10 trace(G) / L``, with ``G = design^T design / n``.
    ``targets`` is ``(n,)``, ``(n, c)`` or ``(B, n, c)``; ``coefficients``,
    ``fitted`` and ``residual_mse`` follow its shape. Every product runs
    block by block in the ``(n, c)`` shape, the first two shapes being one
    block, so block ``b`` of ``B`` gets bit for bit what a fit on
    ``targets[b]`` alone gets: a product over all ``B * c`` columns at once
    need not round the same. One eigendecomposition of ``G`` gives the
    solve, ``gram_condition = max|e| / min|e|`` and the rank, the count of
    eigenvalues above ``L * eps * max|e|``; ``rank_deficient`` is
    ``rank < L``. ``factor``, the design's :class:`GramFactor`, skips the
    eigendecomposition.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n, L = design.shape
    if not 1 <= targets.ndim <= 3:
        raise ValueError("targets must be (n,), (n, c) or (blocks, n, c)")
    if n < 1 or L < 1 or targets.shape[targets.ndim == 3] != n:
        raise ValueError("design needs >= 1 row and column, and as many rows as the targets")
    if factor is None:
        factor = GramFactor.of(design)
    elif factor.evals.shape != (L,):
        raise ValueError("factor was computed for a design with a different column count")
    evals, evecs = factor.evals, factor.evecs
    magnitude = np.abs(evals)
    floor = L * np.finfo(float).eps * magnitude.max()
    shifted = evals + 1e-10 * factor.trace / L
    solve = evecs * np.divide(1.0, shifted, out=np.zeros(L), where=shifted > floor)
    blocks = targets if targets.ndim == 3 else targets.reshape(1, n, -1)
    coef = np.stack([solve @ (evecs.T @ (design.T @ np.ascontiguousarray(block) / n)) for block in blocks])
    fitted = np.empty(blocks.shape)
    for block_coef, block_fitted in zip(coef, fitted):
        np.matmul(design, block_coef, out=block_fitted)
    # one contiguous row per target column, block by block: a mean down the columns of (n, c) is strided
    mse, resid = np.empty(blocks.shape[::2]), np.empty(blocks.shape[:0:-1])
    for block, block_fitted, block_mse in zip(blocks, fitted, mse):
        np.square(np.subtract(block.T, block_fitted.T, out=resid), out=resid)
        np.mean(resid, axis=-1, out=block_mse)
    if targets.ndim < 3:  # the one block's axis goes
        coef, fitted, mse = coef[0], fitted[0], mse[0]
        if targets.ndim == 1:  # and the column axis of (n,) targets
            coef, fitted, mse = coef[:, 0], fitted[:, 0], mse[0]
    return OlsFit(
        coefficients=coef,
        fitted=fitted,
        gram_condition=float(magnitude.max() / magnitude.min()) if magnitude.min() > 0 else float("inf"),
        residual_mse=mse,
        sample_count=n,
        rank_deficient=bool(np.count_nonzero(evals > floor) < L),
    )


def _strata(labels: Array) -> dict[int, Array]:
    """Row indices of each value present in nonempty ``labels``, by increasing value, in index order within each."""
    # one comparison per value in range: a bincount would first copy int16 labels to intp
    values = range(int(labels.min()), int(labels.max()) + 1)
    return {r: rows for r in values if (rows := np.flatnonzero(labels == r)).size}


def _inverse(groups: Collection[Array]) -> Array:
    """``inverse`` with ``np.take(a, inverse)`` putting rows laid out group by group back in index order."""
    inverse = np.empty(sum(group.size for group in groups), dtype=np.intp)
    start = 0
    for group in groups:
        inverse[group] = np.arange(start, start + group.size)
        start += group.size
    return inverse


@dataclass(frozen=True)
class _Block:
    """One regime stratum: rows ``order[rows]`` of its design, their feature matrix and its Gram factor."""

    regime: int
    rows: slice
    matrix: Array
    factor: GramFactor


@dataclass(frozen=True)
class _Design:
    """A step's strata laid out end to end: ``order`` lists the rows stratum by stratum."""

    order: Array
    inverse: Array  # np.take(a, inverse) undoes the layout: the rows in index order again
    blocks: tuple[_Block, ...]


def build_design(basis: BasisSpec, regimes: Sequence[int] | Array, xs: Array) -> _Design:
    """Design matrices partitioned by regime stratum, laid out end to end.

    ``order`` holds the row indices stratum by stratum, in increasing regime
    order and in index order within a stratum, and ``inverse`` undoes it.
    Each present regime has one block: its slice of ``order``, the feature
    matrix of its rows, their states standardized per stratum before
    expansion, and that matrix's :class:`GramFactor`.
    """
    regimes = np.asarray(regimes, dtype=int)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if regimes.shape[0] != xs.shape[0]:
        raise ValueError("regimes and states must have the same length")
    if xs.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    groups = _strata(regimes)
    order = np.concatenate(list(groups.values()))
    blocks, start = [], 0
    for r, group in groups.items():
        matrix = _features(basis, xs[group])
        blocks.append(_Block(r, slice(start, start + group.size), matrix, GramFactor.of(matrix)))
        start += group.size
    return _Design(order, _inverse(groups.values()), tuple(blocks))
