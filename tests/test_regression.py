import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchbsde import BasisSpec, build_design, ols_fit
from switchbsde.regression import GramFactor


def in_sample(basis, regimes, xs, targets):
    """Fitted values of the per-stratum least-squares projection, as the solver forms them."""
    out = np.empty(len(targets))
    design = build_design(basis, regimes, xs)
    for block in design.blocks:
        rows = design.order[block.rows]
        fit = ols_fit(block.matrix, targets[rows], block.factor)
        out[rows] = block.matrix @ fit.coefficients
    return out


class TestBuildDesign:
    def test_degree_one_monomials(self):
        basis = BasisSpec(degree=1)
        (block,) = build_design(basis, [1, 1, 1], np.array([[0.0], [1.0], [2.0]])).blocks
        # the state is standardized per stratum: mean 1, standard deviation sqrt(2/3)
        z = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(block.matrix, np.column_stack([np.ones(3), z]))

    def test_degree_zero_is_constant_column(self):
        (block,) = build_design(BasisSpec(degree=0), [1, 1], np.array([[3.0], [7.0]])).blocks
        np.testing.assert_allclose(block.matrix, [[1.0], [1.0]])

    def test_stratified_row_counts_partition(self):
        regimes = np.array([2, 1, 1, 2, 2])
        xs = np.arange(5.0)[:, None]
        design = build_design(BasisSpec(degree=2), regimes, xs)
        # increasing regime order, whatever regime comes first
        assert [block.regime for block in design.blocks] == [1, 2]
        assert design.blocks[0].matrix.shape[0] + design.blocks[1].matrix.shape[0] == 5

    def test_strata_laid_out_end_to_end(self):
        """Rows stratum by stratum in index order, each block's slice of them, and the inverse that undoes it."""
        regimes = np.array([3, 1, 3, 3, 1, 3])
        xs = np.array([[0.0], [1.0], [4.0], [9.0], [16.0], [25.0]])
        basis = BasisSpec(degree=1)
        design = build_design(basis, regimes, xs)
        np.testing.assert_array_equal(design.order, [1, 4, 0, 2, 3, 5])
        np.testing.assert_array_equal(np.take(design.order, design.inverse), np.arange(6))
        assert [(b.regime, b.rows) for b in design.blocks] == [(1, slice(0, 2)), (3, slice(2, 6))]
        for block in design.blocks:
            rows = design.order[block.rows]
            assert np.all(regimes[rows] == block.regime)
            np.testing.assert_array_equal(block.matrix, build_design(basis, regimes[rows], xs[rows]).blocks[0].matrix)
            want = GramFactor.of(block.matrix)
            np.testing.assert_array_equal(block.factor.evals, want.evals)
            np.testing.assert_array_equal(block.factor.evecs, want.evecs)
            # built once with its block: nothing sets a factor later
            with pytest.raises(dataclasses.FrozenInstanceError):
                block.factor = want

    def test_basis_size_reported(self):
        assert BasisSpec(degree=2).size(1) == 3
        assert BasisSpec(degree=np.int64(2)).size(1) == 3
        assert BasisSpec(degree=2).size(2) == 6
        assert BasisSpec(kind="piecewise-linear", degree=3).size(1) == 5
        with pytest.raises(ValueError, match="d = 1"):
            BasisSpec(kind="piecewise-linear", degree=3).size(2)

    @pytest.mark.parametrize("degree", [True, False, 2.0, 2.5, "2", -1])
    def test_degree_must_be_nonnegative_integer(self, degree):
        """``True`` used to run as degree 1 and ``2.0`` to fail with a TypeError inside the solve."""
        with pytest.raises(ValueError, match="basis degree must be a nonnegative integer"):
            BasisSpec(degree=degree)


class TestOlsFit:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        design = np.column_stack([np.ones(4), x])
        fit = ols_fit(design, 2 * x)
        # the automatic ridge (2.25e-10 here) shrinks the exact fit by about 1e-9
        np.testing.assert_allclose(fit.coefficients, [0.0, 2.0], atol=1e-8)
        assert fit.residual_mse <= 1e-16

    def test_constant_targets(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        design = np.column_stack([np.ones(4), x])
        fit = ols_fit(design, np.full(4, 7.0))
        np.testing.assert_allclose(fit.coefficients, [7.0, 0.0], atol=1e-8)

    def test_matches_dense_normal_equations(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((50, 3))
        targets = rng.standard_normal(50)
        fit = ols_fit(design, targets)
        # the normal equations of the one ridge rule, 1e-10 trace(G) / L
        gram = design.T @ design / 50
        ridge = 1e-10 * np.trace(gram) / 3
        oracle = np.linalg.solve(gram + ridge * np.eye(3), design.T @ targets / 50)
        np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-10)

    def test_rank_deficient(self):
        col = np.arange(4.0)
        design = np.column_stack([col, col])  # duplicated column
        fit = ols_fit(design, 2 * col)
        assert fit.rank_deficient  # the numerical rank, under the automatic ridge
        # the Gram matrix has eigenvalues 7 and 0; the ridge shrinks the fit along the first
        shrink = 7.0 / (7.0 + 1e-10 * 7.0 / 2)
        np.testing.assert_allclose(design @ fit.coefficients, shrink * 2 * col, atol=1e-10)

    def test_columns_fit_together(self):
        rng = np.random.default_rng(5)
        design = rng.standard_normal((80, 4))
        targets = rng.standard_normal((80, 3))
        fit = ols_fit(design, targets)
        assert fit.coefficients.shape == (4, 3)
        assert fit.residual_mse.shape == (3,)
        for col in range(3):
            single = ols_fit(design, targets[:, col])
            np.testing.assert_allclose(fit.coefficients[:, col], single.coefficients, rtol=0, atol=1e-12)
            assert fit.residual_mse[col] == pytest.approx(single.residual_mse, rel=1e-12)
            assert (fit.gram_condition, fit.rank_deficient) == (single.gram_condition, single.rank_deficient)

    @pytest.mark.parametrize("cols", [1, 2])
    def test_reused_factor_matches_fresh_fit(self, cols):
        rng = np.random.default_rng(17)
        design = rng.standard_normal((120, 3)) @ np.diag([1.0, 1e-3, 30.0])
        shape = (120,) if cols == 1 else (120, cols)
        factor = GramFactor.of(design)  # the step's factor, as build_design gives it
        targets = rng.standard_normal(shape)
        reused = ols_fit(design, targets, factor)
        fresh = ols_fit(design, targets)
        for name in ("coefficients", "fitted", "residual_mse"):
            np.testing.assert_array_equal(getattr(reused, name), getattr(fresh, name), err_msg=name)
        np.testing.assert_array_equal(reused.fitted, design @ reused.coefficients)
        assert reused.gram_condition == fresh.gram_condition
        assert np.shape(reused.residual_mse) == np.shape(fresh.residual_mse) == shape[1:]
        assert reused.rank_deficient == fresh.rank_deficient is False

    def test_target_shapes_share_one_path(self):
        """(n,) and (n, c) targets are one block of the (B, n, c) fit: the same values, bit for bit."""
        rng = np.random.default_rng(23)
        design = rng.standard_normal((90, 3))
        columns = rng.standard_normal((90, 2))
        blocked = ols_fit(design, columns[None])
        pair = ols_fit(design, columns)
        np.testing.assert_array_equal(pair.coefficients, blocked.coefficients[0])
        np.testing.assert_array_equal(pair.fitted, blocked.fitted[0])
        np.testing.assert_array_equal(pair.residual_mse, blocked.residual_mse[0])
        single, one_column = ols_fit(design, columns[:, 0]), ols_fit(design, columns[:, :1])
        assert single.coefficients.shape == (3,) and single.fitted.shape == (90,) and np.ndim(single.residual_mse) == 0
        np.testing.assert_array_equal(single.coefficients, one_column.coefficients[:, 0])
        np.testing.assert_array_equal(single.fitted, one_column.fitted[:, 0])
        assert single.residual_mse == one_column.residual_mse[0]

    def test_fewer_rows_than_basis_functions(self):
        # a stratum with two samples against four basis functions
        design = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]])
        targets = np.array([[0.5, 2.0], [-1.5, 4.0]])
        fit = ols_fit(design, targets, GramFactor.of(design))
        assert fit.rank_deficient and fit.sample_count == 2
        assert np.all(np.isfinite(fit.coefficients))
        # two rows are interpolated, up to the automatic ridge's shrinkage
        np.testing.assert_allclose(fit.fitted, targets, rtol=1e-8)

    def test_factor_of_another_shape_refused(self):
        factor = GramFactor.of(np.eye(3))
        with pytest.raises(ValueError, match="column count"):
            ols_fit(np.ones((5, 2)), np.ones(5), factor)

    def test_gram_condition_reported(self):
        design = np.column_stack([np.ones(10), np.linspace(0, 1, 10)])
        fit = ols_fit(design, np.zeros(10))
        assert fit.gram_condition > 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_residual_orthogonal_to_columns(self, seed):
        rng = np.random.default_rng(seed)
        design = rng.standard_normal((60, 4))
        targets = rng.standard_normal(60)
        fit = ols_fit(design, targets)
        resid = targets - design @ fit.coefficients
        inner = design.T @ resid
        scale = np.linalg.norm(design, axis=0) * np.linalg.norm(targets)
        assert np.all(np.abs(inner) <= 1e-8 * np.maximum(scale, 1e-30))

    def test_exactness_on_span(self):
        rng = np.random.default_rng(4)
        design = rng.standard_normal((40, 3))
        coef = np.array([1.5, -2.0, 0.25])
        targets = design @ coef
        fit = ols_fit(design, targets)
        assert fit.residual_mse <= 1e-20 * float(np.mean(targets**2))


class TestStratifiedFit:
    def test_predict_reproduces_interpolating_fit(self):
        # two points per stratum, a different line in each
        xs = np.array([[0.0], [1.0], [2.0], [3.0]])
        targets = np.array([0.0, -1.0, 4.0, -3.0])
        preds = in_sample(BasisSpec(degree=1), [1, 2, 1, 2], xs, targets)
        np.testing.assert_allclose(preds, targets, atol=1e-10)

    def test_zero_targets_predict_zero(self):
        xs = np.linspace(0, 1, 9)[:, None]
        preds = in_sample(BasisSpec(degree=2), np.ones(9, dtype=int), xs, np.zeros(9))
        np.testing.assert_allclose(preds, 0.0, atol=1e-12)

    def test_grouping_bridge_on_finite_support(self):
        # with an interpolating basis on a finite support, the projection is
        # exactly the per-point conditional mean
        rng = np.random.default_rng(8)
        points = np.array([0.0, 1.0, 2.0])
        idx = rng.integers(0, 3, size=600)
        xs = points[idx][:, None]
        targets = rng.standard_normal(600) + 3.0 * idx
        preds = in_sample(BasisSpec(degree=2), np.ones(600, dtype=int), xs, targets)
        for p in range(points.size):
            np.testing.assert_allclose(preds[idx == p], targets[idx == p].mean(), atol=1e-10)

    def test_standardization_transparent_for_shifted_data(self):
        # same affine law far from the origin: the fitted values still
        # reproduce in-span targets exactly
        xs = (1e6 + np.linspace(0, 1, 20))[:, None]
        targets = -4.0 * xs[:, 0] + 1.0
        preds = in_sample(BasisSpec(degree=2), np.ones(20, dtype=int), xs, targets)
        np.testing.assert_allclose(preds, targets, rtol=1e-9)

    def test_piecewise_linear_fits_kink(self):
        xs = np.linspace(-1, 1, 201)[:, None]
        targets = np.maximum(xs[:, 0], 0.0)
        preds = in_sample(BasisSpec(kind="piecewise-linear", degree=9), np.ones(201, dtype=int), xs, targets)
        assert np.max(np.abs(preds - targets)) < 0.02
