import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchbsde import (
    IntensityMeasure,
    SchemeConfig,
    SwitchingCosts,
    build_problem,
    bundle_from_paths,
    catalog_defaults,
    list_catalog,
    make_switching_problem,
    validate_problem,
)
from switchbsde.backward import _driver_terms, make_ensemble
from switchbsde.catalog import _const_drift, _const_reward, _const_vol, _linear_terminal
from switchbsde.problem import constraint_values, penalty_batch


def two_regime_problem(c12=0.5, c21=0.5, rewards=(0.0, 0.0), lam=(1.0, 1.0)):
    return make_switching_problem(
        m=2,
        d=1,
        costs=np.array([[0.0, c12], [c21, 0.0]]),
        drift=_const_drift([0.0, 0.0]),
        vol=_const_vol([1.0, 1.0]),
        running_reward=_const_reward(list(rewards)),
        terminal=_linear_terminal,
        intensity=IntensityMeasure(lam),
    )


class TestIntensityMeasure:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative intensity weight"):
            IntensityMeasure([0.5, -0.1])

    def test_zero_weight_allowed_for_simulation_but_not_solver(self):
        lam = IntensityMeasure([0.5, 0.0])
        assert lam.total == 0.5
        with pytest.raises(ValueError, match="nonpositive intensity weight"):
            lam.require_positive()

    def test_mark_probabilities(self):
        lam = IntensityMeasure([2.0, 3.0])
        assert np.allclose(lam.mark_probabilities(), [0.4, 0.6])
        assert lam.weights[1] == 3.0


class TestSwitchingCosts:
    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            SwitchingCosts(np.array([[0.1, 0.5], [0.5, 0.0]]))

    def test_nonpositive_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SwitchingCosts(np.array([[0.0, -0.5], [0.5, 0.0]]))

    def test_triangle_violation_rejected(self):
        costs = np.array(
            [
                [0.0, 0.1, 0.5],
                [0.1, 0.0, 0.1],
                [0.5, 0.1, 0.0],
            ]
        )
        # going 1 -> 3 directly costs 0.5 > 0.1 + 0.1 via 2
        with pytest.raises(ValueError, match="triangle"):
            SwitchingCosts(costs)

    def test_valid_matrix_accepted(self):
        sw = SwitchingCosts(np.array([[0.0, 0.1], [0.2, 0.0]]))
        assert sw.cost(1, 2) == 0.1
        assert sw.cost(2, 1) == 0.2


class TestSwitchingConstraint:
    def test_constraint_value(self):
        # may fall below the target value by at most the cost
        spec = two_regime_problem(c12=0.5)
        h = spec.constraint(1, 2, np.array([[0.0]]), np.array([2.0]), np.array([1.0]), np.zeros((1, 1)))
        assert float(h[0]) == pytest.approx(1.5)

    def test_diagonal_is_zero_at_equal_values(self):
        spec = two_regime_problem()
        h = spec.constraint(1, 1, np.array([[0.3]]), np.array([4.0]), np.array([4.0]), np.zeros((1, 1)))
        assert float(h[0]) == 0.0

    def test_strictly_decreasing_in_target_value(self):
        spec = two_regime_problem(c12=0.5)
        x = np.array([[0.0]])
        z = np.zeros((1, 1))
        h0 = spec.constraint(1, 2, x, np.array([1.0]), np.array([0.0]), z)
        h1 = spec.constraint(1, 2, x, np.array([1.0]), np.array([1.0]), z)
        assert float(h1[0] - h0[0]) == pytest.approx(-1.0)

    def test_pairwise_sum_is_total_loop_cost(self):
        spec = two_regime_problem(c12=0.4, c21=0.3)
        x = np.array([[0.0]])
        z = np.zeros((1, 1))
        y, yp = np.array([1.7]), np.array([-0.2])
        total = spec.constraint(1, 2, x, y, yp, z) + spec.constraint(2, 1, x, yp, y, z)
        assert float(total[0]) == pytest.approx(0.7)

    def test_requires_two_regimes(self):
        with pytest.raises(ValueError, match="two regimes"):
            make_switching_problem(
                m=1,
                d=1,
                costs=np.zeros((1, 1)),
                drift=_const_drift([0.0]),
                vol=_const_vol([1.0]),
                running_reward=_const_reward([0.0]),
                terminal=_linear_terminal,
                intensity=IntensityMeasure([1.0]),
            )


class TestPenalizedDriver:
    X, Z = np.zeros((1, 1)), np.zeros((1, 1))

    def test_violating_value_vector(self):
        spec = two_regime_problem(c12=0.5, lam=(1.0, 2.0))
        # h_{1,2} = 1 - 3 + 0.5 = -1.5, weight 2
        values = np.array([[1.0, 3.0]])
        h = constraint_values(spec, 1, self.X, values, self.Z)
        np.testing.assert_allclose(h, [[0.0, -1.5]])
        np.testing.assert_allclose(penalty_batch(spec, h), [3.0])

    def test_satisfied_value_vector(self):
        spec = two_regime_problem(c12=0.5)
        values = np.array([[3.0, 1.0]])
        h = constraint_values(spec, 1, self.X, values, self.Z)
        np.testing.assert_allclose(h, [[0.0, 2.5]])
        assert penalty_batch(spec, h)[0] == 0.0

    def test_level_zero_is_raw_driver(self):
        # one path, no atoms, a violating value vector: at level 0 the step
        # integral is the raw reward minus the compensator, and only the
        # reported violation sees the penalty
        spec = two_regime_problem(rewards=(0.7, -0.2))
        bundle = bundle_from_paths(spec, 0.5, [[]])
        ens = make_ensemble(spec, SchemeConfig(h=0.5, paths=1), bundle)
        y_next, z, u = np.array([1.0]), np.zeros((1, 1)), np.array([[0.0, 2.0]])
        integral, mass, violation, min_h = _driver_terms(spec, 0, ens, 0, y_next, z, u)
        compensator = 1.0 * 2.0  # sum_j lambda_j (yvec_j - yvec_1)
        assert integral[0] == pytest.approx(0.5 * (0.7 - compensator))
        assert mass[0] == 0.0
        assert violation[0] == pytest.approx(1.5)
        assert min_h[0] == pytest.approx(-1.5)  # h_12 = 1 - 3 + 0.5
        integral3, mass3, _, _ = _driver_terms(spec, 3, ens, 0, y_next, z, u)
        assert mass3[0] == pytest.approx(0.5 * 3 * 1.5)
        assert integral3[0] - integral[0] == pytest.approx(mass3[0])

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="penalization level"):
            SchemeConfig(h=0.1, n=-1)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_non_integer_level_rejected(self, n):
        with pytest.raises(ValueError, match="penalization level"):
            SchemeConfig(h=0.1, n=n)

    @settings(max_examples=50, deadline=None)
    @given(
        y1=st.floats(-5, 5),
        y2=st.floats(-5, 5),
        c=st.floats(0.01, 2.0),
        reward=st.floats(-1, 1),
    )
    def test_nondecreasing_in_level(self, y1, y2, c, reward):
        # the penalty mass is nonnegative and zero iff every h_ij >= 0, so
        # the penalized driver f + n * mass is nondecreasing in n
        spec = two_regime_problem(c12=c, c21=c, rewards=(reward, reward))
        values = np.array([[y1, y2]])
        for i in (1, 2):
            h = constraint_values(spec, i, self.X, values, self.Z)
            mass = penalty_batch(spec, h)[0]
            assert mass >= 0.0
            assert (mass == 0.0) == bool(np.all(h >= 0.0))
            driver = spec.driver(i, self.X, values, self.Z)[0]
            levels = [driver + n * mass for n in range(0, 9)]
            assert all(b >= a for a, b in zip(levels, levels[1:]))


class TestCatalog:
    def test_expected_entries_present(self):
        names = [name for name, _ in list_catalog()]
        for required in ("bm1", "bm1-quad", "switch2-linear", "switch3"):
            assert required in names

    def test_names_unique(self):
        names = [name for name, _ in list_catalog()]
        assert len(names) == len(set(names))

    def test_overrides_applied(self):
        spec = build_problem("bm1", {"x0": [1.5], "T": 2.0})
        assert spec.initial_state[0] == 1.5
        assert spec.horizon == 2.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter override"):
            build_problem("bm1", {"sigmaa": [1.0]})

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown catalog problem"):
            build_problem("nope")

    def test_defaults_are_copies(self):
        d1 = catalog_defaults("switch2-linear")
        d1["costs"][0][1] = 99.0
        assert catalog_defaults("switch2-linear")["costs"][0][1] != 99.0


class TestValidateProblem:
    def test_zero_intensity_weight_is_hard_failure(self):
        spec = two_regime_problem(lam=(1.0, 0.0))
        with pytest.raises(ValueError, match="nonpositive intensity weight"):
            validate_problem(spec)

    def test_catalog_switch2_passes_clean(self):
        report = validate_problem(build_problem("switch2-linear"), sample_count=300, rng_seed=5)
        assert report.passed
        assert report.warnings == []
        assert report.checks["constraint_monotone"] == "ok"

    def test_increasing_constraint_triggers_warning(self):
        spec = two_regime_problem()
        bad = spec.coefficients.__class__(
            drift=spec.coefficients.drift,
            vol=spec.coefficients.vol,
            driver=spec.coefficients.driver,
            constraint=lambda i, j, x, y, yt, z: np.asarray(yt, dtype=float),
            terminal=spec.coefficients.terminal,
        )
        bad_spec = spec.__class__(
            m=spec.m,
            d=spec.d,
            horizon=spec.horizon,
            intensity=spec.intensity,
            coefficients=bad,
            initial_regime=spec.initial_regime,
            initial_state=spec.initial_state,
        )
        report = validate_problem(bad_spec, sample_count=100, rng_seed=1)
        assert not report.passed
        assert any("non-increasing" in w for w in report.warnings)

    def test_deterministic_given_seed(self):
        spec = build_problem("switch3")
        a = validate_problem(spec, sample_count=150, rng_seed=9).to_dict()
        b = validate_problem(spec, sample_count=150, rng_seed=9).to_dict()
        assert a == b

    def test_lipschitz_ratios_reported(self):
        report = validate_problem(build_problem("bm1"), sample_count=100, rng_seed=2)
        assert report.lipschitz["terminal[1]"] == pytest.approx(1.0)
        assert report.lipschitz["drift[1]"] == 0.0
