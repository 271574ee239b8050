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
from switchbsde.problem import CoefficientSet, ProblemSpec, check_regime, constraint_values, penalty_batch


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

    def test_single_regime_gives_bm1(self):
        """``m = 1`` with bm1's parameters builds bm1: cost matrix [[0]], constraint ``y - y'``."""
        spec = make_switching_problem(
            m=1,
            d=1,
            costs=np.zeros((1, 1)),
            drift=_const_drift([0.0]),
            vol=_const_vol([1.0]),
            running_reward=_const_reward([0.0]),
            terminal=_linear_terminal,
            intensity=IntensityMeasure([0.5]),
            horizon=1.0,
            initial_regime=1,
            initial_state=[0.7],
            growth_bound=(1.0, 1.0),
            name="bm1",
        )
        bm1 = build_problem("bm1")
        assert (spec.m, spec.d, spec.horizon, spec.initial_regime, spec.growth_bound, spec.name) == (
            bm1.m, bm1.d, bm1.horizon, bm1.initial_regime, bm1.growth_bound, bm1.name
        )
        np.testing.assert_array_equal(spec.initial_state, bm1.initial_state)
        np.testing.assert_array_equal(spec.intensity.weights, bm1.intensity.weights)
        assert spec.switching_costs.costs.tolist() == [[0.0]]
        assert bm1.switching_costs.costs.tolist() == [[0.0]]
        rng = np.random.default_rng(11)
        x, z = rng.normal(size=(64, 1)), rng.normal(size=(64, 1))
        values, y_tgt = rng.normal(size=(64, 1)), rng.normal(size=64)
        y_cur = values[:, 0]
        for a, b in [
            (spec.drift(1, x), bm1.drift(1, x)),
            (spec.vol(1, x), bm1.vol(1, x)),
            (spec.driver(1, x, values, z), bm1.driver(1, x, values, z)),
            (spec.constraint(1, 1, x, y_cur, y_tgt, z), bm1.constraint(1, 1, x, y_cur, y_tgt, z)),
            (spec.terminal(1, x), bm1.terminal(1, x)),
        ]:
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(bm1.constraint(1, 1, x, y_cur, y_tgt, z), y_cur - y_tgt)
        np.testing.assert_array_equal(bm1.driver(1, x, values, z), np.zeros(64))
        np.testing.assert_array_equal(bm1.terminal(1, x), x[:, 0])


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
        y_next, z, u = np.array([[1.0]]), np.zeros((1, 1, 1)), np.array([[[0.0, 2.0]]])
        (integral,), (mass,), (violation,), (min_h,) = _driver_terms(spec, [0], ens, 0, y_next, z, u)
        compensator = 1.0 * 2.0  # sum_j lambda_j (yvec_j - yvec_1)
        assert integral[0] == pytest.approx(0.5 * (0.7 - compensator))
        assert mass[0] == 0.0
        assert violation[0] == pytest.approx(1.5)
        assert min_h[0] == pytest.approx(-1.5)  # h_12 = 1 - 3 + 0.5
        (integral3,), (mass3,), _, _ = _driver_terms(spec, [3], ens, 0, y_next, z, u)
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
        # numpy numbers and arrays pass the type checks as the Python ones do
        spec = build_problem("bm1", {"T": 2, "i0": np.int64(1), "x0": np.array([0.5]), "growth_bound": (2, 1.0)})
        assert (spec.horizon, spec.initial_regime, spec.growth_bound) == (2.0, 1, (2.0, 1.0))

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter override"):
            build_problem("bm1", {"sigmaa": [1.0]})

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown catalog problem"):
            build_problem("nope")

    def test_unknown_terminal_rejected(self):
        # any value but "linear" used to build the squared payoff
        with pytest.raises(ValueError, match="unknown terminal 'lineer'.*'linear' and 'square'"):
            build_problem("bm1", {"terminal": "lineer"})

    @pytest.mark.parametrize(
        "name, overrides, key",
        [
            ("bm1", {"rewards": [0.0, 5.0], "drift": [0.0, 1.0]}, "drift"),
            ("switch2-linear", {"sigma": [0.2, 0.3, 0.4]}, "drift"),
            ("switch2-linear", {"rewards": [0.5]}, "rewards"),
            ("switch2-linear", {"intensity": [1.5, 1.5, 1.5]}, "intensity"),
            ("switch2-linear", {"costs": [[0.0, 0.1], [0.1]]}, "costs"),
            ("bm1", {"sigma": 1.0}, "sigma"),
            ("switch2-linear", {"sigma": [[0.2], [0.3, 0.4]]}, "sigma"),
        ],
    )
    def test_per_regime_lengths_follow_sigma(self, name, overrides, key):
        # a longer list used to be cut to sigma's regime count without a word
        with pytest.raises(ValueError, match=f"'{key}' of problem '{name}' must have shape"):
            build_problem(name, overrides)

    @pytest.mark.parametrize(
        "name, overrides, key",
        [
            ("bm1", {"growth_bound": 5.0}, "growth_bound"),  # used to escape as a TypeError
            ("bm1", {"growth_bound": [1.0, "a"]}, "growth_bound"),
            ("bm1", {"growth_bound": [1.0]}, "growth_bound"),
            ("switch2-linear", {"i0": 1.5}, "i0"),  # used to run from regime 1
            ("switch2-linear", {"i0": True}, "i0"),
            ("bm1", {"T": "1"}, "T"),  # used to be coerced by float()
            ("bm1", {"T": True}, "T"),
            ("bm1", {"x0": ["0.7"]}, "x0"),
            ("bm1", {"drift": [True]}, "drift"),
            ("switch2-linear", {"sigma": ["0.2", "0.3"]}, "sigma"),
            ("switch2-linear", {"rewards": [0.5, "-0.5"]}, "rewards"),
            ("bm1", {"intensity": [None]}, "intensity"),
            ("switch2-linear", {"costs": [[0.0, "0.1"], [0.1, 0.0]]}, "costs"),
            # non-finite numbers used to pass: a NaN bound switched the divergence guard off,
            # and the others ended as a numerical abort (exit 2)
            ("switch2-linear", {"growth_bound": [float("nan"), 1.0]}, "growth_bound"),
            ("switch2-linear", {"x0": [float("nan")]}, "x0"),
            ("switch2-linear", {"sigma": [float("inf"), 0.3]}, "sigma"),
            ("switch2-linear", {"drift": [float("nan"), 0.0]}, "drift"),
            ("switch2-linear", {"rewards": [0.5, float("nan")]}, "rewards"),
            ("switch2-linear", {"costs": [[0.0, float("nan")], [0.1, 0.0]]}, "costs"),
            ("bm1", {"T": float("inf")}, "T"),
        ],
    )
    def test_non_numeric_overrides_refused(self, name, overrides, key):
        with pytest.raises(ValueError, match=f"'{key}' of problem '{name}' must"):
            build_problem(name, overrides)

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


def spec_with(**changes):
    """``switch2-linear`` rebuilt through the ``ProblemSpec`` constructor with ``changes`` applied."""
    spec = build_problem("switch2-linear")
    fields = dict(
        m=spec.m,
        d=spec.d,
        horizon=spec.horizon,
        intensity=spec.intensity,
        coefficients=spec.coefficients,
        initial_regime=spec.initial_regime,
        initial_state=spec.initial_state,
        growth_bound=spec.growth_bound,
        switching_costs=spec.switching_costs,
    )
    return ProblemSpec(**{**fields, **changes})


def with_evaluator(**changes):
    """``switch2-linear`` with some coefficient evaluators replaced."""
    base = build_problem("switch2-linear").coefficients
    names = ("drift", "vol", "driver", "constraint", "terminal")
    return spec_with(coefficients=CoefficientSet(**{**{k: getattr(base, k) for k in names}, **changes}))


def switching(**changes):
    """A two-regime ``make_switching_problem`` call with ``changes`` applied to its arguments."""
    args = dict(
        m=2,
        d=1,
        costs=np.array([[0.0, 0.5], [0.5, 0.0]]),
        drift=_const_drift([0.0, 0.0]),
        vol=_const_vol([1.0, 1.0]),
        running_reward=_const_reward([0.0, 0.0]),
        terminal=_linear_terminal,
        intensity=[1.0, 1.0],
    )
    return make_switching_problem(**{**args, **changes})


# case name -> (call that must be refused, the refusal message it must raise)
REFUSALS = {
    "regime-above-m": (lambda: check_regime(3, 2), "regime index 3 outside 1..2"),
    "regime-zero": (lambda: check_regime(0, 2), "regime index 0 outside 1..2"),
    "intensity-2d": (lambda: IntensityMeasure(np.ones((2, 2))), "intensity weights must be a nonempty 1-d array"),
    "intensity-empty": (lambda: IntensityMeasure([]), "intensity weights must be a nonempty 1-d array"),
    "intensity-nan": (lambda: IntensityMeasure([1.0, float("nan")]), "intensity weights must be finite"),
    "intensity-zero-total": (
        lambda: IntensityMeasure([0.0, 0.0]).mark_probabilities(),
        "undefined for zero total intensity",
    ),
    "costs-not-square": (lambda: SwitchingCosts(np.zeros((2, 3))), "switching cost matrix must be square"),
    "costs-1d": (lambda: SwitchingCosts(np.zeros(2)), "switching cost matrix must be square"),
    # a NaN cost used to pass when m = 2, where no triangle condition reads it
    "costs-nan": (
        lambda: SwitchingCosts(np.array([[0.0, np.nan], [0.1, 0.0]])),
        "off-diagonal switching costs must be finite and positive",
    ),
    "costs-inf": (
        lambda: SwitchingCosts(np.array([[0.0, np.inf], [0.1, 0.0]])),
        "off-diagonal switching costs must be finite and positive",
    ),
    "spec-costs-size": (
        lambda: spec_with(switching_costs=SwitchingCosts(np.zeros((1, 1)))),
        "switching cost matrix size must match the regime count",
    ),
    "switching-problem-costs-size": (
        lambda: switching(m=3, intensity=[1.0, 1.0, 1.0]),
        "switching cost matrix size must match the regime count",
    ),
    "m-zero": (lambda: spec_with(m=0), "regime count m must be an integer >= 1, got 0"),
    "m-float": (lambda: spec_with(m=2.0), "regime count m must be an integer >= 1, got 2.0"),
    "d-zero": (lambda: spec_with(d=0), "state dimension d must be an integer >= 1, got 0"),
    "horizon-zero": (lambda: spec_with(horizon=0.0), "horizon must be finite and positive, got 0.0"),
    "horizon-inf": (lambda: spec_with(horizon=float("inf")), "horizon must be finite and positive, got inf"),
    "horizon-nan": (lambda: spec_with(horizon=float("nan")), "horizon must be finite and positive, got nan"),
    "intensity-count": (
        lambda: spec_with(intensity=IntensityMeasure([1.0])),
        "intensity weight count must match the regime count",
    ),
    "initial-state-shape": (lambda: spec_with(initial_state=[0.0, 0.0]), r"initial state must have shape \(1,\)"),
    "growth-c0-negative": (
        lambda: spec_with(growth_bound=(-0.1, 1.0)),
        "growth bound constants must be finite and nonnegative",
    ),
    "growth-c1-negative": (
        lambda: spec_with(growth_bound=(0.3, -1.0)),
        "growth bound constants must be finite and nonnegative",
    ),
    # a NaN bound used to pass, and so switch the divergence guard off
    "growth-nan": (
        lambda: spec_with(growth_bound=(float("nan"), 1.0)),
        "growth bound constants must be finite and nonnegative",
    ),
    "growth-inf": (
        lambda: spec_with(growth_bound=(0.3, float("inf"))),
        "growth bound constants must be finite and nonnegative",
    ),
    "growth-radius-unbounded": (
        lambda: spec_with(growth_bound=None).growth_radius(np.zeros((2, 1))),
        "problem has no growth bound",
    ),
    "samples-zero": (
        lambda: validate_problem(build_problem("bm1"), sample_count=0),
        "sample_count must be an integer >= 1, got 0",
    ),
    "samples-float": (
        lambda: validate_problem(build_problem("bm1"), sample_count=2.5),
        "sample_count must be an integer >= 1",
    ),
    "drift-shape": (
        lambda: validate_problem(with_evaluator(drift=lambda i, x: np.zeros(x.shape[0]))),
        r"drift evaluator returned shape \(2,\), expected \(2, 1\)",
    ),
    "vol-shape": (
        lambda: validate_problem(with_evaluator(vol=lambda i, x: np.ones((x.shape[0], 1)))),
        r"vol evaluator returned shape \(2, 1\), expected \(2, 1, 1\)",
    ),
    "terminal-shape": (
        lambda: validate_problem(with_evaluator(terminal=lambda i, x: np.asarray(x))),
        r"terminal evaluator returned shape \(2, 1\), expected \(2,\)",
    ),
}


class TestRefusals:
    """Each refusal of the problem data raises ``ValueError`` with its message."""

    @pytest.mark.parametrize("make, message", REFUSALS.values(), ids=REFUSALS.keys())
    def test_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()
