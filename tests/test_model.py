import numpy as np
import pytest

from rldp.errors import InputError, ModelError
from rldp.geometry import ConvexDomain
from rldp.model import (MeasureSummary, ModelSpec, eval_coefficients,
                        make_drifted, make_m1, make_m2, make_m3,
                        model_from_config, validate_assumptions)

BOX1 = ConvexDomain.box([0.0], [1.0])


class TestMeasureSummary:
    def test_two_point_mean(self):
        mu = MeasureSummary.from_points(np.array([[0.0], [1.0]]))
        assert np.allclose(mu.weights, [0.5, 0.5])
        assert mu.mean[0] == pytest.approx(0.5)

    def test_singleton_is_dirac(self):
        mu = MeasureSummary.from_points(np.array([[0.3]]))
        assert mu.is_dirac()

    def test_equal_atoms_zero_variance(self):
        mu = MeasureSummary.from_points(np.full((4, 1), 0.7))
        assert mu.cov_trace() == pytest.approx(0.0)
        assert mu.is_dirac()

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(InputError):
            MeasureSummary.from_points(np.array([[0.0], [1.0]]),
                                       weights=[2.0, 2.0])

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0],
                                         [np.inf, 0.0], [np.inf, np.nan]])
    def test_nonfinite_weights_rejected(self, weights):
        with pytest.raises(InputError):
            MeasureSummary.from_points(np.array([[0.0], [1.0]]),
                                       weights=weights)

    @pytest.mark.parametrize("n, d", [(1, 1), (5, 2), (64, 3), (1000, 5)])
    def test_lazy_second_moment_equals_eager_formula(self, n, d):
        rng = np.random.default_rng(n + d)
        points = rng.normal(size=(n, d))
        weights = rng.uniform(0.1, 1.0, size=n)
        weights /= weights.sum()
        mu = MeasureSummary.from_points(points, weights)
        assert "second_moment" not in vars(mu)
        second = (points.T * weights) @ points
        assert np.array_equal(mu.second_moment, second)
        assert mu.second_moment is mu.second_moment
        cov = second - np.outer(weights @ points, weights @ points)
        assert np.array_equal(mu.covariance(), cov)
        assert mu.cov_trace() == float(np.trace(cov))


class TestEvalCoefficients:
    def test_constant_coefficients(self):
        m = make_m1(BOX1)
        mu = MeasureSummary.dirac([0.5])
        b, sig = eval_coefficients(m, 0.3, [0.2], mu)
        assert np.allclose(b, 0.0)
        assert np.allclose(sig, np.eye(1))

    def test_mean_attraction(self):
        dom = ConvexDomain.box([-2.0, -2.0], [2.0, 2.0])
        m = make_m2(dom, theta=1.0)
        mu = MeasureSummary.dirac([0.0, 0.0])
        b, _ = eval_coefficients(m, 0.0, [1.0, 0.0], mu)
        assert np.allclose(b, [-1.0, 0.0])

    def test_state_dependent_sigma_degenerate_measure(self):
        # sigma = s (1 + alpha tr cov) I is s*I at a point mass
        m = make_m3(BOX1, sigma_scale=1.0, alpha=1.0, clip_L=2.0)
        mu = MeasureSummary.dirac([0.4])
        _, sig = eval_coefficients(m, 0.0, [0.4], mu)
        assert np.allclose(sig, np.eye(1))

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_time_outside_horizon_rejected(self, t):
        with pytest.raises(InputError):
            eval_coefficients(make_m1(BOX1), t, [0.5],
                              MeasureSummary.dirac([0.5]))

    @pytest.mark.parametrize("x", [[0.2, 0.4], [[0.2], [0.4]]])
    def test_not_a_single_state_rejected(self, x):
        with pytest.raises(InputError):
            eval_coefficients(make_m1(BOX1), 0.0, x,
                              MeasureSummary.dirac([0.5]))

    def test_returns_writable_copies(self):
        b, sig = eval_coefficients(make_m1(BOX1), 0.0, [0.5],
                                   MeasureSummary.dirac([0.5]))
        assert b.shape == (1,) and sig.shape == (1, 1)
        b[0] = sig[0, 0] = 2.0

    def test_strict_bound_violation_raises(self):
        def bad_drift(t, x, mu):
            return np.full(np.shape(x), 100.0)

        m = make_m1(BOX1)
        bad = ModelSpec(name="bad", domain=BOX1, d1=1, horizon=1.0,
                        drift=bad_drift, diffusion=m.diffusion,
                        bound_L=2.0, lipschitz_K=1.0,
                        init_points=np.array([[0.5]]), init_sampler=None,
                        params={})
        with pytest.raises(ModelError):
            eval_coefficients(bad, 0.0, [0.5], MeasureSummary.dirac([0.5]),
                              strict=True)


class TestValidateAssumptions:
    def test_constant_model_passes(self):
        m = make_m1(BOX1)
        rep = validate_assumptions(m, n_samples=200, seed=0)
        assert rep.passed
        # ||I||_HS = 1 in d=1 and b = 0
        assert rep.max_bound_observed == pytest.approx(1.0)

    def test_mean_attraction_lipschitz(self):
        m = make_m2(BOX1, theta=1.0, sigma_scale=0.5)
        rep = validate_assumptions(m, n_samples=500, seed=1)
        assert rep.passed
        assert rep.max_lipschitz_ratio_observed <= m.lipschitz_K

    def test_unbounded_drift_fails(self):
        def blowup(t, x, mu):
            x = np.asarray(x, dtype=float)
            return 1.0 / (1.0 - x)

        m = make_m1(BOX1)
        bad = ModelSpec(name="blowup", domain=BOX1, d1=1, horizon=1.0,
                        drift=blowup, diffusion=m.diffusion,
                        bound_L=10.0, lipschitz_K=10.0,
                        init_points=np.array([[0.5]]), init_sampler=None,
                        params={})
        rep = validate_assumptions(bad, n_samples=2000, seed=2)
        assert not rep.bound_ok
        assert rep.max_bound_observed > 10.0


class TestModelZoo:
    def test_registry_round_trip(self):
        cfg = {"model": "m2", "domain": BOX1.to_config(), "theta": 0.5,
               "sigma_scale": 0.3}
        m = model_from_config(cfg)
        assert m.name == "m2"
        assert m.params["theta"] == 0.5

    def test_unknown_model_rejected(self):
        with pytest.raises(InputError):
            model_from_config({"model": "nope", "domain": BOX1.to_config()})

    def test_initial_states_deterministic_points(self):
        m = make_m1(BOX1, init=[[0.2], [0.5], [0.8]])
        rng = np.random.default_rng(0)
        x0 = m.initial_states(5, rng)
        assert np.allclose(x0[:, 0], [0.2, 0.5, 0.8, 0.2, 0.5])

    def test_initial_states_sampler_inside(self):
        m = make_drifted(BOX1, b_const=1.0)
        rng = np.random.default_rng(0)
        x0 = m.initial_states(100, rng)
        assert m.domain.contains_all(x0).all()
