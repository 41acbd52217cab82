import numpy as np
import pytest

from rldp.errors import InputError, ModelError
from rldp.geometry import ConvexDomain
from rldp.model import (MeasureSummary, ModelSpec, eval_coefficients,
                        make_drifted, make_m1, make_m2, make_m3,
                        model_from_config)

BOX1 = ConvexDomain.box([0.0], [1.0])
BOX1_CFG = {"kind": "box", "lo": [0.0], "hi": [1.0]}


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

    @pytest.mark.parametrize("shape", [(0, 2), (0, 1), (4, 0, 2), (3, 0)])
    def test_no_atoms_rejected(self, shape):
        # no atoms, or atoms in R^0: an InputError before any weight is built
        with pytest.raises(InputError):
            MeasureSummary.from_points(np.empty(shape))

    def test_dirac_needs_a_point(self):
        with pytest.raises(InputError):
            MeasureSummary.dirac([])
        assert MeasureSummary.dirac(0.5).points.shape == (1, 1)

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

    def test_nonfinite_coefficients_raise(self):
        m = make_m1(BOX1)
        bad = ModelSpec(name="nan", domain=BOX1, d1=1, horizon=1.0,
                        drift=lambda t, x, mu: np.full(np.shape(x), np.nan),
                        diffusion=m.diffusion, init_points=np.array([[0.5]]))
        with pytest.raises(ModelError):
            eval_coefficients(bad, 0.0, [0.5], MeasureSummary.dirac([0.5]))


class TestModelZoo:
    def test_registry_round_trip(self):
        cfg = {"model": "m2", "domain": BOX1_CFG, "theta": 0.5,
               "sigma_scale": 0.3}
        m = model_from_config(cfg)
        assert m.name == "m2"
        assert m.params["theta"] == 0.5

    def test_unknown_model_rejected(self):
        with pytest.raises(InputError):
            model_from_config({"model": "nope", "domain": BOX1_CFG})

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


class TestModelFromConfigChecks:
    @pytest.mark.parametrize("domain", [None, [0.0, 1.0], "box", 1.5])
    def test_domain_must_be_an_object(self, domain):
        with pytest.raises(InputError, match="domain"):
            model_from_config({"model": "m1", "domain": domain})

    @pytest.mark.parametrize("init", [[[5.0]], [[-0.5], [0.5]],
                                      [[float("nan")]], [[0.5, 0.5]], []])
    def test_init_points_outside_domain_rejected(self, init):
        with pytest.raises(InputError, match="init"):
            model_from_config({"model": "m1", "domain": BOX1_CFG,
                               "init": init})

    @pytest.mark.parametrize("init", ["0.5", [["0.5"]], [[True]], [[None]],
                                      [[0.5], ["0.5"]]])
    def test_init_entries_must_be_numbers(self, init):
        with pytest.raises(InputError, match="init"):
            model_from_config({"model": "m1", "domain": BOX1_CFG,
                               "init": init})

    def test_init_points_on_the_boundary_accepted(self):
        m = model_from_config({"model": "m1", "domain": BOX1_CFG,
                               "init": [[0.0], [1.0]]})
        assert m.init_points.shape == (2, 1)

    @pytest.mark.parametrize("model, key", [("m1", "sigma_scale"),
                                            ("m2", "theta"), ("m3", "alpha"),
                                            ("drifted", "b_const")])
    def test_parameter_magnitude_bounded(self, model, key):
        cfg = {"model": model, "domain": BOX1_CFG,
               "b_const": [0.0] if model == "drifted" else None}
        cfg = {k: v for k, v in cfg.items() if v is not None}
        edge = [1e50] if key == "b_const" else 1e50
        assert model_from_config({**cfg, key: edge}).params[key] == edge
        for far in (1.01e50, -1e200):
            with pytest.raises(InputError, match=key):
                model_from_config({**cfg, key: [far] if key == "b_const" else far})
