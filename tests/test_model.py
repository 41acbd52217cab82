import inspect
from dataclasses import fields

import numpy as np
import pytest

from rldp.ensemble import simulate_particle_system
from rldp.errors import InputError, ModelError
from rldp.geometry import ConvexDomain
from rldp.integrator import TimeGrid
from rldp.model import (MeasureSummary, ModelSpec, coefficients_batch,
                        MODEL_REGISTRY, eval_coefficients, make_drifted,
                        make_m1, make_m2, make_m3, model_from_config)

BOX1 = ConvexDomain.box([0.0], [1.0])
BOX1_CFG = {"kind": "box", "lo": [0.0], "hi": [1.0]}


class TestMeasureSummary:
    def test_two_point_mean(self):
        mu = MeasureSummary.from_points(np.array([[0.0], [1.0]]))
        assert np.allclose(mu.weights, [0.5, 0.5])
        assert mu.mean[0] == pytest.approx(0.5)

    def test_a_summary_is_its_points_and_mean(self):
        # the weights are derived: the one read-only vector 1/n for n atoms,
        # shared by a batch, its replicas and every other summary of n atoms
        mu = MeasureSummary.from_points(np.arange(6.0).reshape(3, 2))
        assert tuple(f.name for f in fields(mu)) == ("points", "mean")
        assert np.array_equal(mu.weights, np.full(3, 1.0 / 3))
        assert not mu.weights.flags.writeable
        batch = MeasureSummary.from_points(np.zeros((4, 3, 1)))
        assert batch.weights is mu.weights
        assert batch.replica(2).weights is mu.weights
        with pytest.raises(AttributeError):
            mu.weights = np.ones(3)

    def test_singleton_is_dirac(self):
        mu = MeasureSummary.from_points(np.array([[0.3]]))
        assert mu.is_dirac()

    def test_equal_atoms_zero_variance(self):
        mu = MeasureSummary.from_points(np.full((4, 1), 0.7))
        assert mu.cov_trace() == pytest.approx(0.0)
        assert mu.is_dirac()
        # taken about the mean, not as E|x|^2 - |mean|^2, which cancels to
        # -1.2e24 on these atoms
        assert MeasureSummary.from_points(
            np.full((7, 2), [0.3, -1e20])).cov_trace() == 0.0

    @pytest.mark.parametrize("shape", [(0, 2), (0, 1), (4, 0, 2), (3, 0)])
    def test_no_atoms_rejected(self, shape):
        # no atoms, or atoms in R^0: an InputError before any weight is built
        with pytest.raises(InputError):
            MeasureSummary.from_points(np.empty(shape))

    def test_dirac_needs_a_point(self):
        with pytest.raises(InputError):
            MeasureSummary.dirac([])
        assert MeasureSummary.dirac(0.5).points.shape == (1, 1)

    @pytest.mark.parametrize("coords", [[np.nan, np.nan], [np.nan, 1.0],
                                        [np.inf, 0.0], [-np.inf, np.nan]])
    def test_nonfinite_points_rejected(self, coords):
        with pytest.raises(InputError, match="finite"):
            MeasureSummary.from_points(np.array(coords)[:, None])

    @pytest.mark.parametrize("n, d", [(1, 1), (5, 2), (64, 3), (1000, 5)])
    def test_lazy_second_moment_equals_eager_formula(self, n, d):
        # a summary computes no second moment until cov_trace() is asked,
        # and that is the centred mean square, bit for bit
        rng = np.random.default_rng(n + d)
        points = rng.normal(size=(n, d))
        weights = np.full(n, 1.0 / n)
        mu = MeasureSummary.from_points(points)
        assert np.array_equal(mu.weights, weights)
        assert set(vars(mu)) == {"points", "mean"}
        centred = points - weights @ points
        assert mu.cov_trace() == float(np.mean(np.sum(centred ** 2, axis=1)))
        cov = np.cov(points.T, bias=True).reshape(d, d)
        assert mu.cov_trace() == pytest.approx(float(np.trace(cov)),
                                               rel=1e-12, abs=1e-15)


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

    @pytest.mark.parametrize("alpha", [-100.0, -10.0, -2.0, 0.5, 1.0, 100.0])
    @pytest.mark.parametrize("clip_L", [2.0, -2.0])
    def test_m3_scale_clipped_on_both_sides(self, alpha, clip_L):
        """|s| <= |clip_L| / max(|I|, 1), and a scale that the upper clip
        alone puts inside that bound keeps its bits.  Negative alphas stand
        in for the negative tr cov that cancellation gives far from the
        origin."""
        dom = ConvexDomain.box([0.0, 0.0], [1.0, 1.0])
        m = make_m3(dom, sigma_scale=0.8, alpha=alpha, clip_L=clip_L)
        mu = MeasureSummary.from_points(np.array([[0.0, 0.0], [1.0, 0.5]]))
        _, sig = eval_coefficients(m, 0.0, [0.5, 0.5], mu)
        lim = clip_L / np.linalg.norm(np.eye(2))
        upper = min(lim, 0.8 * (1.0 + alpha * mu.cov_trace()))
        want = upper if abs(upper) <= abs(lim) else -abs(lim)
        assert np.array_equal(sig, want * np.eye(2))

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

    def test_constant_coefficients_are_one_read_only_array(self):
        """A constant coefficient is handed on as the model's one array,
        which no caller can write into."""
        x = np.full((2, 4, 1), 0.5)
        mu = MeasureSummary.from_points(x)
        for m in (make_m1(BOX1), make_m2(BOX1), make_drifted(BOX1, 0.3)):
            b, sig = coefficients_batch(m, 0.0, x, mu)
            assert sig.shape == (1, 1)
            with pytest.raises(ValueError):
                sig[0, 0] = 2.0
            if m.name != "m2":
                assert b.shape == (1,)
                with pytest.raises(ValueError):
                    b[0] = 2.0

    def test_nonfinite_coefficients_raise(self):
        m = make_m1(BOX1)
        bad = ModelSpec(name="nan", domain=BOX1, d1=1,
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

    def test_unknown_model_rejected(self):
        with pytest.raises(InputError):
            model_from_config({"model": "nope", "domain": BOX1_CFG})

    def test_initial_states_deterministic_points(self):
        m = make_m1(BOX1, init=[[0.2], [0.5], [0.8]])
        rng = np.random.default_rng(0)
        x0 = m.initial_states(5, rng)
        assert np.allclose(x0[:, 0], [0.2, 0.5, 0.8, 0.2, 0.5])

    def test_init_points_are_a_read_only_copy(self):
        # a caller's edit of its init array after construction used to move
        # the particles' start, here outside [0, 1], past every check
        init = np.array([[0.5]])
        m = make_m1(BOX1, init=init)
        init[0, 0] = 7.0
        ens = simulate_particle_system(m, 2, TimeGrid(0.5, 2))
        assert np.all(ens.states[0] == 0.5)
        direct = ModelSpec(name="m", domain=BOX1, d1=1,
                           drift=m.drift, diffusion=m.diffusion,
                           init_points=np.array([[0.25]]))
        for pts in (m.init_points, direct.init_points):
            with pytest.raises(ValueError):
                pts[0, 0] = 7.0

    @pytest.mark.parametrize("key, value, message", [
        ("d1", 1.5, "noise dimension"), ("d1", True, "noise dimension"),
        ("d1", 0, "noise dimension")])
    def test_direct_spec_checks_d1(self, key, value, message):
        # d1 = 1.5 used to fail with numpy's TypeError
        m = make_m1(BOX1)
        spec = dict(name="m", domain=BOX1, d1=1, drift=m.drift,
                    diffusion=m.diffusion)
        with pytest.raises(InputError, match=message):
            ModelSpec(**{**spec, key: value})

    def test_the_grid_sets_the_horizon(self):
        # a model carried a horizon of its own, and a grid past it failed
        # mid-run ("time 0.625 outside [0, 0.5]")
        assert "horizon" not in {f.name for f in fields(ModelSpec)}
        for make in MODEL_REGISTRY.values():
            assert "horizon" not in inspect.signature(make).parameters
        m = make_m2(BOX1)
        ens = simulate_particle_system(m, 4, TimeGrid(4.0, 8), seed=0)
        assert np.all(m.domain.contains_all(ens.states))
        b, _ = coefficients_batch(m, 4.0, ens.states[-1], ens.summaries[-1])
        assert b.shape == (4, 1)

    @pytest.mark.parametrize("b_const", [[1.0, 2.0], [], [[1.0]]],
                             ids=["two", "empty", "nested"])
    def test_drifted_b_const_length_checked(self, b_const):
        with pytest.raises(InputError, match="b_const"):
            make_drifted(BOX1, b_const)

    @pytest.mark.parametrize("b_const, b", [(0.5, [0.5, 0.5]),
                                            ([0.5], [0.5, 0.5]),
                                            ([0.5, -1.0], [0.5, -1.0])])
    def test_drifted_b_const_one_or_d_numbers(self, b_const, b):
        box2 = ConvexDomain.box([0.0, 0.0], [1.0, 1.0])
        m = make_drifted(box2, b_const)
        assert m.drift(0.0, np.zeros((3, 2)), None).tolist() == b

    def test_initial_states_sampler_inside(self):
        m = make_drifted(BOX1, b_const=1.0)
        rng = np.random.default_rng(0)
        x0 = m.initial_states(100, rng)
        assert m.domain.contains_all(x0).all()


class TestIdentity:
    """A model compares and hashes by identity: its drift and diffusion are
    closures, which have no value equality."""

    @staticmethod
    def _zoo():
        ball2 = ConvexDomain.ball([0.0, 0.0], 1.0)
        return [make(dom, **({"b_const": 0.5} if name == "drifted" else {}))
                for dom in (BOX1, ball2)
                for name, make in MODEL_REGISTRY.items()]

    def test_every_zoo_model_hashes(self):
        # hash(model) raised TypeError on the ndarray fields of its domain
        models = self._zoo()
        table = {m: j for j, m in enumerate(models)}
        assert [table[m] for m in models] == list(range(len(models)))

    def test_twins_are_two_models(self):
        # field-wise equality called two m2 twins on a box unequal (their
        # drift closures differ) and raised ValueError on a ball
        for a, b in zip(self._zoo(), self._zoo()):
            assert a == a and a != b
            assert len({a, b}) == 2


class TestM2DriftBitwise:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_drift_is_theta_times_mean_minus_x(self, d):
        """m2's drift, formed a coordinate at a time, is
        ``theta * (mu.mean - x)`` bit for bit: for a single point and a
        system with an unbatched (d,) mean, and for a batch of systems with
        its (R, 1, d) mean."""
        rng = np.random.default_rng(40 + d)
        dom = ConvexDomain.ball(np.linspace(-0.2, 0.3, d), 1.5)
        x = dom.sample_interior(rng, 3 * 17).reshape(3, 17, d)
        x[0, 0] = -0.0
        x[1, 2, 0] = -0.0
        cases = [(x[0], MeasureSummary.from_points(x[0])),
                 (x[1, 2], MeasureSummary.from_points(x[1])),
                 (x, MeasureSummary.from_points(x))]
        for theta in (1.0, -0.7, 3):
            m = make_m2(dom, theta=theta)
            for pts, mu in cases:
                got = m.drift(0.0, pts, mu)
                want = theta * (mu.mean - pts)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


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
        assert model_from_config({**cfg, key: edge}).name == model
        for far in (1.01e50, -1e200):
            with pytest.raises(InputError, match=key):
                model_from_config({**cfg, key: [far] if key == "b_const" else far})
