import numpy as np
import pytest

from rldp import cli
from rldp.controls import (ConstantPolicy, FeedbackPolicy,
                           PiecewiseConstantPolicy, ZeroPolicy,
                           constant_family, ensemble_cost, feedback_family)
from rldp.ensemble import simulate_particle_system
from rldp.errors import ConfigError, InputError
from rldp.geometry import ConvexDomain
from rldp.integrator import TimeGrid
from rldp.model import MeasureSummary, make_m1


def policy_from_config(block, grid, d, d1):
    """The policy the CLI builds from a run's ``policy`` block."""
    env = {"model": make_m1(ConvexDomain.box([0.0] * d, [1.0] * d), d1=d1),
           "grid": grid}
    run = {"n_particles": 2, "policy": block}
    return cli._parse(cli.KINDS["simulate"][1], run, "run", env)["policy"]


class TestEnsembleCost:
    def test_zero_policy(self):
        grid = TimeGrid(1.0, 4)
        assert ensemble_cost(np.zeros((4, 3, 1)), grid.dt) == 0.0

    def test_identical_constant_controls(self):
        grid = TimeGrid(1.0, 4)
        for n in (1, 2, 7):
            h = np.full((4, n, 1), 2.0)
            assert ensemble_cost(h, grid.dt) == pytest.approx(
                0.5 * 4.0 * 1.0)  # 1/2 |v|^2 T, N-independent

    def test_two_particle_average(self):
        grid = TimeGrid(1.0, 4)
        h = np.zeros((4, 2, 1))
        h[:, 0, 0] = 1.0
        assert ensemble_cost(h, grid.dt) == pytest.approx(0.25)


class TestPolicies:
    def _mu(self):
        return MeasureSummary.dirac([0.5])

    def test_zero_policy(self):
        p = ZeroPolicy(2)
        out = p.evaluate(0.0, np.zeros((3, 1)), self._mu())
        assert out.shape == (3, 2)
        assert p.is_zero()

    def test_constant_family_clips_at_bound(self):
        fam = constant_family(1, bound=3.0)
        p = fam.make(np.array([10.0]))
        out = p.evaluate(0.0, np.zeros((2, 1)), self._mu())
        assert np.all(np.abs(out) <= 3.0 + 1e-12)

    @pytest.mark.parametrize("d, d1", [(1, 1), (2, 3)])
    def test_feedback_weight_count(self, d, d1):
        """Too few or too many weights name the n_features(d) * d1 needed."""
        need = FeedbackPolicy.n_features(d) * d1
        assert FeedbackPolicy(np.zeros(need), d, d1).weights.shape == (
            need // d1, d1)
        for size in (3, need - 1, need + 1):
            with pytest.raises(InputError, match=f"= {need}, got {size}"):
                FeedbackPolicy([0.1] * size, d, d1)

    def test_control_magnitudes_bounded(self):
        grid = TimeGrid(1.0, 2)
        assert FeedbackPolicy(np.zeros(10), 1, 1, bound=1e50).bound == 1e50
        for far in (1.01e50, np.nan, np.inf):
            with pytest.raises(InputError, match="bound"):
                FeedbackPolicy(np.zeros(10), 1, 1, bound=far)
        assert ConstantPolicy([-1e50]).v[0] == -1e50
        assert PiecewiseConstantPolicy([[1e50], [0.0]], grid).values[0, 0] == 1e50
        for far in (1.01e50, -1e308, np.nan, np.inf):
            with pytest.raises(InputError, match="magnitude"):
                ConstantPolicy([far])
            with pytest.raises(InputError, match="magnitude"):
                PiecewiseConstantPolicy([[0.0], [far]], grid)

    @pytest.mark.parametrize("v", [[[1.0], [-1.0]], [[0.5]]])
    def test_constant_control_is_one_vector(self, v):
        # [[1.0], [-1.0]] gave each particle its own control and a two-line
        # policy_id
        with pytest.raises(InputError, match="one vector"):
            ConstantPolicy(v)

    def test_piecewise_lookup(self):
        grid = TimeGrid(1.0, 2)
        p = PiecewiseConstantPolicy(np.array([[1.0], [2.0]]), grid)
        assert p.evaluate(0.0, np.zeros((1, 1)), self._mu())[0] == 1.0
        assert p.evaluate(0.5, np.zeros((1, 1)), self._mu())[0] == 2.0
        assert p.evaluate(1.0, np.zeros((1, 1)), self._mu())[0] == 2.0

    def test_piecewise_outside_its_grid(self):
        # t < 0 used to read a wrapped row (values[-2] at -0.3), and a time
        # past the horizon the last cell
        p = PiecewiseConstantPolicy(np.arange(4.0)[:, None], TimeGrid(1.0, 4))
        x = np.zeros((1, 1))
        for t in (-0.3, -1e-9, 1.0 + 1e-9, 1.3, np.nan):
            with pytest.raises(InputError, match="outside"):
                p.evaluate(t, x, self._mu())
        assert p.evaluate(-1e-14, x, self._mu())[0] == 0.0
        assert p.evaluate(1.0 + 1e-14, x, self._mu())[0] == 3.0

    @pytest.mark.parametrize("horizon, n", [(3.0, 100_000), (0.1, 300_000),
                                            (0.1, 100_000)])
    def test_piecewise_every_node_of_a_fine_grid_reads_its_cell(self, horizon,
                                                                n):
        """t / dt at node k may round away from k by more than a fixed 1e-12
        once k is in the tens of thousands; node k still reads cell k, and
        the horizon (where t / dt may pass n) the last cell."""
        grid = TimeGrid(horizon, n)
        p = PiecewiseConstantPolicy(np.arange(float(n)), grid)
        x, mu = np.zeros((1, 1)), self._mu()
        got = [p.evaluate(t, x, mu)[0] for t in grid.nodes.tolist()]
        assert np.array_equal(got, [*range(n), n - 1])

    def test_piecewise_on_another_run_grid(self):
        """A run on a finer grid within the policy's horizon reads the cell
        of each node; a run past the horizon is an error, not the last cell
        repeated."""
        model = make_m1(ConvexDomain.box([0.0], [1.0]))
        p = PiecewiseConstantPolicy([[1.0], [2.0]], TimeGrid(0.5, 2))
        for run, want in ((TimeGrid(0.5, 8), [1, 1, 1, 1, 2, 2, 2, 2]),
                          (TimeGrid(0.25, 4), [1, 1, 1, 1]),
                          (TimeGrid(0.5, 2), [1, 2])):
            ens = simulate_particle_system(model, 3, run, policy=p)
            assert np.all(ens.controls[..., 0] == np.array(want, float)[:, None])
        with pytest.raises(InputError, match="policy's grid"):
            simulate_particle_system(model, 2, TimeGrid(2.0, 8), policy=p)

    def test_constructors_copy_and_values_are_read_only(self):
        """A caller's later edit of the array it passed changes no policy,
        and neither a policy's values nor the h it hands out can be
        written."""
        v, w = np.array([0.5]), np.zeros(FeedbackPolicy.n_features(1))
        values = np.array([[1.0], [2.0]])
        const, fb = ConstantPolicy(v), FeedbackPolicy(w, 1, 1)
        pw = PiecewiseConstantPolicy(values, TimeGrid(1.0, 2))
        v[0] = w[0] = values[0, 0] = 7.0
        x = np.zeros((3, 1))
        assert np.array_equal(const.evaluate(0.0, x, self._mu()), [0.5])
        assert fb.is_zero() and pw.values[0, 0] == 1.0
        for a in (const.v, const.evaluate(0.0, x, self._mu()), fb.weights,
                  pw.values, pw.evaluate(0.0, x, self._mu())):
            with pytest.raises(ValueError):
                a[...] = 7.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_feedback_features_match_pairwise_products(self, d):
        """The quadratic columns are lin_i * lin_j for i <= j in row-major
        order, bit for bit, under a mean batched over replicas."""
        rng = np.random.default_rng(d)
        states = rng.normal(size=(2, 5, d))
        mean = rng.normal(size=(2, 1, d))
        col = states.shape[:-1] + (1,)
        lin = np.concatenate([np.full(col, 0.3), states,
                              np.broadcast_to(mean, states.shape)], axis=-1)
        m = lin.shape[-1]
        want = np.concatenate(
            [np.ones(col), lin] + [lin[..., [i]] * lin[..., [j]]
                                   for i in range(m) for j in range(i, m)],
            axis=-1)
        got = FeedbackPolicy.features(0.3, states, mean)
        assert got.shape[-1] == FeedbackPolicy.n_features(d)
        assert got.tobytes() == want.tobytes()

    def test_feedback_zero_theta_is_zero(self):
        d, d1 = 1, 1
        nf = FeedbackPolicy.n_features(d)
        p = FeedbackPolicy(np.zeros(d1 * nf), d, d1, bound=2.0)
        out = p.evaluate(0.3, np.array([[0.2]]), self._mu())
        assert np.allclose(out, 0.0)

    def test_families(self):
        fam_c = constant_family(2, bound=1.0)
        assert fam_c.dim == 2
        assert fam_c.make(np.zeros(2)).is_zero() or np.allclose(
            fam_c.make(np.zeros(2)).evaluate(0, np.zeros((1, 1)),
                                             self._mu()), 0)
        fam_f = feedback_family(1, 1, bound=1.0)
        assert fam_f.dim == FeedbackPolicy.n_features(1)

    def test_policy_from_config(self):
        grid = TimeGrid(1.0, 4)
        p = policy_from_config({"policy": "constant", "v": [0.5]},
                               grid, 1, 1)
        assert isinstance(p, ConstantPolicy)
        with pytest.raises(ConfigError):
            policy_from_config({"policy": "nope"}, grid, 1, 1)


class TestPolicyFromConfigChecks:
    def test_constant_width_must_be_d1(self):
        grid = TimeGrid(1.0, 4)
        assert policy_from_config({"policy": "constant", "v": [1.0]},
                                  grid, 1, 1).v.shape == (1,)
        with pytest.raises(ConfigError, match="width"):
            policy_from_config({"policy": "constant", "v": [1.0, 2.0]},
                               grid, 1, 1)

    @pytest.mark.parametrize("values", [np.ones((4, 2)), np.ones((4, 3, 2))])
    def test_piecewise_width_must_be_d1(self, values):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ConfigError, match="width"):
            policy_from_config({"policy": "piecewise_constant",
                                "values": values.tolist()}, grid, 1, 1)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), 0.0, -1.0])
    def test_feedback_bound_finite_and_positive(self, bound):
        nf = FeedbackPolicy.n_features(1)
        with pytest.raises(ConfigError, match="bound"):
            policy_from_config({"policy": "feedback", "theta": [0.0] * nf,
                                "bound": bound}, TimeGrid(1.0, 4), 1, 1)
