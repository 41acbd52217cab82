import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldp.controls import ConstantPolicy
from rldp.ensemble import marginal_flow, simulate_particle_system
from rldp.errors import InputError, PreconditionError
from rldp.geometry import ConvexDomain, skorokhod_1d
from rldp.integrator import (TimeGrid, _advance, brownian_increments,
                             coarsen_increments, simulate_reflected_path)
from rldp.model import (MeasureSummary, ModelSpec, make_drifted, make_m1,
                        make_m2)
from rldp.rng import NOISE, substream

BOX1 = ConvexDomain.box([0.0], [1.0])
BOX2 = ConvexDomain.box([-1.0, 0.0], [1.0, 0.5])
BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)
BALL3 = ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)


def _v1_noise(gen, n_steps, d1, dt):
    """One path's increments by the scheme v1 formula."""
    return gen.standard_normal((n_steps, d1)) * np.sqrt(dt)


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(1.0, 4)
        assert g.dt == pytest.approx(0.25)
        assert np.allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1.0])
        assert g.node_index(0.5) == 2

    def test_off_grid_time_rejected(self):
        with pytest.raises(InputError):
            TimeGrid(1.0, 4).node_index(0.3)

    def test_every_node_is_its_own_index(self):
        """The tolerance is relative to the horizon: with horizon 1e9 and
        29 steps, 29 dt is 999999999.9999999, yet the horizon is node 29."""
        for horizon in (10.0 ** e for e in range(51)):
            for n in (*range(1, 40), 100, 1000, 1024):
                g = TimeGrid(horizon, n)
                assert [g.node_index(t) for t in g.nodes] == list(range(n + 1))
                with pytest.raises(InputError):
                    g.node_index(g.nodes[0] + g.dt / 2)

    def test_invalid(self):
        with pytest.raises(InputError):
            TimeGrid(-1.0, 4)
        with pytest.raises(InputError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("horizon, n_steps", [
        (float("nan"), 4), (float("inf"), 4), (True, 4), ("1", 4),
        (1.0, 2.5), (1.0, True), (1.0, "4"), (1.0, None)])
    def test_non_numbers_rejected(self, horizon, n_steps):
        with pytest.raises(InputError):
            TimeGrid(horizon, n_steps)

    def test_horizon_at_most_the_magnitude_cap(self):
        # the 1e50 rule of the domain bounds and the model parameters
        assert TimeGrid(1e50, 4).horizon == 1e50
        for far in (1.01e50, 10**51, 1e308):
            with pytest.raises(InputError, match="horizon"):
                TimeGrid(far, 4)

    def test_step_underflow_rejected(self):
        # 5e-324 / 2 rounds to 0, and 1.0 / 10**400 has no float at all
        for horizon, n_steps in [(5e-324, 2), (1.0, 10**400)]:
            with pytest.raises(InputError, match="step"):
                TimeGrid(horizon, n_steps)

    @pytest.mark.parametrize("horizon, n_steps", [(5e-324, 1), (1e-320, 2)])
    def test_subnormal_step_accepted(self, horizon, n_steps):
        g = TimeGrid(horizon, n_steps)
        assert g.dt > 0
        assert g.node_index(horizon) == n_steps
        for t in (1.0, -horizon, float("nan"), float("inf")):
            with pytest.raises(InputError):
                g.node_index(t)

    def test_node_index_builds_no_nodes(self):
        # the CLI checks time pairs on grids of any size, before the budget
        g = TimeGrid(0.5, 10**6)
        assert g.node_index(0.5) == 10**6 and g.node_index(0.25) == 5 * 10**5
        assert "nodes" not in vars(g)

    def test_numpy_scalars_accepted(self):
        g = TimeGrid(np.float64(0.5), np.int64(4))
        assert g.dt == 0.125


def _frozen_flow(grid, point):
    return [MeasureSummary.dirac(point)] * (grid.n_steps + 1)


class TestSimulateReflectedPath:
    def test_frozen_dynamics_constant_path(self):
        m = make_m1(BOX1)
        grid = TimeGrid(1.0, 50)
        path = simulate_reflected_path(m, grid, _frozen_flow(grid, [0.3]),
                                       np.zeros((50, 1)), [0.3])
        assert np.allclose(path.states, 0.3)
        assert path.local_time[-1] == 0.0

    def test_reflected_ode_local_time(self):
        # b = -2, sigma = 0, x0 = 0.1: exact solution x(t) = max(0, 0.1 - 2t),
        # |K|(t) = 2 (t - 0.05)^+
        def drift(t, x, mu):
            return np.full(np.shape(x), -2.0)

        def diffusion(t, x, mu):
            return np.zeros((1, 1))

        m = ModelSpec(name="ode", domain=BOX1, d1=1,
                      drift=drift, diffusion=diffusion,
                      init_points=np.array([[0.1]]))
        grid = TimeGrid(1.0, 100)  # dt = 0.01
        path = simulate_reflected_path(m, grid, _frozen_flow(grid, [0.1]),
                                       np.zeros((100, 1)), [0.1])
        t = grid.nodes
        exact_x = np.maximum(0.0, 0.1 - 2.0 * t)
        exact_k = 2.0 * np.maximum(0.0, t - 0.05)
        tol = 2 * grid.dt * 2.0
        assert np.max(np.abs(path.states[:, 0] - exact_x)) <= tol
        assert np.max(np.abs(path.local_time - exact_k)) <= tol
        # once absorbed at 0 the path sticks there
        assert np.all(path.states[10:, 0] == 0.0)

    def test_matches_skorokhod_map(self):
        m = make_m1(BOX1)
        grid = TimeGrid(1.0, 256)
        noise = _v1_noise(substream(42, NOISE, 0, 0), 256, 1, grid.dt)
        x0 = 0.5
        path = simulate_reflected_path(m, grid, _frozen_flow(grid, [0.5]),
                                       noise, [x0])
        w = x0 + np.r_[0.0, np.cumsum(noise[:, 0])]
        x_oracle, ell_oracle = skorokhod_1d(w, 0.0, 1.0)
        overshoot = 2 * np.max(np.abs(noise))
        assert np.max(np.abs(path.states[:, 0] - x_oracle)) <= overshoot
        assert abs(path.local_time[-1] - ell_oracle[-1]) <= 2 * overshoot

    def test_containment_always(self):
        m = make_m1(BOX1, sigma_scale=2.0)
        grid = TimeGrid(1.0, 64)
        noise = _v1_noise(substream(7, NOISE, 0, 0), 64, 1, grid.dt)
        path = simulate_reflected_path(m, grid, _frozen_flow(grid, [0.5]),
                                       noise, [0.5])
        assert m.domain.contains_all(path.states).all()

    def test_exterior_start_rejected(self):
        m = make_m1(BOX1)
        grid = TimeGrid(1.0, 4)
        with pytest.raises(PreconditionError):
            simulate_reflected_path(m, grid, _frozen_flow(grid, [0.5]),
                                    np.zeros((4, 1)), [1.5])

    def test_nan_drift_rejected(self):
        def drift(t, x, mu):
            return np.full(np.shape(x), np.nan)

        m = ModelSpec(name="nan", domain=BOX1, d1=1,
                      drift=drift, diffusion=make_m1(BOX1).diffusion,
                      init_points=np.array([[0.5]]))
        grid = TimeGrid(1.0, 4)
        with pytest.raises(InputError):
            simulate_reflected_path(m, grid, _frozen_flow(grid, [0.5]),
                                    np.zeros((4, 1)), [0.5])


class TestOneSteppingCore:
    """A path under the ensemble's own flow and noise is its particle."""

    @pytest.mark.parametrize("model", [
        make_drifted(BALL2, [0.8, -0.5]), make_m1(BOX1, sigma_scale=2.0),
        make_m2(BALL3, theta=0.5, sigma_scale=1.5),
    ], ids=["drifted-ball2d", "m1-1d", "m2-ball3d"])
    def test_path_equals_one_particle_system(self, model):
        grid = TimeGrid(1.0, 64)
        ens = simulate_particle_system(model, 1, grid, seed=17)
        path = simulate_reflected_path(model, grid, marginal_flow(ens),
                                       ens.noises[:, 0], ens.states[0, 0])
        assert ens.boundary_hits.any()
        assert np.array_equal(path.states, ens.states[:, 0])
        assert np.array_equal(path.reflection, ens.reflection[:, 0])
        assert np.array_equal(path.local_time, ens.local_time[:, 0])
        assert np.array_equal(path.boundary_hits, ens.boundary_hits[:, 0])


class _CountingPolicy(ConstantPolicy):
    def __init__(self, v):
        super().__init__(v)
        self.is_zero_calls = 0

    def is_zero(self):
        self.is_zero_calls += 1
        return super().is_zero()


class TestPolicyIsZeroOncePerAdvance:
    @pytest.mark.parametrize("v", [[0.0], [0.5]])
    def test_one_call_per_advance(self, v):
        m = make_m1(BOX1)
        grid = TimeGrid(1.0, 16)
        policy = _CountingPolicy(v)
        simulate_particle_system(m, 8, grid, policy=policy, seed=2)
        assert policy.is_zero_calls == 1
        _advance(m, grid, np.full((3, 1), 0.5), np.zeros((16, 3, 1)), policy,
                 None)
        assert policy.is_zero_calls == 2


class TestReflectionProperties:
    @settings(max_examples=40, deadline=None)
    @given(domain=st.sampled_from([BOX2, BALL3]),
           seed=st.integers(0, 2**32 - 1),
           sigma=st.floats(0.0, 4.0),
           drift=st.floats(-20.0, 20.0))
    def test_states_contained_and_local_time_nondecreasing(
            self, domain, seed, sigma, drift):
        d = domain.dimension
        m = make_drifted(domain, drift, sigma_scale=sigma)
        grid = TimeGrid(1.0, 32)
        gen = np.random.default_rng(seed)
        x0 = domain.sample_interior(gen, 1)[0]
        noise = _v1_noise(gen, 32, d, grid.dt)
        path = simulate_reflected_path(m, grid, _frozen_flow(grid, x0),
                                       noise, x0)
        assert domain.contains_all(path.states).all()
        assert path.local_time[0] == 0.0
        assert np.all(np.diff(path.local_time) >= 0.0)


class TestReflectedWallOracle:
    """m1 started at the wall of [0, 40], sigma = 0.5, T = 1; no path comes
    near 40.  Reflected Brownian motion at one wall has the law of |sigma W|
    (Levy), so E X_T = sigma sqrt(2T / pi).  Projected Euler is then the
    Lindley recursion X_{k+1} = max(0, X_k + sigma dW_k), whose X_n has the
    law of the walk's running maximum, so by Spitzer's identity
    E X_n = sum_{k <= n} E[S_k^+] / k = sigma sqrt(dt / (2 pi))
    sum_{k <= n} k^(-1/2) exactly.  The scheme's bias against Levy's value,
    over sigma sqrt(dt), tends to zeta(1/2) / sqrt(2 pi) ~ -0.5826
    (Asmussen, Glynn & Pitman, Ann. Appl. Probab. 5(4), 1995): weak order
    1/2, and its constant.  Tolerances are four standard errors of the
    sample mean over 65,536 paths, so the checks pin meaning, not bytes."""

    SIGMA = 0.5
    AGP = -1.4603545088095868 / np.sqrt(2 * np.pi)  # zeta(1/2) / sqrt(2 pi)

    @pytest.fixture(scope="class", params=[16, 64])
    def wall(self, request):
        """(n, sigma sqrt(dt), mean and standard error of X_T)."""
        n = request.param
        m = make_m1(ConvexDomain.box([0.0], [40.0]), sigma_scale=self.SIGMA,
                    init=[[0.0]])
        grid = TimeGrid(1.0, n)
        # m1's particles are independent: 16 replicas of 4096 paths
        x = np.concatenate([simulate_particle_system(
            m, 4096, grid, seed=1, replica=r).states[-1, :, 0]
            for r in range(16)])
        return (n, self.SIGMA * np.sqrt(grid.dt), x.mean(),
                x.std(ddof=1) / np.sqrt(x.size))

    def test_mean_is_spitzers(self, wall):
        n, h, mean, se = wall
        exact = h / np.sqrt(2 * np.pi) * sum(k ** -0.5 for k in range(1, n + 1))
        assert abs(mean - exact) <= 4 * se

    def test_bias_below_levy_at_the_agp_constant(self, wall):
        # sum_{k <= n} k^(-1/2) = 2 sqrt(n) + zeta(1/2) + 1/(2 sqrt(n)) +
        # O(n^(-3/2)), so at n steps the scaled bias sits above the limit by
        # about 1 / (2 sqrt(2 pi n)): the tolerance allows for that term
        n, h, mean, se = wall
        bias = (mean - self.SIGMA * np.sqrt(2 / np.pi)) / h
        assert bias + 4 * se / h < 0
        assert abs(bias - self.AGP) <= 4 * se / h + 1 / (2 * np.sqrt(2 * np.pi * n))


class TestBrownianCoupling:
    @pytest.mark.parametrize("factor", [1, 2, 3, 4, 6, 12, np.int64(3)])
    def test_coarsen_is_block_sums(self, factor):
        dW = _v1_noise(substream(11, NOISE, 0, 0), 12, 2, 0.25)
        got = coarsen_increments(dW, factor)
        ref = dW.reshape(12 // factor, factor, 2).sum(axis=1)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("factor", [0, -1, 2.0, True, "2", None, 5])
    def test_coarsen_bad_factor_rejected(self, factor):
        with pytest.raises(InputError):
            coarsen_increments(np.zeros((12, 2)), factor)

    def test_increment_variance(self):
        rng = np.random.default_rng(0)
        dW = brownian_increments([rng], 0.01, np.empty((20000, 1, 1)))
        assert np.var(dW) == pytest.approx(0.01, rel=0.05)


class TestBrownianIncrements:
    @pytest.mark.parametrize("d1", [1, 3])
    def test_paths_equal_v1(self, d1):
        gens = (substream(5, NOISE, 1, i) for i in range(4))
        out = brownian_increments(gens, 0.3, np.empty((7, 4, d1)))
        for i in range(4):
            ref = _v1_noise(substream(5, NOISE, 1, i), 7, d1, 0.3)
            assert out[:, i].tobytes() == ref.tobytes()

    def test_writes_into_a_strided_out(self):
        buf = np.full((7, 6, 2), np.nan)
        out = brownian_increments([substream(5, NOISE, 1, 0)], 0.3,
                                  buf[:, 2:3])
        assert out.base is buf and np.isnan(np.delete(buf, 2, axis=1)).all()
        ref = _v1_noise(substream(5, NOISE, 1, 0), 7, 2, 0.3)
        assert buf[:, 2].tobytes() == ref.tobytes()

    def test_draws_no_generator_past_the_last_path(self):
        gens = iter([substream(5, NOISE, 1, i) for i in range(3)])
        brownian_increments(gens, 0.3, np.empty((2, 2, 1)))
        assert len(list(gens)) == 1

    def test_too_few_generators_rejected(self):
        with pytest.raises(InputError):
            brownian_increments([substream(5, NOISE, 1, 0)], 0.3,
                                np.empty((2, 2, 1)))

    @pytest.mark.parametrize("dt", [-1.0, np.nan, np.inf])
    def test_bad_step_rejected(self, dt):
        with pytest.raises(InputError):
            brownian_increments([substream(1, NOISE, 0, 0)], dt,
                                np.empty((3, 1, 1)))
