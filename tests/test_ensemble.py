import csv

import numpy as np
import pytest

import rldp.ensemble as ensemble_mod
from rldp.controls import ZeroPolicy
from rldp.ensemble import (empirical_measure_at, marginal_flow,
                           shared_replica_draws, simulate_particle_system,
                           solve_mckean_vlasov_reference, write_paths_csv)
from rldp.errors import BudgetError, InputError
from rldp.geometry import ConvexDomain
from rldp.integrator import TimeGrid, brownian_increments, simulate_reflected_path
from rldp.model import (MeasureSummary, ModelSpec, make_m1, make_m2)
from rldp.rng import NOISE, substream

BOX1 = ConvexDomain.box([0.0], [1.0])
BALL3 = ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)


def _substream_noise(seed, replica, i, grid, d1):
    """Particle i's increments drawn from its own substream (scheme v1)."""
    return brownian_increments(substream(seed, NOISE, replica, i),
                               grid.n_steps, d1, grid.dt)


class TestParticleSystem:
    def test_degenerate_noise_constant_paths(self):
        m = make_m1(BOX1, sigma_scale=0.0, init=[[0.2], [0.5], [0.8]])
        grid = TimeGrid(1.0, 16)
        ens = simulate_particle_system(m, 3, grid, seed=0)
        assert np.allclose(ens.states, ens.states[0])
        assert np.all(ens.local_time[-1] == 0.0)

    def test_mean_attraction_two_body_ode(self):
        # theta=1, sigma=0, inits {0, 1}: the particle gap obeys the exact
        # discrete recursion gap_{k+1} = (1 - theta dt) gap_k
        m = make_m2(BOX1, theta=1.0, sigma_scale=0.0, init=[[0.0], [1.0]])
        grid = TimeGrid(1.0, 50)
        ens = simulate_particle_system(m, 2, grid, seed=0)
        gap = ens.states[:, 1, 0] - ens.states[:, 0, 0]
        expected = (1.0 - grid.dt) ** np.arange(grid.n_steps + 1)
        assert np.allclose(gap, expected, atol=1e-12)
        # symmetric pair converges toward the midpoint 0.5
        assert abs(ens.states[-1, 0, 0] - 0.5) < abs(ens.states[0, 0, 0] - 0.5)
        # continuous-limit decay e^{-theta t} within Euler error
        assert gap[-1] == pytest.approx(np.exp(-1.0), abs=2 * grid.dt)

    def test_single_particle_matches_path_integrator(self):
        m = make_m1(BOX1, init=[[0.5]])
        grid = TimeGrid(1.0, 32)
        ens = simulate_particle_system(m, 1, grid, seed=13)
        flow = [empirical_measure_at(ens, t) for t in grid.nodes]
        path = simulate_reflected_path(m, grid, flow, None,
                                       ens.noises[:, 0, :], [0.5])
        # bit-identical: the N=1 system couples to its own empirical law
        assert np.array_equal(path.states, ens.states[:, 0, :])
        assert np.array_equal(path.local_time, ens.local_time[:, 0])

    def test_determinism_same_seed(self):
        m = make_m2(BOX1, theta=0.5)
        grid = TimeGrid(0.5, 16)
        a = simulate_particle_system(m, 8, grid, seed=3)
        b = simulate_particle_system(m, 8, grid, seed=3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.noises, b.noises)

    def test_replicas_differ(self):
        m = make_m1(BOX1)
        grid = TimeGrid(0.5, 16)
        a = simulate_particle_system(m, 8, grid, seed=3, replica=0)
        b = simulate_particle_system(m, 8, grid, seed=3, replica=1)
        assert not np.array_equal(a.states, b.states)

    def test_zero_policy_bit_identical_to_none(self):
        m = make_m1(BOX1)
        grid = TimeGrid(0.5, 16)
        a = simulate_particle_system(m, 8, grid, seed=3)
        b = simulate_particle_system(m, 8, grid, policy=ZeroPolicy(1), seed=3)
        assert np.array_equal(a.states, b.states)

    def test_budget_enforced(self):
        m = make_m1(BOX1)
        grid = TimeGrid(0.5, 16)
        with pytest.raises(BudgetError):
            simulate_particle_system(m, 100, grid, seed=0, budget=10)

    def test_containment(self):
        m = make_m1(BOX1, sigma_scale=2.0)
        grid = TimeGrid(1.0, 64)
        ens = simulate_particle_system(m, 32, grid, seed=1)
        assert m.domain.contains_all(ens.states.reshape(-1, 1)).all()


class TestNoiseContract:
    @pytest.mark.parametrize("domain, replica", [(BOX1, 0), (BOX1, 2),
                                                 (BALL3, 0), (BALL3, 5)])
    def test_noises_equal_per_particle_substreams(self, domain, replica):
        m = make_m2(domain, theta=0.5)
        grid = TimeGrid(1.0, 12)
        ens = simulate_particle_system(m, 300, grid, seed=41, replica=replica)
        assert ens.noises.shape == (12, 300, m.d1)
        for i in (0, 1, 17, 150, 299):
            assert np.array_equal(ens.noises[:, i],
                                  _substream_noise(41, replica, i, grid, m.d1))

    def test_noises_read_only(self):
        ens = simulate_particle_system(make_m1(BOX1), 4, TimeGrid(1.0, 4),
                                       seed=0)
        with pytest.raises(ValueError):
            ens.noises[0, 0, 0] = 1.0

    def test_picard_noise_equals_per_particle_substreams(self, monkeypatch):
        seen = []
        advance = ensemble_mod._advance

        def recording_advance(model, grid, states0, noises, policy, mu_flow):
            seen.append(noises)
            return advance(model, grid, states0, noises, policy, mu_flow)

        monkeypatch.setattr(ensemble_mod, "_advance", recording_advance)
        m = make_m2(BALL3, theta=0.5)
        grid = TimeGrid(1.0, 8)
        solve_mckean_vlasov_reference(m, grid, method="picard", n_inner=64,
                                      n_iter=2, seed=9)
        assert len(seen) == 2 and seen[0] is seen[1]
        for i in (0, 33, 63):
            assert np.array_equal(seen[0][:, i],
                                  _substream_noise(9, 0, i, grid, m.d1))

    @pytest.mark.parametrize("domain", [BOX1, BALL3])
    def test_noise_paths_equal_time_major_cumsum(self, domain):
        m = make_m2(domain, theta=0.5)
        grid = TimeGrid(1.0, 33)
        ens = simulate_particle_system(m, 129, grid, seed=8)
        ref = np.zeros((grid.n_steps + 1, 129, m.d1))
        ref[1:] = np.cumsum(np.ascontiguousarray(ens.noises), axis=0)
        assert np.array_equal(ens.noise_paths(), ref)

    def test_grid_past_model_horizon_rejected(self):
        m = make_m1(BOX1, horizon=0.5)
        with pytest.raises(InputError):
            simulate_particle_system(m, 2, TimeGrid(2.0, 8), seed=0)


class TestSharedReplicaDraws:
    def test_draws_reused_and_bit_identical(self):
        m = make_m2(BOX1, theta=0.5)
        grid = TimeGrid(1.0, 16)
        fresh = simulate_particle_system(m, 8, grid, seed=3, replica=1)
        with shared_replica_draws():
            a = simulate_particle_system(m, 8, grid, seed=3, replica=1)
            with shared_replica_draws():  # nested scopes join the outer one
                b = simulate_particle_system(m, 8, grid, seed=3, replica=1)
            other = simulate_particle_system(m, 8, grid, seed=3, replica=2)
        after = simulate_particle_system(m, 8, grid, seed=3, replica=1)
        assert b.noises is a.noises
        assert other.noises is not a.noises
        assert after.noises is not a.noises
        for ens in (a, b, after):
            assert np.array_equal(ens.states, fresh.states)
            assert np.array_equal(ens.noises, fresh.noises)

    def test_key_includes_particle_count_and_grid(self):
        m = make_m1(BOX1)
        with shared_replica_draws():
            a = simulate_particle_system(m, 4, TimeGrid(1.0, 8), seed=1)
            b = simulate_particle_system(m, 6, TimeGrid(1.0, 8), seed=1)
            c = simulate_particle_system(m, 4, TimeGrid(1.0, 16), seed=1)
        assert b.noises.shape[1] == 6 and c.noises.shape[0] == 16
        assert np.array_equal(b.noises[:, :4], a.noises)


class TestEmpiricalMeasure:
    def test_two_particles(self):
        m = make_m1(BOX1, sigma_scale=0.0, init=[[0.0], [1.0]])
        grid = TimeGrid(1.0, 4)
        ens = simulate_particle_system(m, 2, grid, seed=0)
        mu = empirical_measure_at(ens, 0.0)
        assert np.allclose(mu.weights, [0.5, 0.5])
        assert mu.mean[0] == pytest.approx(0.5)

    def test_single_particle_dirac(self):
        m = make_m1(BOX1, init=[[0.3]])
        grid = TimeGrid(1.0, 4)
        ens = simulate_particle_system(m, 1, grid, seed=0)
        assert empirical_measure_at(ens, 0.0).is_dirac()

    def test_equal_states_dirac(self):
        m = make_m1(BOX1, sigma_scale=0.0, init=[[0.7]])
        grid = TimeGrid(1.0, 4)
        ens = simulate_particle_system(m, 4, grid, seed=0)
        mu = empirical_measure_at(ens, 1.0)
        assert mu.cov_trace() == pytest.approx(0.0)


class TestReferenceFlow:
    def test_deterministic_contraction_flow(self):
        # sigma = 0, b = -x on [-1, 1], nu0 = delta_{0.5}:
        # nu(t) = delta_{0.5 exp(-t)} within Euler error
        dom = ConvexDomain.box([-1.0], [1.0])

        def drift(t, x, mu):
            return -np.asarray(x, dtype=float)

        def diffusion(t, x, mu):
            return np.zeros((1, 1))

        m = ModelSpec(name="contract", domain=dom, d1=1, horizon=1.0,
                      drift=drift, diffusion=diffusion, bound_L=2.0,
                      lipschitz_K=1.0, init_points=np.array([[0.5]]),
                      init_sampler=None, params={})
        grid = TimeGrid(1.0, 100)
        for method in ("large_N", "picard"):
            flow = solve_mckean_vlasov_reference(m, grid, method=method,
                                                 n_ref=64, n_inner=64, seed=0)
            got = np.array([flow[k].mean[0] for k in range(101)])
            exact = 0.5 * np.exp(-grid.nodes)
            assert np.max(np.abs(got - exact)) <= 3 * grid.dt

    def test_symmetric_marginal_mean(self):
        m = make_m1(BOX1)
        grid = TimeGrid(1.0, 32)
        flow = solve_mckean_vlasov_reference(m, grid, n_ref=4096, seed=0)
        means = np.array([flow[k].mean[0] for k in range(33)])
        se = 0.3 / np.sqrt(4096)  # sub-interval sd bound
        assert np.all(np.abs(means - 0.5) <= 3 * se + 0.02)

    def test_measure_free_picard_converges_immediately(self):
        m = make_m1(BOX1)  # coefficients do not depend on mu
        grid = TimeGrid(0.5, 16)
        flow = solve_mckean_vlasov_reference(m, grid, method="picard",
                                             n_inner=256, seed=0, tol=5e-3)
        assert flow.converged
        # first entry is the gap to the initial guess; the first true Picard
        # update is already a fixed point, so the next gap is below tol
        assert len(flow.iteration_distances) <= 2
        assert flow.iteration_distances[-1] < 5e-3


class TestOutputs:
    def test_paths_csv_row_count(self, tmp_path):
        m = make_m1(BOX1)
        grid = TimeGrid(1.0, 16)
        ens = simulate_particle_system(m, 8, grid, seed=1)
        out = tmp_path / "paths.csv"
        write_paths_csv(ens, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 8 * 17  # header + N (n_steps + 1)
        header = rows[0]
        assert header[:4] == ["replica", "particle", "k", "t"]
        # round-trip float fidelity
        assert float(rows[1][4]) == ens.states[0, 0, 0]
