import csv
import tracemalloc

import numpy as np
import pytest

import rldp.ensemble as ensemble_mod
import rldp.integrator as integrator_mod
from rldp.controls import ConstantPolicy, ZeroPolicy
from rldp.ensemble import (cumulative_noise, empirical_measure_at,
                           marginal_flow, shared_replica_draws,
                           simulate_particle_system,
                           solve_mckean_vlasov_reference, write_paths_csv)
from rldp.errors import BudgetError, InputError
from rldp.geometry import ConvexDomain
from rldp.integrator import (TimeGrid, brownian_increments,
                             simulate_reflected_path)
from rldp.model import (MeasureSummary, ModelSpec, make_m1, make_m2)
from rldp.rng import INIT, NOISE, iter_substreams, substream

BOX1 = ConvexDomain.box([0.0], [1.0])
BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)
BALL3 = ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)

SUMMARY_FIELDS = ("points", "weights", "mean")


def _noise_path(noises):
    """The rows of ``cumulative_noise`` stacked: w(t_0), ..., w(t_n)."""
    return np.stack(list(cumulative_noise(noises)))


def _assert_same_summary(a, b):
    for name in SUMMARY_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.cov_trace(), b.cov_trace())


def _substream_noise(seed, replica, i, n_steps, d1, dt):
    """Particle i's increments drawn from its own substream (scheme v1)."""
    return (substream(seed, NOISE, replica, i).standard_normal(
        (n_steps, d1)) * np.sqrt(dt))


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
        path = simulate_reflected_path(m, grid, flow, ens.noises[:, 0, :],
                                       [0.5])
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

    @pytest.mark.parametrize("domain, d1, width", [(BOX1, 5, 5),
                                                   (BALL3, 1, 3)])
    def test_budget_counts_the_wider_of_state_and_noise(self, domain, d1,
                                                        width):
        m, grid = make_m1(domain, d1=d1), TimeGrid(0.5, 4)
        with pytest.raises(BudgetError, match=f"x {width} values"):
            simulate_particle_system(m, 2, grid, budget=2 * 4 * width - 1)
        simulate_particle_system(m, 2, grid, budget=2 * 4 * width)

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
                                  _substream_noise(41, replica, i, grid.n_steps,
                                                   m.d1, grid.dt))

    def test_noises_read_only(self):
        ens = simulate_particle_system(make_m1(BOX1), 4, TimeGrid(1.0, 4),
                                       seed=0)
        with pytest.raises(ValueError):
            ens.noises[0, 0, 0] = 1.0

    @pytest.mark.parametrize("domain", [BOX1, BALL3])
    def test_noise_paths_equal_time_major_cumsum(self, domain):
        m = make_m2(domain, theta=0.5)
        grid = TimeGrid(1.0, 33)
        ens = simulate_particle_system(m, 129, grid, seed=8)
        ref = np.zeros((grid.n_steps + 1, 129, m.d1))
        ref[1:] = np.cumsum(np.ascontiguousarray(ens.noises), axis=0)
        assert np.array_equal(_noise_path(ens.noises), ref)


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

    def test_key_is_the_model_object(self):
        grid = TimeGrid(1.0, 8)
        m, twin = make_m2(BALL2), make_m2(BALL2)
        with shared_replica_draws():
            a = simulate_particle_system(m, 8, grid, seed=4, replica=range(2))
            b = simulate_particle_system(m, 8, grid, seed=4, replica=range(2))
            c = simulate_particle_system(twin, 8, grid, seed=4,
                                         replica=range(2))
        assert b.noises is a.noises
        assert c.noises is not a.noises
        assert c.noises.tobytes() == a.noises.tobytes()
        assert c.states.tobytes() == a.states.tobytes()


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

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_nonfinite_time_rejected(self, t):
        ens = simulate_particle_system(make_m1(BOX1), 2, TimeGrid(1.0, 4))
        with pytest.raises(InputError, match="not a grid node"):
            empirical_measure_at(ens, t)


class TestStoredSummaries:
    """The stepping core's node measures are the ones a rebuild would give."""

    @pytest.mark.parametrize("domain", [BOX1, BALL2], ids=["box1d", "ball2d"])
    @pytest.mark.parametrize("v", [None, 0.7], ids=["zero", "constant"])
    def test_equal_to_from_points_of_states(self, domain, v):
        m = make_m2(domain, theta=0.5)
        grid = TimeGrid(0.5, 12)
        policy = None if v is None else ConstantPolicy([v] * m.d1)
        ens = simulate_particle_system(m, 37, grid, policy=policy, seed=5)
        assert len(ens.summaries) == grid.n_steps + 1
        for k, mu in enumerate(ens.summaries):
            assert np.shares_memory(mu.points, ens.states)
            _assert_same_summary(mu, MeasureSummary.from_points(ens.states[k]))
            # a fresh array, as the step hands it over, gives the same bits
            _assert_same_summary(
                mu, MeasureSummary.from_points(ens.states[k].copy()))
        assert marginal_flow(ens) is ens.summaries
        assert empirical_measure_at(ens, 0.25) is ens.summaries[6]

    def test_one_from_points_call_per_node(self, monkeypatch):
        calls = []
        from_points = MeasureSummary.__dict__["from_points"].__func__

        def counting(points):
            calls.append(points.shape)
            return from_points(points)

        monkeypatch.setattr(MeasureSummary, "from_points",
                            staticmethod(counting))
        m = make_m2(BALL2, theta=0.5)
        grid = TimeGrid(0.5, 10)
        ens = simulate_particle_system(m, 16, grid, seed=2)
        marginal_flow(ens)
        for t in grid.nodes:
            empirical_measure_at(ens, t)
        assert len(calls) == grid.n_steps + 1

class TestReferenceFlow:
    def test_deterministic_contraction_flow(self):
        # sigma = 0, b = -x on [-1, 1], nu0 = delta_{0.5}:
        # nu(t) = delta_{0.5 exp(-t)} within Euler error
        dom = ConvexDomain.box([-1.0], [1.0])

        def drift(t, x, mu):
            return -np.asarray(x, dtype=float)

        def diffusion(t, x, mu):
            return np.zeros((1, 1))

        m = ModelSpec(name="contract", domain=dom, d1=1,
                      drift=drift, diffusion=diffusion,
                      init_points=np.array([[0.5]]))
        grid = TimeGrid(1.0, 100)
        flow = solve_mckean_vlasov_reference(m, grid, n_ref=64, seed=0)
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

    @pytest.mark.parametrize("count", [2.5, True, 2.0, 0, -1, "4", None])
    @pytest.mark.parametrize("name", ["n_particles", "n_ref"])
    def test_counts_must_be_integers(self, name, count):
        m, grid = make_m1(BOX1), TimeGrid(0.5, 4)
        with pytest.raises(InputError, match=f"{name} must be an integer"):
            if name == "n_particles":
                simulate_particle_system(m, count, grid)
            else:
                solve_mckean_vlasov_reference(m, grid, n_ref=count)

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

    @pytest.mark.parametrize("domain", [BALL2, BALL3])
    def test_paths_csv_is_csv_writer_bytes(self, tmp_path, domain):
        """The rows written by hand are ``csv.writer``'s bytes, on a ball
        whose walls leave nonzero local times."""
        ens = simulate_particle_system(make_m2(domain, theta=1.0), 9,
                                       TimeGrid(1.0, 12), seed=3, replica=2)
        assert np.any(ens.local_time[-1] > 0)
        write_paths_csv(ens, str(tmp_path / "paths.csv"))
        d = domain.dimension
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replica", "particle", "k", "t"]
                            + [f"x{c}" for c in range(d)] + ["abs_K"])
            for k in range(ens.grid.n_steps + 1):
                for i in range(ens.n_particles):
                    writer.writerow(
                        [ens.replica, i, k, repr(float(ens.grid.nodes[k]))]
                        + [repr(float(v)) for v in ens.states[k, i]]
                        + [repr(float(ens.local_time[k, i]))])
        assert ((tmp_path / "paths.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


# -- time-major noise: bitwise the particle-major layout ----------------------------

def _particle_major_noise(seed, replica, n_particles, n_steps, d1, dt, out):
    """Reference: each particle's increments written to out[i], (N, n, d1),
    by the scheme v1 formula on its own substream."""
    for i in range(n_particles):
        out[i] = _substream_noise(seed, replica, i, n_steps, d1, dt)


def _particle_major_draws(model, grid, n_particles, seed, replica):
    """Reference: one particle-major (R, N, n, d1) buffer per call, returned
    as its read-only transposed view (no memo)."""
    batch = isinstance(replica, range)
    replicas = replica if batch else range(replica, replica + 1)
    states0 = np.empty((len(replicas), n_particles, model.d))
    buf = np.empty((len(replicas), n_particles, grid.n_steps, model.d1))
    for j, r in enumerate(replicas):
        init_rng = substream(seed, INIT, r)
        states0[j] = model.initial_states(n_particles, init_rng)
        _particle_major_noise(seed, r, n_particles, grid.n_steps, model.d1,
                              grid.dt, buf[j])
    buf.flags.writeable = False
    noises = buf.transpose(2, 0, 1, 3)
    if not batch:
        states0, noises = states0[0], noises[:, 0]
    return states0, noises


PATH_FIELDS = ("states", "reflection", "local_time", "boundary_hits",
               "noises", "controls")
NOISE_GRID = TimeGrid(1.0, 6)


def _block_particles(n, model, grid):
    """The ``_BLOCK_BYTES`` that holds exactly n particles of noise."""
    return n * grid.n_steps * model.d1 * 8


class TestTimeMajorNoise:
    @pytest.mark.parametrize("domain", [BOX1, BALL3], ids=["d1=1", "d1=3"])
    @pytest.mark.parametrize("replica", [0, 3, range(1), range(2),
                                         range(2, 10)],
                             ids=["int0", "int3", "range1", "range2",
                                  "range8"])
    @pytest.mark.parametrize("n_particles", [3, 4, 5, 9])
    @pytest.mark.parametrize("policy", [None, "constant"])
    def test_simulation_equals_particle_major(self, monkeypatch, domain,
                                              replica, n_particles, policy):
        # a block of 4 particles: N = 3, 4, 5, 9 is below, at and above it
        m = make_m2(domain, theta=0.5, sigma_scale=0.8)
        if policy is not None:
            policy = ConstantPolicy(np.linspace(-0.5, 0.5, m.d1))
        monkeypatch.setattr(integrator_mod, "_BLOCK_BYTES",
                            _block_particles(4, m, NOISE_GRID))
        ens = simulate_particle_system(m, n_particles, NOISE_GRID, policy,
                                       seed=17, replica=replica)
        monkeypatch.setattr(ensemble_mod, "_replica_draws",
                            _particle_major_draws)
        ref = simulate_particle_system(m, n_particles, NOISE_GRID, policy,
                                       seed=17, replica=replica)
        assert ens.noises.flags.c_contiguous and not ref.noises.flags.c_contiguous
        for name in PATH_FIELDS:
            a, b = getattr(ens, name), getattr(ref, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        for a, b in zip(ens.summaries, ref.summaries, strict=True):
            _assert_same_summary(a, b)
        assert _noise_path(ens.noises).tobytes() == \
            _noise_path(ref.noises).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 64, 10**6],
                             ids=["one", "two", "all", "default"])
    def test_block_size_does_not_change_noise(self, monkeypatch, block):
        m = make_m2(BALL3, theta=0.5)
        _, ref = _particle_major_draws(m, NOISE_GRID, 37, 5, range(3))
        if block != 10**6:
            monkeypatch.setattr(integrator_mod, "_BLOCK_BYTES",
                                _block_particles(block, m, NOISE_GRID))
        _, noises = ensemble_mod._replica_draws(m, NOISE_GRID, 37, 5,
                                                range(3))
        assert noises.tobytes() == np.ascontiguousarray(ref).tobytes()
        assert not noises.flags.writeable

    def test_block_below_one_particle_draws_one_at_a_time(self, monkeypatch):
        m = make_m2(BOX1, theta=0.5)
        monkeypatch.setattr(integrator_mod, "_BLOCK_BYTES", 1)
        _, noises = ensemble_mod._replica_draws(m, NOISE_GRID, 5, 2, 1)
        _, ref = _particle_major_draws(m, NOISE_GRID, 5, 2, 1)
        assert noises.tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("domain", [BOX1, BALL3], ids=["d1=1", "d1=3"])
    @pytest.mark.parametrize("replica", [2, range(3)], ids=["int2", "range3"])
    @pytest.mark.parametrize("n_particles", [1, 3, 4, 5, 11],
                             ids=["1", "b-1", "b", "b+1", "2b+3"])
    def test_block_edges_equal_v1(self, monkeypatch, domain, replica,
                                  n_particles):
        # a block of b = 4 particles: the last block full, partial or alone
        m = make_m2(domain, theta=0.5)
        monkeypatch.setattr(integrator_mod, "_BLOCK_BYTES",
                            _block_particles(4, m, NOISE_GRID))
        _, noises = ensemble_mod._replica_draws(m, NOISE_GRID, n_particles, 9,
                                                replica)
        _, ref = _particle_major_draws(m, NOISE_GRID, n_particles, 9, replica)
        assert noises.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_subnormal_step_equals_v1(self):
        grid = TimeGrid(5e-324, 1)
        m = make_m2(BALL3, theta=0.5)
        _, noises = ensemble_mod._replica_draws(m, grid, 6, 9, range(3))
        _, ref = _particle_major_draws(m, grid, 6, 9, range(3))
        assert noises.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_draw_memory_is_bounded(self):
        # the submart_ball3d replica: keys, one block and a chunk of keys as
        # Python ints, never every particle's keys as ints at once
        out = np.empty((128, 16384, 3))
        tracemalloc.start()
        try:
            brownian_increments(
                iter_substreams(0, NOISE, 0, last=np.arange(16384)),
                0.25 / 128, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    @pytest.mark.parametrize("domain", [BOX1, BALL3], ids=["d1=1", "d1=3"])
    def test_batch_noise_paths_equal_cumsum(self, domain):
        m = make_m2(domain, theta=0.5)
        grid = TimeGrid(1.0, 19)
        ens = simulate_particle_system(m, 7, grid, seed=8, replica=range(3))
        ref = np.zeros((grid.n_steps + 1, 3, 7, m.d1))
        np.cumsum(ens.noises, axis=0, out=ref[1:])
        w = _noise_path(ens.noises)
        assert w.shape == ref.shape and w.tobytes() == ref.tobytes()
        for j in range(3):
            one = simulate_particle_system(m, 7, grid, seed=8, replica=j)
            assert _noise_path(one.noises).tobytes() == \
                np.ascontiguousarray(w[:, j]).tobytes()

    def test_noise_paths_keep_signed_zeros(self):
        # np.cumsum copies the first increment, so a -0.0 stays -0.0; the
        # increments are (n, R, N, d1) of a 3-step batch of two replicas
        noises = np.full((3, 2, 2, 3), -0.0)
        noises[2, 1, 0] = 0.5
        w = _noise_path(noises)
        ref = np.zeros_like(w)
        np.cumsum(noises, axis=0, out=ref[1:])
        assert w.tobytes() == ref.tobytes()
        assert np.signbit(w[1:3]).all()

    def test_noise_paths_one_step(self):
        m = make_m2(BALL3, theta=0.5)
        ens = simulate_particle_system(m, 3, TimeGrid(1.0, 1), seed=8)
        w = _noise_path(ens.noises)
        assert np.all(w[0] == 0.0) and w[1].tobytes() == ens.noises[0].tobytes()


class TestBatchHelpers:
    def _batch(self):
        return simulate_particle_system(make_m2(BALL3, theta=0.5), 3,
                                        TimeGrid(1.0, 4), seed=2,
                                        replica=range(2))

    def test_paths_csv_rejects_batch_before_writing(self, tmp_path):
        out = tmp_path / "paths.csv"
        with pytest.raises(InputError):
            write_paths_csv(self._batch(), str(out))
        assert not out.exists()

    def test_paths_csv_of_one_replica_of_a_batch(self, tmp_path):
        batch = self._batch()
        ens = simulate_particle_system(make_m2(BALL3, theta=0.5), 3,
                                       TimeGrid(1.0, 4), seed=2, replica=1)
        assert ens.states.tobytes() == \
            np.ascontiguousarray(batch.states[:, 1]).tobytes()
        out = tmp_path / "paths.csv"
        write_paths_csv(ens, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replica", "particle", "k", "t",
                           "x0", "x1", "x2", "abs_K"]
        assert len(rows) == 1 + 3 * 5
        assert rows[1][0] == "1"
        assert [float(v) for v in rows[-1][4:7]] == list(ens.states[4, 2])
