"""A batch of replicas stepped in one ``_advance`` call equals the
per-replica loop bit for bit, and the Monte Carlo estimates built on it make
one simulation call per objective evaluation."""

import json

import numpy as np
import pytest

import rldp.ldp as ldp_mod
from rldp import cli
from rldp.controls import (ConstantPolicy, FeedbackPolicy,
                           PiecewiseConstantPolicy, ZeroPolicy,
                           constant_family, feedback_family)
from rldp.ensemble import (marginal_flow, shared_replica_draws,
                           simulate_particle_system,
                           solve_mckean_vlasov_reference)
from rldp.errors import InputError
from rldp.geometry import ConvexDomain
from rldp.integrator import TimeGrid
from rldp.ldp import (distance_to_target_functional, estimate_rate,
                      laplace_functional_mc, terminal_mean_functional,
                      variational_objective)
from rldp.model import MeasureSummary, make_drifted, make_m1, make_m2, make_m3

BOX1 = ConvexDomain.box([0.0], [1.0])
BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)
BALL3 = ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)

MODELS = {
    "m1": lambda dom: make_m1(dom, sigma_scale=0.6),
    "m2": lambda dom: make_m2(dom, theta=0.7, sigma_scale=0.6),
    "m3": lambda dom: make_m3(dom, alpha=2.0),
    "drifted": lambda dom: make_drifted(dom, 0.8, sigma_scale=0.6),
}
DOMAINS = {"box1d": BOX1, "ball2d": BALL2, "ball3d": BALL3}
POLICIES = ("zero", "constant", "piecewise_shared", "piecewise_particle",
            "feedback")
N_PARTICLES = 6
GRID = TimeGrid(1.0, 5)


def _policy(name, model, grid, n_particles):
    gen = np.random.default_rng(3)
    d, d1, n = model.d, model.d1, grid.n_steps
    if name == "zero":
        return ZeroPolicy(d1)
    if name == "constant":
        return ConstantPolicy(np.linspace(-0.5, 0.7, d1))
    if name == "piecewise_shared":
        return PiecewiseConstantPolicy(gen.uniform(-1, 1, (n, d1)), grid)
    if name == "piecewise_particle":
        return PiecewiseConstantPolicy(
            gen.uniform(-1, 1, (n, n_particles, d1)), grid)
    weights = gen.uniform(-0.5, 0.5, (FeedbackPolicy.n_features(d), d1))
    return FeedbackPolicy(weights, d=d, d1=d1, bound=2.0)


def _looped(model, n_particles, grid, policy, replicas, seed):
    """The per-replica reference: one simulation per replica."""
    return [simulate_particle_system(model, n_particles, grid, policy=policy,
                                     seed=seed, replica=r) for r in replicas]


def _looped_flows(model, n_particles, grid, n_replicas, seed, policy=None,
                  budget=None):
    """``ldp._replica_flows`` as a loop over single replicas: the controls
    and marginal flow of each replica simulated alone."""
    for m in range(n_replicas):
        ens = simulate_particle_system(model, n_particles, grid,
                                       policy=policy, seed=seed, replica=m,
                                       budget=budget)
        yield ens.controls, marginal_flow(ens)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


PATH_ARRAYS = ("states", "reflection", "local_time", "boundary_hits",
               "controls", "noises")


def _assert_replica_equals(batch, j, ref):
    """Replica ``j`` of a batch, read in place, equals ``ref`` simulated
    alone: the ``[:, j]`` slice of every path array and ``replica(j)`` of
    every node measure."""
    assert batch.replica[j] == ref.replica
    for name in PATH_ARRAYS:
        assert _same(getattr(batch, name)[:, j], getattr(ref, name)), name
    assert len(batch.summaries) == len(ref.summaries)
    for k, (mu, nu) in enumerate(zip(batch.summaries, ref.summaries)):
        one = mu.replica(j)
        assert _same(one.points, nu.points), k
        assert _same(one.mean, nu.mean), k
        assert _same(one.cov_trace(), nu.cov_trace()), k
        assert _same(one.weights, nu.weights), k


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_batch_equals_loop(model_name, domain_name, policy_name):
    model = MODELS[model_name](DOMAINS[domain_name])
    policy = _policy(policy_name, model, GRID, N_PARTICLES)
    for n_replicas in (1, 2, 8):
        replicas = range(n_replicas)
        batch = simulate_particle_system(model, N_PARTICLES, GRID,
                                         policy=policy, seed=7,
                                         replica=replicas)
        ref = _looped(model, N_PARTICLES, GRID, policy, replicas, seed=7)
        assert batch.states.shape == (GRID.n_steps + 1, n_replicas,
                                      N_PARTICLES, model.d)
        assert batch.boundary_hits.size == (
            n_replicas * N_PARTICLES * GRID.n_steps)
        for j, r in enumerate(ref):
            _assert_replica_equals(batch, j, r)
            for mu, nu in zip(batch.summaries, r.summaries):
                assert _same(mu.cov_trace()[j], nu.cov_trace())


def test_offset_range_equals_its_replicas():
    model = make_m2(BALL2, theta=0.7)
    batch = simulate_particle_system(model, 5, GRID, seed=2,
                                     replica=range(3, 6))
    for j, r in enumerate(_looped(model, 5, GRID, None, range(3, 6), seed=2)):
        _assert_replica_equals(batch, j, r)


def test_empty_range_rejected():
    with pytest.raises(InputError):
        simulate_particle_system(make_m1(BOX1), 4, GRID, replica=range(0))


def test_shared_draws_memoize_the_batch():
    model = make_m2(BOX1, theta=0.5)
    with shared_replica_draws():
        a = simulate_particle_system(model, 4, GRID, seed=1,
                                     replica=range(3))
        b = simulate_particle_system(model, 4, GRID, seed=1,
                                     replica=range(3))
    assert b.noises is a.noises
    fresh = simulate_particle_system(model, 4, GRID, seed=1, replica=range(3))
    assert _same(fresh.states, a.states)


def test_batched_summary_replica_is_its_measure():
    gen = np.random.default_rng(0)
    pts = gen.uniform(-1, 1, (4, 9, 3))
    batch = MeasureSummary.from_points(pts)
    assert batch.mean.shape == (4, 1, 3)
    assert batch.cov_trace().shape == (4,)
    for j in range(4):
        mu = batch.replica(j)
        alone = MeasureSummary.from_points(pts[j])
        assert np.shares_memory(mu.points, batch.points)
        assert mu.mean.shape == alone.mean.shape == (3,)
        assert _same(mu.mean, alone.mean)
        assert mu.cov_trace() == alone.cov_trace() == batch.cov_trace()[j]


# -- the Monte Carlo estimates --------------------------------------------------

M1 = make_m1(BOX1, sigma_scale=0.4, init=[[0.5]])
RATE_GRID = TimeGrid(0.25, 8)
TARGET = MeasureSummary.dirac([0.65])


def _both(monkeypatch, run):
    """run() batched, then with the replicas looped one at a time."""
    batched = run()
    with monkeypatch.context() as mp:
        mp.setattr(ldp_mod, "_replica_flows", _looped_flows)
        looped = run()
    return batched, looped


def test_laplace_equals_loop(monkeypatch):
    model = make_m3(BALL2, alpha=2.0)
    f = terminal_mean_functional(scale=2.0, coord=1)
    batched, looped = _both(monkeypatch, lambda: laplace_functional_mc(
        model, f, 6, GRID, 9, seed=4))
    assert batched == looped


@pytest.mark.parametrize("policy_name", POLICIES)
def test_variational_equals_loop(monkeypatch, policy_name):
    model = make_m2(BALL2, theta=0.7)
    policy = _policy(policy_name, model, GRID, 6)
    f = terminal_mean_functional(scale=1.0)
    batched, looped = _both(monkeypatch, lambda: variational_objective(
        model, f, policy, 6, GRID, 5, seed=8))
    assert batched == looped


# a small reference flow keeps the integrated mode's 1D LPs small
REF_FLOW = solve_mckean_vlasov_reference(M1, RATE_GRID, n_ref=8, seed=1)


@pytest.mark.parametrize("family, target, mode", [
    (constant_family(1, bound=2.0), TARGET, "terminal"),
    (feedback_family(1, 1, bound=2.0), TARGET, "terminal"),
    (constant_family(1, bound=2.0), REF_FLOW, "integrated"),
], ids=["constant", "feedback", "constant-integrated"])
def test_rate_equals_loop(monkeypatch, family, target, mode):
    batched, looped = _both(monkeypatch, lambda: estimate_rate(
        M1, target, [1.0, 8.0], family, 4, RATE_GRID, 3, family.dim + 4,
        seed=6, radius=0.2, distance_mode=mode))
    assert batched == looped


@pytest.mark.parametrize("mode, per_replica", [
    ("terminal", 1), ("integrated", RATE_GRID.n_steps + 1)])
def test_replica_nodes_built_only_when_read(monkeypatch, mode, per_replica):
    """A functional of the terminal measure builds one node measure per
    replica and evaluation, an integrated one every node of it."""
    built = []
    replica = MeasureSummary.replica

    def counting(self, j):
        built.append(j)
        return replica(self, j)

    monkeypatch.setattr(MeasureSummary, "replica", counting)
    f = distance_to_target_functional(REF_FLOW, scale=1.0, mode=mode)
    n_replicas = 5
    variational_objective(M1, f, ConstantPolicy([0.3]), 4, RATE_GRID,
                          n_replicas, seed=1)
    assert len(built) == n_replicas * per_replica
    assert sorted(set(built)) == list(range(n_replicas))


def _count_simulations(mp):
    calls = []
    simulate = ldp_mod.simulate_particle_system

    def counting(*args, **kwargs):
        calls.append(kwargs.get("replica"))
        return simulate(*args, **kwargs)

    mp.setattr(ldp_mod, "simulate_particle_system", counting)
    return calls


def test_variational_makes_one_simulation(monkeypatch):
    f = terminal_mean_functional(scale=1.0)
    calls = _count_simulations(monkeypatch)
    variational_objective(M1, f, ConstantPolicy([0.3]), 4, RATE_GRID, 8,
                          seed=1)
    assert calls == [range(8)]


def test_rate_makes_budget_plus_one_simulations_per_lambda(monkeypatch):
    budget, lambdas = 12, [1.0, 8.0]
    calls = _count_simulations(monkeypatch)
    with monkeypatch.context() as mp:
        evals = []
        optimize = ldp_mod.optimize_controls
        mp.setattr(ldp_mod, "optimize_controls",
                   lambda *a, **k: evals.append(optimize(*a, **k)) or evals[-1])
        estimate_rate(M1, TARGET, lambdas, constant_family(1, bound=2.0), 4,
                      RATE_GRID, 8, budget, seed=6, radius=0.2)
    assert [res.n_evaluations for res in evals] == [budget] * len(lambdas)
    assert len(calls) == len(lambdas) * (budget + 1)
    assert set(calls) == {range(8)}


def test_tiny_batch_cap_steps_one_replica_per_call(monkeypatch):
    f = terminal_mean_functional(scale=1.0)
    monkeypatch.setattr(ldp_mod, "_BATCH_BYTES", 1)
    calls = _count_simulations(monkeypatch)
    variational_objective(M1, f, ConstantPolicy([0.3]), 4, RATE_GRID, 5,
                          seed=1)
    assert calls == [range(m, m + 1) for m in range(5)]


RUN_CONFIGS = {
    "laplace": {"functional": {"functional": "terminal_mean", "scale": 2.0},
                "n_particles": 4, "n_replicas": 6},
    "rate": {"target": {"kind": "terminal_point", "point": [0.65]},
             "family": {"family": "constant", "bound": 2.0},
             "lambdas": [1.0, 8.0], "n_particles": 4, "n_replicas": 5,
             "opt_budget": 8, "radius": 0.2},
}


@pytest.mark.parametrize("kind", sorted(RUN_CONFIGS))
def test_result_independent_of_batch_cap(tmp_path, monkeypatch, kind):
    cfg = {"schema_version": 1, "seed": 11,
           "model": {"model": "m1", "domain": {"kind": "box", "lo": [0.0],
                                               "hi": [1.0]},
                     "sigma_scale": 0.4, "init": [[0.5]], "horizon": 0.25},
           "grid": {"horizon": 0.25, "n_steps": 8},
           "run": RUN_CONFIGS[kind]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    results = []
    for cap in (1, 64 * 2**20):
        monkeypatch.setattr(ldp_mod, "_BATCH_BYTES", cap)
        out = tmp_path / f"out{cap}"
        assert cli.main([kind, "--config", str(path), "--out", str(out)]) == 0
        results.append((out / "result.json").read_bytes())
    assert results[0] == results[1]
