"""The stepping core keeps only its boundary events; the dense reflection,
local time and hits rebuilt from them equal the dense accumulation loop the
core used to run, byte for byte."""

import numpy as np
import pytest

import rldp.ensemble as ensemble_mod
import rldp.integrator as integrator_mod
from rldp.controls import ConstantPolicy, PiecewiseConstantPolicy
from rldp.ensemble import simulate_particle_system
from rldp.geometry import ConvexDomain
from rldp.integrator import (TimeGrid, _advance, _step,
                             simulate_reflected_path)
from rldp.model import MeasureSummary, coefficients_batch, make_m1, make_m2

BOX1 = ConvexDomain.box([0.0], [1.0])
BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)
BALL3 = ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)
DOMAINS = {"box1d": BOX1, "ball2d": BALL2, "ball3d": BALL3}
GRID = TimeGrid(1.0, 12)
N = 40
DENSE = ("reflection", "local_time", "boundary_hits")


def dense_advance(model, grid, states0, noises, policy, mu_flow=None):
    """The dense accumulation loop: reflection, local time and hits filled
    at every particle-step by a running ``np.add``, with |y - p| and the
    hit taken from the overshoot by ``np.linalg.norm``."""
    n, lead = grid.n_steps, states0.shape[:-1]
    states = np.empty((n + 1, *lead, model.d))
    reflection = np.zeros((n + 1, *lead, model.d))
    local_time = np.zeros((n + 1, *lead))
    hits = np.zeros((n, *lead), dtype=bool)
    controlled = policy is not None and not policy.is_zero()
    states[0] = states0
    x = states[0]
    for k in range(n):
        t = grid.nodes[k]
        mu = (MeasureSummary.from_points(states[k]) if mu_flow is None
              else mu_flow[k])
        b, sig = coefficients_batch(model, t, x, mu)
        control = (np.einsum("...ij,...j->...i", sig, policy.evaluate(t, x, mu))
                   if controlled else None)
        overshoot = _step(
            model.domain, x, b, control,
            np.einsum("...ij,...j->...i", sig, noises[k]), grid.dt,
            states[k + 1])
        disp = np.linalg.norm(overshoot, axis=-1)
        hits[k] = disp > 0.0
        np.add(reflection[k], overshoot, out=reflection[k + 1])
        np.add(local_time[k], disp, out=local_time[k + 1])
        x = states[k + 1]
    return {"states": states, "reflection": reflection,
            "local_time": local_time, "boundary_hits": hits}


def _policy(name, model):
    if name == "zero":
        return None
    if name == "constant":
        return ConstantPolicy(np.linspace(-2.0, 2.5, model.d1))
    values = np.random.default_rng(5).uniform(-3, 3, (GRID.n_steps, N,
                                                      model.d1))
    return PiecewiseConstantPolicy(values, GRID)


def _assert_bytes(got, ref, name):
    got = np.asarray(got)
    assert got.shape == ref.shape and got.dtype == ref.dtype, name
    assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("policy_name", ["zero", "constant", "particle"])
@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("replica", [2, range(3)], ids=["int", "range3"])
@pytest.mark.parametrize("scan_steps", [None, 1, 5],
                         ids=["scan-default", "scan-1", "scan-5"])
def test_events_rebuild_the_dense_loop(monkeypatch, domain_name, policy_name,
                                       replica, scan_steps):
    # sigma 1.5 on a unit domain: a good share of particle-steps hit
    model = make_m2(DOMAINS[domain_name], theta=0.7, sigma_scale=1.5)
    policy = _policy(policy_name, model)
    if scan_steps is not None:  # 5 does not divide the 12 steps
        m = N * (len(replica) if isinstance(replica, range) else 1)
        monkeypatch.setattr(integrator_mod, "_EVENT_SCAN_BYTES",
                            scan_steps * 8 * m * model.d)
    ens = simulate_particle_system(model, N, GRID, policy, seed=9,
                                   replica=replica)
    states0, noises = ensemble_mod._replica_draws(model, GRID, N, 9, replica)
    ref = dense_advance(model, GRID, states0, noises, policy)
    assert 0 < ref["boundary_hits"].sum() < ref["boundary_hits"].size
    assert len(ens.events.index) < ref["boundary_hits"].size
    for name, want in ref.items():
        _assert_bytes(getattr(ens, name), want, name)


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_reflected_path_equals_dense_loop(domain_name):
    model = make_m2(DOMAINS[domain_name], theta=0.7, sigma_scale=1.5)
    flow = simulate_particle_system(model, 16, GRID, seed=1).summaries
    gen = np.random.default_rng(2)
    noise = gen.standard_normal((GRID.n_steps, model.d1)) * 0.4
    x0 = np.full(model.d, 0.3)
    path = simulate_reflected_path(model, GRID, flow, noise, x0)
    ref = dense_advance(model, GRID, x0[None, :], noise[:, None, :], None,
                        flow)
    assert ref["boundary_hits"].any()
    for name, want in ref.items():
        _assert_bytes(getattr(path, name), want[:, 0], name)


def test_underflowing_overshoot_is_kept():
    """A step to lo - 1e-170 is no hit (its norm underflows to 0), yet its
    overshoot is part of the reflection."""
    model = make_m1(BOX1, sigma_scale=1.0, init=[[0.0]])
    grid = TimeGrid(1.0, 2)
    noise = np.array([[-1e-170], [0.0]])
    flow = (MeasureSummary.dirac([0.0]),) * 3
    states, events, *_ = _advance(model, grid, np.zeros((1, 1)),
                                  noise[:, None, :], None, flow)
    assert events.index.tolist() == [0]
    assert events.overshoot.tolist() == [[-1e-170]]
    path = simulate_reflected_path(model, grid, flow, noise, [0.0])
    ref = dense_advance(model, grid, np.zeros((1, 1)), noise[:, None, :],
                        None, flow)
    assert not ref["boundary_hits"].any()
    assert ref["reflection"][-1, 0, 0] == -1e-170
    for name, want in ref.items():
        _assert_bytes(getattr(path, name), want[:, 0], name)


def test_dense_fields_are_built_apart_on_first_read():
    ens = simulate_particle_system(make_m2(BALL2, sigma_scale=1.5), N, GRID,
                                   seed=3)
    assert not set(DENSE) & set(vars(ens))
    local_time = ens.local_time
    assert set(DENSE) & set(vars(ens)) == {"local_time"}
    assert ens.local_time is local_time


def test_off_centre_ball_records_no_interior_events():
    """Events are the particle-steps that leave the ball, wherever it is
    centred: a centre off the origin adds no ulp-sized overshoots of
    interior points (a projection that moved them recorded 21 times the
    events of the centred run)."""
    counts = []
    for centre in ([0.0, 0.0], [0.3, -0.7]):
        model = make_m2(ConvexDomain.ball(centre, 1.0))
        ens = simulate_particle_system(model, 4096, TimeGrid(1.0, 64), seed=1)
        counts.append(len(ens.events.index))
        assert ens.boundary_hits.sum() == counts[-1]
    assert counts[1] <= 1.05 * counts[0]
