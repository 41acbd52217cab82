import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rldp
import rldp.diagnostics as diagnostics_mod
from rldp.cli import canonical_json
from rldp.controls import ConstantPolicy
from rldp.diagnostics import (boundary_condition_check,
                              calibrate_bias_allowance, generator_apply,
                              mf_process, psi_weights,
                              standard_test_functions, submartingale_test)
from rldp.ensemble import marginal_flow, simulate_particle_system
from rldp.errors import BudgetError, InputError, PreconditionError
from rldp import rng as rngmod
from rldp.geometry import BOUNDARY_TOL, ConvexDomain
from rldp.integrator import TimeGrid
from rldp.model import (MeasureSummary, ModelSpec, coefficients_batch,
                        make_drifted, make_m1, make_m2, make_m3)

BOX1 = ConvexDomain.box([0.0], [1.0])
BOX2 = ConvexDomain.box([0.0, 0.0], [1.0, 1.0])
BALL2 = ConvexDomain.ball([0.0, 0.0], 1.0)
BALL3 = ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)


class TestBoundaryCondition:
    def test_radial_quadratic_passes_on_ball(self):
        f = standard_test_functions(2, 2)["neg_x_sq"]
        check = boundary_condition_check(f, BALL2)
        assert check.passed

    def test_noise_only_function_passes(self):
        f = standard_test_functions(2, 2)["linear_z1"]
        check = boundary_condition_check(f, BOX2)
        assert check.passed
        assert check.worst_value <= 1e-12

    def test_linear_x_fails_on_upper_face(self):
        f = standard_test_functions(2, 2)["linear_x1"]
        check = boundary_condition_check(f, BOX2)
        assert not check.passed
        assert check.worst_value == pytest.approx(1.0, abs=1e-6)

    def test_nan_gradient_fails(self):
        f = dataclasses.replace(
            standard_test_functions(2, 2)["constant"], id="nan_grad",
            grad_x=lambda t, x, z: np.full(np.shape(x), np.nan))
        check = boundary_condition_check(f, BALL2)
        assert not check.passed
        assert math.isnan(check.worst_value)

    @pytest.mark.parametrize("domain", [BALL2, BALL3, BOX2],
                             ids=["ball2", "ball3", "box2"])
    def test_matches_one_normal_at_a_time_reference(self, domain):
        """Equal on the check's one draw of boundary points (seed 0).  (At
        some other seeds a 3D normal differs by an ulp, as
        ``np.linalg.norm`` of one vector and the row norm of ``normals_at``
        can.)"""
        d = domain.dimension
        for f in standard_test_functions(d, d).values():
            for horizon in (0.5, 1.0):
                check = boundary_condition_check(f, domain, horizon=horizon)
                ref = _boundary_check_reference(f, domain, horizon)
                assert (check.passed, check.worst_value) == ref, f.id


def _outward_normal_reference(domain, x):
    """One boundary point's normal by the face test at the membership
    tolerance and ``np.linalg.norm``, one point at a time."""
    if domain.kind == "ball":
        delta = x - domain.center
        return delta / np.linalg.norm(delta)
    n = np.zeros_like(x)
    n -= (x <= domain.lo + BOUNDARY_TOL).astype(float)
    n += (x >= domain.hi - BOUNDARY_TOL).astype(float)
    return n / np.linalg.norm(n)


def _boundary_check_reference(f, domain, horizon):
    """(passed, worst value) of the boundary check as a loop that keeps a
    value only when it exceeds the worst so far."""
    n_samples = diagnostics_mod._BOUNDARY_SAMPLES
    gen = rngmod.substream(0, rngmod.SAMPLER, 1)
    xs = domain.sample_boundary(gen, n_samples)
    zs = gen.standard_normal((n_samples, f.d1)) * diagnostics_mod._BOUNDARY_Z_SCALE
    ts = gen.uniform(0.0, horizon, size=n_samples)
    worst = -np.inf
    for t, x, z in zip(ts, xs, zs):
        val = float(f.grad_x(t, x[None, :], z[None, :])[0]
                    @ _outward_normal_reference(domain, x))
        if val > worst:
            worst = val
    return worst <= diagnostics_mod._BOUNDARY_TOL, worst


class TestGenerator:
    def _mu(self):
        return MeasureSummary.dirac([0.5])

    def test_linear_x_zero_drift(self):
        m = make_m1(BOX1)
        f = standard_test_functions(1, 1)["linear_x1"]
        val = generator_apply(m, f, 0.0, [0.5], [0.0], [0.0], self._mu())
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_diffusion_term(self):
        # f = -x^2 gives diffusion term 0.5 * 1 * (-2) = -1 at sigma = 1
        m = make_m1(BOX1)
        f = standard_test_functions(1, 1)["neg_x_sq"]
        val = generator_apply(m, f, 0.0, [0.2], [0.0], [0.0], self._mu())
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_cross_term(self):
        # f = x1 z1, sigma = 1, b = 0, y = 2: 2 z1 + 1
        m = make_m1(BOX1)
        f = standard_test_functions(1, 1)["x1_z1"]
        z = 0.7
        val = generator_apply(m, f, 0.0, [0.5], [2.0], [z], self._mu())
        assert val == pytest.approx(2 * z + 1.0, abs=1e-12)

    def test_matches_finite_differences(self):
        m = make_m1(BOX1, sigma_scale=0.8)
        mu = self._mu()
        rng = np.random.default_rng(0)
        eps = 1e-5
        for fid, f in standard_test_functions(1, 1).items():
            for _ in range(20):
                t = rng.uniform(0, 1)
                x = rng.uniform(0.1, 0.9, 1)
                y = rng.uniform(-1, 1, 1)
                z = rng.normal(0, 1, 1)
                got = generator_apply(m, f, t, x, y, z, mu)
                fd = _fd_generator(m, f, t, x, y, z, mu, eps)
                assert got == pytest.approx(fd, abs=1e-6, rel=1e-4), fid


def _fd_generator(model, f, t, x, y, z, mu, eps):
    """Finite-difference application of the generator using only f values."""
    from rldp.model import eval_coefficients
    b, sig = eval_coefficients(model, t, x, mu)
    d, d1 = len(x), len(z)

    def fv(xx, zz):
        return float(f.f(t, np.asarray(xx)[None, :], np.asarray(zz)[None, :])[0])

    grad_x = np.array([(fv(x + eps * _e(d, i), z) - fv(x - eps * _e(d, i), z))
                       / (2 * eps) for i in range(d)])
    hess_xx = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            hess_xx[i, j] = (fv(x + eps * (_e(d, i) + _e(d, j)), z)
                             - fv(x + eps * (_e(d, i) - _e(d, j)), z)
                             - fv(x - eps * (_e(d, i) - _e(d, j)), z)
                             + fv(x - eps * (_e(d, i) + _e(d, j)), z)) / (4 * eps ** 2)
    hess_xz = np.empty((d, d1))
    for i in range(d):
        for j in range(d1):
            hess_xz[i, j] = (fv(x + eps * _e(d, i), z + eps * _e(d1, j))
                             - fv(x + eps * _e(d, i), z - eps * _e(d1, j))
                             - fv(x - eps * _e(d, i), z + eps * _e(d1, j))
                             + fv(x - eps * _e(d, i), z - eps * _e(d1, j))) / (4 * eps ** 2)
    hess_zz = np.empty((d1, d1))
    for i in range(d1):
        for j in range(d1):
            hess_zz[i, j] = (fv(x, z + eps * (_e(d1, i) + _e(d1, j)))
                             - fv(x, z + eps * (_e(d1, i) - _e(d1, j)))
                             - fv(x, z - eps * (_e(d1, i) - _e(d1, j)))
                             + fv(x, z - eps * (_e(d1, i) + _e(d1, j)))) / (4 * eps ** 2)
    a = sig @ sig.T
    return (float((b + sig @ y) @ grad_x) + 0.5 * float(np.sum(a * hess_xx))
            + float(np.sum(sig * hess_xz)) + 0.5 * float(np.trace(hess_zz)))


def _e(d, i):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestMfProcess:
    def _setup(self, n_particles=4, n_steps=16):
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.5, n_steps)
        return m, simulate_particle_system(m, n_particles, grid, seed=3)

    def test_constant_function_identically_zero(self):
        m, ens = self._setup()
        f = standard_test_functions(1, 1)["constant"]
        assert np.allclose(mf_process(f, ens, m), 0.0)

    def test_time_function_identically_zero(self):
        m, ens = self._setup()
        f = standard_test_functions(1, 1)["time"]
        assert np.allclose(mf_process(f, ens, m), 0.0, atol=1e-12)

    def test_batch_rejected(self):
        # M_f and the test take the ensemble of one replica, not a batch
        m = make_m1(BOX1, sigma_scale=0.5)
        ens = simulate_particle_system(m, 4, TimeGrid(0.5, 16), seed=3,
                                       replica=range(2))
        f = standard_test_functions(1, 1)["neg_x_sq"]
        with pytest.raises(InputError, match="not a batch"):
            mf_process(f, ens, m)
        with pytest.raises(InputError, match="not a batch"):
            mf_process(f, ens, m, [16])
        with pytest.raises(InputError, match="not a batch"):
            submartingale_test(ens, f, m, [(0.0, 0.5)])

    @pytest.mark.parametrize("nodes", [[17], [-1], [0, 17], [True], [1.0],
                                       [np.float64(2.0)], ["1"], [None]],
                             ids=["past-n", "negative", "second-past-n",
                                  "bool", "float", "numpy-float", "str",
                                  "none"])
    def test_bad_nodes_rejected(self, nodes):
        m, ens = self._setup()
        f = standard_test_functions(1, 1)["neg_x_sq"]
        with pytest.raises(InputError, match="nodes"):
            mf_process(f, ens, m, nodes)

    def test_noise_coordinate_is_discrete_martingale(self):
        # f = z1: M_f(t) = w1(t) exactly, and E[w1(T)] = 0
        m, ens = self._setup(n_particles=1000)
        f = standard_test_functions(1, 1)["linear_z1"]
        mf = mf_process(f, ens, m)
        assert np.allclose(mf, stored_noise_path(ens)[:, :, 0], atol=1e-12)
        terminal = mf[-1]
        se = terminal.std(ddof=1) / np.sqrt(len(terminal))
        assert abs(terminal.mean()) <= 3 * se


class TestSubmartingaleTest:
    def test_constant_function_passes_exactly(self):
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.5, 16)
        ens = simulate_particle_system(m, 64, grid, seed=0)
        f = standard_test_functions(1, 1)["constant"]
        rep = submartingale_test(ens, f, m, [(0.0, 0.25), (0.25, 0.5)])
        assert rep.passed
        assert all(e.statistic == 0.0 for e in rep.entries)

    def test_violating_function_rejected_without_hook(self):
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.5, 16)
        ens = simulate_particle_system(m, 16, grid, seed=0)
        f = standard_test_functions(1, 1)["linear_x1"]
        with pytest.raises(PreconditionError):
            submartingale_test(ens, f, m, [(0.0, 0.5)])

    def test_compliant_function_passes(self):
        m = make_m1(BOX1, sigma_scale=1.0)
        grid = TimeGrid(0.25, 64)
        ens = simulate_particle_system(m, 512, grid, seed=1)
        f = standard_test_functions(1, 1)["neg_x_sq"]
        c_bias = calibrate_bias_allowance(m, f, grid, n_paths=256, seed=2)
        rep = submartingale_test(ens, f, m, [(0.0, 0.25)], c_bias=c_bias)
        assert rep.passed

    def test_designed_violation_detected(self):
        # f = +x1 pushed onto the face x1 = 1 by a strong drift: the
        # reflection term makes M_f drift downward
        m = make_drifted(BOX1, b_const=2.0, sigma_scale=0.5,
                         init=[[0.9]])
        grid = TimeGrid(0.5, 64)
        ens = simulate_particle_system(m, 512, grid, seed=5)
        f = standard_test_functions(1, 1)["linear_x1"]
        rep = submartingale_test(ens, f, m, [(0.0, 0.5)],
                                 skip_boundary_check=True)
        assert not rep.passed
        assert min(e.statistic for e in rep.entries) < 0

    def test_verdict_reads_the_confidence(self):
        # f = z1 makes M_f = w1 exactly, a martingale.  At seed 1 some
        # weighted mean is negative, so the test rejects at confidence 0.5
        # (z = 0), but lies within its 0.999 lower bound.
        m = make_m1(BOX1)
        ens = simulate_particle_system(m, 256, TimeGrid(0.5, 16), seed=1)
        f = standard_test_functions(1, 1)["linear_z1"]
        reps = [submartingale_test(ens, f, m, [(0.0, 0.5)], confidence=c)
                for c in (0.5, 0.95, 0.999)]
        assert not reps[0].passed and reps[-1].passed
        for rep in reps:
            assert all(e.passed == (e.statistic >= e.threshold)
                       for e in rep.entries)

    def test_report_serializable(self):
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.5, 8)
        ens = simulate_particle_system(m, 16, grid, seed=0)
        f = standard_test_functions(1, 1)["constant"]
        rep = submartingale_test(ens, f, m, [(0.0, 0.5)])
        d = json.loads(canonical_json(dataclasses.asdict(rep)))
        assert d["passed"] is True
        assert isinstance(d["entries"], list)


def reference_generator_batch(model, f, t, x, y, z, nu_t):
    """Reference for ``_generator_batch``: sigma sigma^T formed per point."""
    b, sig = coefficients_batch(model, t, x, nu_t)
    gx = f.grad_x(t, x, z)
    hxx = f.hess_xx(t, x, z)
    hxz = f.hess_xz(t, x, z)
    hzz = f.hess_zz(t, x, z)
    drift_term = np.einsum("...i,...i->...", b + np.einsum("...ij,...j->...i", sig, y), gx)
    a = np.einsum("...ik,...jk->...ij", sig, sig)  # sigma sigma^T
    diff_term = 0.5 * np.einsum("...ij,...ij->...", a, hxx)
    cross_term = np.einsum("...ij,...ij->...", sig, hxz)
    noise_term = 0.5 * np.einsum("...ii->...", hzz)
    return drift_term + diff_term + cross_term + noise_term


def stored_noise_path(ens):
    """The cumulative noise w(t_k) of every path stored whole, (n+1, N, d1):
    a zero row, then ``np.cumsum`` of the increments along time."""
    return np.concatenate([np.zeros((1, *ens.noises.shape[1:])),
                           np.cumsum(ens.noises, axis=0)])


def reference_mf_process(f, states, controls, noise_path, nu_flow, model,
                         grid):
    """Reference for batched ``mf_process``: f values and integrand stored
    as (n+1, N) and (n, N) arrays, the integral taken by ``np.cumsum``."""
    n = grid.n_steps
    f_vals = np.empty((n + 1, states.shape[1]))
    integrand = np.empty((n, states.shape[1]))
    for k in range(n + 1):
        t = grid.nodes[k]
        f_vals[k] = f.f(t, states[k], noise_path[k])
        if k < n:
            integrand[k] = (f.f_t(t, states[k], noise_path[k])
                            + reference_generator_batch(
                                model, f, t, states[k], controls[k],
                                noise_path[k], nu_flow[k]))
    m = np.zeros((n + 1, states.shape[1]))
    m[1:] = (f_vals[1:] - f_vals[0]) - np.cumsum(integrand, axis=0) * grid.dt
    return m


def _custom_model(domain, d1, sigma_of_x):
    """Dense sigma with d != d1: constant, or scaled by 1 + x_1 per point."""
    d = domain.dimension
    sig = np.random.default_rng(11).normal(size=(d, d1)) * 0.4

    def diffusion(t, x, mu):
        if not sigma_of_x:
            return sig
        return (1.0 + np.asarray(x)[..., 0, None, None]) * sig

    return ModelSpec(
        name="custom", domain=domain, d1=d1,
        drift=lambda t, x, mu: 0.3 * (mu.mean - np.asarray(x)),
        diffusion=diffusion)


_BITWISE_CASES = [
    (make_m1(BOX2), None), (make_m1(BALL3), None),
    (make_m2(BOX2, theta=0.7), None), (make_m2(BALL3, theta=0.7), None),
    (make_m3(BOX2, alpha=2.0), None), (make_m3(BALL3, alpha=2.0), None),
    (_custom_model(BALL2, 3, sigma_of_x=False), [0.4, -0.7, 0.2]),
    (_custom_model(BOX2, 3, sigma_of_x=True), [0.4, -0.7, 0.2]),
]
_BITWISE_IDS = ["m1-box", "m1-ball", "m2-box", "m2-ball", "m3-box", "m3-ball",
                "dense-sigma-control", "state-sigma-control"]


def _per_point(h):
    """Hessian ``h`` materialised as one fresh array per point of x."""
    def hess(t, x, z):
        m = h(t, x, z)
        return np.array(np.broadcast_to(m, np.shape(x)[:-1] + m.shape[-2:]))
    return hess


class TestMfProcessBitwise:
    """mf_process equals the per-point sigma sigma^T reference bit for bit."""

    def _run(self, model, v):
        grid = TimeGrid(0.5, 12)
        policy = None if v is None else ConstantPolicy(v)
        ens = simulate_particle_system(model, 257, grid, policy=policy, seed=4)
        return grid, ens, marginal_flow(ens)

    @pytest.mark.parametrize("model, v", _BITWISE_CASES, ids=_BITWISE_IDS)
    def test_equals_reference(self, model, v):
        grid, ens, flow = self._run(model, v)
        w = stored_noise_path(ens)
        for fid, f in standard_test_functions(model.d, model.d1).items():
            got = mf_process(f, ens, model)
            ref = reference_mf_process(f, ens.states, ens.controls, w, flow,
                                       model, grid)
            assert np.array_equal(got, ref), fid

    @pytest.mark.parametrize("nodes", [[0], [12], [9, 3, 12, 0],
                                       [5, 5, 2, 5], np.array([12, 1])],
                             ids=["first", "last", "unsorted", "repeated",
                                  "numpy"])
    @pytest.mark.parametrize("model, v", _BITWISE_CASES, ids=_BITWISE_IDS)
    def test_nodes_are_rows_of_the_full_series(self, model, v, nodes):
        """Each row asked for is bitwise the full series' row at its node,
        in the order asked, repeats included."""
        _, ens, _ = self._run(model, v)
        for fid, f in standard_test_functions(model.d, model.d1).items():
            got = mf_process(f, ens, model, nodes)
            full = mf_process(f, ens, model)
            assert got.shape == (len(nodes), ens.n_particles), fid
            assert got.tobytes() == full[list(nodes)].tobytes(), fid

    @pytest.mark.parametrize("model, v", _BITWISE_CASES, ids=_BITWISE_IDS)
    def test_hessian_views_equal_copies(self, model, v):
        """Each read-only constant Hessian gives the bits of one fresh array
        per particle, signed zeros included."""
        _, ens, _ = self._run(model, v)
        for fid, f in standard_test_functions(model.d, model.d1).items():
            copying = dataclasses.replace(f, **{
                name: _per_point(getattr(f, name))
                for name in ("hess_xx", "hess_xz", "hess_zz")})
            got = mf_process(f, ens, model)
            ref = mf_process(copying, ens, model)
            assert got.tobytes() == ref.tobytes(), fid

    def test_constant_hessians_are_read_only_views(self):
        """A constant Hessian is one read-only matrix, the same array for
        any points."""
        x, z = np.zeros((257, 3)), np.zeros((257, 2))
        fs = standard_test_functions(3, 2)
        e1e1 = np.zeros((3, 2))
        e1e1[0, 0] = 1.0
        for h, want in ((fs["neg_x_sq"].hess_xx, -2.0 * np.eye(3)),
                        (fs["neg_x_sq"].hess_xz, np.zeros((3, 2))),
                        (fs["neg_x_sq"].hess_zz, np.zeros((2, 2))),
                        (fs["x1_z1"].hess_xz, e1e1),
                        (fs["neg_z_sq"].hess_zz, -2.0 * np.eye(2))):
            m = h(0.0, x, z)
            assert np.array_equal(m, want) and not m.flags.writeable
            assert h(0.3, x[0], z[0]) is m


class TestSquareFunctions:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_f_equals_sum_of_squares(self, d):
        """neg_x_sq and neg_z_sq give ``-np.sum(v ** 2, axis=-1)`` bit for
        bit: a 0-d value for a single point, one per row of a batch."""
        rng = np.random.default_rng(900 + d)
        fs = standard_test_functions(d, d)
        v = rng.normal(size=(2, 17, d))
        for batch in (v, v[0], v[0, 0]):
            want = -np.sum(batch ** 2, axis=-1)
            for got in (fs["neg_x_sq"].f(0.0, batch, 0.0 * batch),
                        fs["neg_z_sq"].f(0.0, 0.0 * batch, batch)):
                assert np.shape(got) == batch.shape[:-1]
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


_CORE_MODELS = [make_m2(BOX1, theta=0.7), make_m2(BALL3, theta=0.7),
                _custom_model(BOX1, 3, sigma_of_x=True),
                _custom_model(BALL3, 2, sigma_of_x=False)]
_CORE_IDS = ["m2-d1", "m2-d3", "state-sigma-d1", "dense-sigma-d3"]


class TestGeneratorCores:
    @pytest.mark.parametrize("model", _CORE_MODELS, ids=_CORE_IDS)
    def test_broadcast_hessians_equal_materialised(self, model):
        """A particle-invariant Hessian, as its one matrix, gives the bits
        of the same Hessian materialised per particle, with and without a
        control."""
        rng = np.random.default_rng(10 * model.d + model.d1)
        x = model.domain.sample_interior(rng, 65)
        z = rng.normal(size=(65, model.d1))
        nu = MeasureSummary.from_points(x)
        names = ("hess_xx", "hess_xz", "hess_zz")
        generator = diagnostics_mod._generator_batch
        for y in (None, rng.normal(size=(65, model.d1))):
            for fid, f in standard_test_functions(model.d, model.d1).items():
                dense = dataclasses.replace(f, **{
                    name: _per_point(getattr(f, name)) for name in names})
                got = generator(model, f, 0.1, x, y, z, nu)
                ref = generator(model, dense, 0.1, x, y, z, nu)
                assert got.shape == (65,), fid
                assert got.tobytes() == ref.tobytes(), fid
        f = standard_test_functions(model.d, model.d1)["neg_x_sq"]
        assert all(getattr(f, name)(0.1, x, z).ndim == 2 for name in names)


class TestSubmartingaleInputs:
    def _ens(self, n_particles=16):
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.5, 8)
        return m, simulate_particle_system(m, n_particles, grid, seed=0)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, np.nan])
    def test_confidence_outside_unit_interval(self, confidence):
        m, ens = self._ens()
        f = standard_test_functions(1, 1)["constant"]
        with pytest.raises(InputError, match="confidence"):
            submartingale_test(ens, f, m, [(0.0, 0.5)], confidence=confidence)

    def test_fewer_than_two_paths(self):
        m, ens = self._ens(1)
        f = standard_test_functions(1, 1)["constant"]
        with pytest.raises(InputError, match="two paths"):
            submartingale_test(ens, f, m, [(0.0, 0.5)])

    def test_two_paths_suffice(self):
        m, ens = self._ens(2)
        f = standard_test_functions(1, 1)["constant"]
        rep = submartingale_test(ens, f, m, [(0.0, 0.5)])
        assert rep.passed


def reference_report_entries(ens, flow, f, model, time_pairs,
                             confidence=0.95):
    """The test's entries from a stored noise path: the reference M_f over
    ``stored_noise_path`` and the psi weights on its row at t0."""
    from scipy.special import ndtri
    states, w = ens.states, stored_noise_path(ens)
    m = reference_mf_process(f, states, ens.controls, w, flow, model,
                             ens.grid)
    z = float(ndtri(confidence))
    entries = []
    for t0, t1 in time_pairs:
        k0, k1 = ens.grid.node_index(t0), ens.grid.node_index(t1)
        for psi_id, psi in psi_weights(model.domain).items():
            vals = psi(states[k0], w[k0]) * (m[k1] - m[k0])
            stat = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(ens.n_particles))
            entries.append((float(t0), float(t1), psi_id, stat, se,
                            stat - z * se, -(z * se)))
    return entries


class TestStreamedNoise:
    """The submartingale test streams the cumulative noise into M_f."""

    PAIRS = [(0.0, 0.25), (0.25, 0.5), (0.125, 0.5)]

    @pytest.mark.parametrize("n_particles", [64, 23])
    @pytest.mark.parametrize("v", [None, [0.5, -0.3, 0.2]],
                             ids=["zero", "constant"])
    def test_report_equals_stored_path_reference(self, n_particles, v):
        model = make_m2(BALL3, theta=0.7, sigma_scale=0.8)
        grid = TimeGrid(0.5, 16)
        policy = None if v is None else ConstantPolicy(v)
        ens = simulate_particle_system(model, n_particles, grid, policy,
                                       seed=6)
        flow = marginal_flow(ens)
        for fid, f in standard_test_functions(3, 3).items():
            rep = submartingale_test(ens, f, model, self.PAIRS,
                                     skip_boundary_check=True)
            got = [(e.t0, e.t1, e.psi, e.statistic, e.std_error,
                    e.lower_bound, e.threshold) for e in rep.entries]
            assert got == reference_report_entries(
                ens, flow, f, model, self.PAIRS), fid

    def test_calibration_equals_stored_path_reference(self):
        model = make_m2(BALL2, theta=0.7, sigma_scale=0.8)
        f = standard_test_functions(2, 2)["neg_x_sq"]
        base = TimeGrid(0.25, 16)
        xs, ys = [], []
        for factor in (4, 2, 1):
            grid = TimeGrid(0.25, 16 // factor)
            ens = simulate_particle_system(model, 48, grid, seed=3)
            m = reference_mf_process(f, ens.states, ens.controls,
                                     stored_noise_path(ens),
                                     marginal_flow(ens), model, grid)
            xs.append(grid.dt)
            ys.append(abs(float(np.mean(m[-1]))))
        x, y = np.asarray(xs), np.asarray(ys)
        assert calibrate_bias_allowance(model, f, base, n_paths=48,
                                        seed=3) == float((x @ y) / (x @ x))

    def test_calibration_simulates_under_the_given_budget(self, monkeypatch):
        """Each of the three simulations (at most 64 x 16 x 1 = 1,024
        particle-steps) runs under ``budget``, not the default."""
        model = make_m1(BOX1, sigma_scale=0.5)
        f = standard_test_functions(1, 1)["neg_x_sq"]
        base = TimeGrid(0.5, 16)
        want = calibrate_bias_allowance(model, f, base, n_paths=64, seed=1)
        monkeypatch.setattr("rldp.ensemble.DEFAULT_STEP_BUDGET", 1000)
        with pytest.raises(BudgetError, match="budget 1000"):
            calibrate_bias_allowance(model, f, base, n_paths=64, seed=1)
        assert calibrate_bias_allowance(model, f, base, n_paths=64, seed=1,
                                        budget=10**9) == want

    @pytest.mark.parametrize("pairs", [[(0.0, 0.25), (0.25, 0.25)],
                                       [(0.5, 0.25)], [(0.0, 0.3)], []],
                             ids=["equal", "reversed", "off-grid", "empty"])
    def test_bad_time_pair_raises_before_mf(self, monkeypatch, pairs):
        m = make_m1(BOX1, sigma_scale=0.5)
        ens = simulate_particle_system(m, 8, TimeGrid(0.5, 8), seed=0)
        calls = []
        real = diagnostics_mod.mf_process

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics_mod, "mf_process", spy)
        f = standard_test_functions(1, 1)["constant"]
        with pytest.raises(InputError):
            submartingale_test(ens, f, m, pairs)
        assert calls == []
        submartingale_test(ens, f, m, [(0.0, 0.25)])
        assert calls == [1]

    def test_peak_memory_holds_no_dense_path_arrays(self):
        """Only states, noise and controls are O(n N) at the peak: a dense
        reflection or a stored noise path would exceed the slack.  The test
        itself adds less than half of a whole (n+1, N) M_f series, as it
        keeps M_f only at its pair nodes; on this long grid the per-node
        O(N d) temporaries are small beside that series."""
        model = make_m2(BALL3, sigma_scale=0.5)
        grid = TimeGrid(0.25, 256)
        n_particles = 2048
        f = standard_test_functions(3, 3)["neg_x_sq"]
        tracemalloc.start()
        try:
            ens = simulate_particle_system(model, n_particles, grid, seed=0)
            _, sim_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            submartingale_test(ens, f, model, [(0.0, 0.125), (0.125, 0.25)])
            _, test_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m_f = (grid.n_steps + 1) * n_particles * 8
        held = ens.states.nbytes + ens.noises.nbytes + ens.controls.nbytes
        assert sim_peak <= 1.1 * held
        assert test_peak - base < 0.5 * m_f


def _port_ndtri(p):
    return np.array([diagnostics_mod._ndtri(float(y)) for y in p])


class TestNormalQuantile:
    """The test's quantile is a port of Cephes ``ndtri``, bit for bit
    ``scipy.special.ndtri`` and ``scipy.stats.norm.ppf``, so no scipy loads."""

    CONFIDENCES = [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999]

    def test_ndtri_equals_norm_ppf_bitwise(self):
        from scipy import stats
        grid = np.concatenate([np.linspace(1e-9, 1.0 - 1e-9, 100_001),
                               self.CONFIDENCES])
        assert _port_ndtri(grid).tobytes() == stats.norm.ppf(grid).tobytes()
        assert diagnostics_mod._ndtri(0.95) == float(stats.norm.ppf(0.95))

    def test_port_equals_scipy_ndtri_bitwise(self):
        """Both tails down to 1e-300 and 1 - 1e-16, the central range, the
        edges of the three branches (e^-2, 1 - e^-2 and e^-32), a few ulps
        either side, and 0 and 1 (-inf, inf)."""
        from scipy.special import ndtri
        rng = np.random.default_rng(36)
        edges = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0),
                          math.exp(-32.0)])
        ulps = np.arange(-50, 51)
        grid = np.concatenate([
            rng.uniform(0.0, 1.0, 60_000),
            10.0 ** rng.uniform(-300.0, 0.0, 20_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000),
            (edges[:, None] + ulps * np.spacing(edges)[:, None]).ravel(),
            [0.0, 5e-324, 1.0 - 2.0**-53, 1.0], self.CONFIDENCES])
        got = _port_ndtri(grid)
        assert grid.size > 100_000
        assert got.tobytes() == ndtri(grid).tobytes()
        assert (got[-11], got[-8]) == (-math.inf, math.inf)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        """Nor any scipy module at all: only a run that can solve the exact
        1D BL linear program loads scipy, in ``load_config``."""
        src = str(Path(rldp.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, rldp.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
