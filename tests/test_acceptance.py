"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The pass/fail lines are emitted with capture disabled so they always reach
the terminal. Criteria are property-based: exact identities where the math
is exact, independent oracles elsewhere.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from rldp.cli import main as cli_main
from rldp.controls import ZeroPolicy, constant_family
from rldp.diagnostics import (calibrate_bias_allowance, generator_apply,
                              standard_test_functions, submartingale_test)
from rldp.ensemble import (empirical_measure_at, simulate_particle_system,
                           solve_mckean_vlasov_reference)
from rldp.geometry import BOUNDARY, ConvexDomain, skorokhod_1d
from rldp.integrator import TimeGrid, coarsen_increments, simulate_reflected_path
from rldp.ldp import (achieved_distance, constant_functional,
                      estimate_rate, distance_to_target_functional,
                      laplace_functional_mc, terminal_mean_functional,
                      variational_objective)
from rldp.measures import bl_distance
from rldp.model import (MeasureSummary, make_drifted, make_m1, make_m2,
                        make_m3)
from rldp.rng import NOISE, substream

BOX1 = ConvexDomain.box([0.0], [1.0])


def _announce(num, name, fn, capfd):
    outcome = "FAIL"
    try:
        fn()
        outcome = "PASS"
    finally:
        with capfd.disabled():
            print(f"[criterion {num:02d}] {name}: {outcome}", flush=True)


def test_01_containment_and_local_time_support(capfd):
    def run():
        grid = TimeGrid(1.0, 64)
        ball = ConvexDomain.ball([0.0, 0.0], 1.0)
        models = [
            (make_m1(BOX1, sigma_scale=1.5), 512),
            (make_m2(BOX1, theta=1.0, sigma_scale=0.8), 512),
            (make_m3(BOX1, sigma_scale=0.8, alpha=1.0), 512),
            (make_drifted(ball, b_const=[1.0, 0.5], sigma_scale=1.0), 512),
        ]
        total_steps = 0
        for model, n in models:
            ens = simulate_particle_system(model, n, grid, seed=11)
            total_steps += n * grid.n_steps
            flat = ens.states.reshape(-1, model.d)
            assert model.domain.contains_all(flat).all(), "state escaped"
            # local time increments only where the post-step state is on
            # the boundary (exact assertion, no tolerance on the increment)
            inc = np.diff(ens.local_time, axis=0)
            ks, parts = np.nonzero(inc > 0)
            for k, i in zip(ks, parts):
                assert model.domain.contains(ens.states[k + 1, i]) == BOUNDARY
        assert total_steps >= 100_000

    _announce(1, "containment and local-time support", run, capfd)


def test_02_skorokhod_oracle_monotone_gap(capfd):
    # One Brownian increment stream per path, shared across step sizes; the
    # skorokhod_1d oracle runs at the finest step 2^-8 T and the integrator
    # consumes exact coarsenings of the same increments.
    def run():
        horizon = 1.0
        grid_ns = [64, 128, 256]  # dt in {2^-6, 2^-7, 2^-8} T
        finest = grid_ns[-1]
        model = make_m1(BOX1, sigma_scale=1.0)
        x0 = 0.5
        gaps = {n: [] for n in grid_ns}
        for path_idx in range(32):
            rng = substream(202, NOISE, path_idx, 0)
            dw_fine = rng.standard_normal((finest, 1)) * math.sqrt(
                horizon / finest)
            w_fine = x0 + np.r_[0.0, np.cumsum(dw_fine[:, 0])]
            x_ref, _ = skorokhod_1d(w_fine, 0.0, 1.0)
            for n in grid_ns:
                grid = TimeGrid(horizon, n)
                dw = coarsen_increments(dw_fine, finest // n)
                flow = [MeasureSummary.dirac([x0])] * (n + 1)
                path = simulate_reflected_path(model, grid, flow, dw, [x0])
                stride = finest // n
                gap = np.max(np.abs(path.states[:, 0] - x_ref[::stride]))
                gaps[n].append(gap)
        medians = [float(np.median(gaps[n])) for n in grid_ns]
        assert medians[0] > medians[1] > medians[2], medians
        assert medians[-1] < 0.05, medians

    _announce(2, "1D Skorokhod oracle, monotone gap", run, capfd)


def _bl_lp_oracle(mu, nu):
    pts = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    delta = np.concatenate([mu.weights, -nu.weights])
    m = len(pts)
    rows, rhs = [], []
    for i in range(m):
        for j in range(i + 1, m):
            gap = abs(pts[i] - pts[j])
            row = np.zeros(m)
            row[i], row[j] = 1.0, -1.0
            rows.append(row.copy())
            rhs.append(gap)
            rows.append(-row)
            rhs.append(gap)
    res = linprog(-delta, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=(-1.0, 1.0), method="highs")
    assert res.success
    return min(2.0, max(0.0, -res.fun))


def test_03_two_point_bl_exactness(capfd):
    def run():
        rng = np.random.default_rng(303)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-3, 3, d)
            y = rng.uniform(-3, 3, d)
            got = bl_distance(MeasureSummary.dirac(x),
                              MeasureSummary.dirac(y)).value
            want = min(2.0, float(np.linalg.norm(x - y)))
            assert abs(got - want) <= 1e-10
        for _ in range(100):
            n1, n2 = rng.integers(1, 7, size=2)
            mu = MeasureSummary.from_points(rng.uniform(0, 4, (n1, 1)))
            nu = MeasureSummary.from_points(rng.uniform(0, 4, (n2, 1)))
            assert abs(bl_distance(mu, nu).value
                       - _bl_lp_oracle(mu, nu)) <= 1e-8

    _announce(3, "two-point BL exactness and 1D LP oracle", run, capfd)


def test_04_propagation_of_chaos(capfd):
    def run():
        grid = TimeGrid(0.5, 32)
        for model in (make_m1(BOX1, sigma_scale=0.7, horizon=0.5),
                      make_m2(BOX1, theta=1.0, sigma_scale=0.5,
                              horizon=0.5)):
            ref = solve_mckean_vlasov_reference(model, grid, n_ref=4096,
                                                seed=777)
            medians = []
            for n in (64, 256, 1024):
                dists = []
                for rep in range(16):
                    ens = simulate_particle_system(model, n, grid,
                                                   seed=101, replica=rep)
                    dists.append(bl_distance(
                        empirical_measure_at(ens, 0.5), ref[-1]).value)
                medians.append(float(np.median(dists)))
            assert medians[0] > medians[1] > medians[2], (model.name, medians)

    _announce(4, "propagation of chaos, strictly decreasing medians", run, capfd)


def test_05_constant_functional_exactness(capfd):
    def run():
        model = make_m1(BOX1, sigma_scale=0.5, horizon=0.25)
        grid = TimeGrid(0.25, 16)
        c = 0.42
        lap = laplace_functional_mc(model, constant_functional(c), 8, grid,
                                    32, seed=5)
        assert lap.value == c
        assert lap.std_error == 0.0
        var = variational_objective(model, constant_functional(c),
                                    ZeroPolicy(1), 8, grid, 32, seed=5)
        assert var.objective == c
        assert var.cost_part == 0.0

    _announce(5, "constant-functional exactness", run, capfd)


def test_06_representation_inequality(capfd):
    def run():
        grid = TimeGrid(0.25, 16)
        functional = terminal_mean_functional(scale=0.5)
        fam = constant_family(1, bound=2.0)
        rng = np.random.default_rng(606)
        successes = 0
        total = 0
        for model in (make_m1(BOX1, sigma_scale=0.6, horizon=0.25),
                      make_m2(BOX1, theta=0.8, sigma_scale=0.5,
                              horizon=0.25)):
            lap = laplace_functional_mc(model, functional, 32, grid, 256,
                                        seed=60)
            for _ in range(10):
                policy = fam.make(rng.uniform(-1.5, 1.5, 1))
                var = variational_objective(model, functional, policy, 32,
                                            grid, 256, seed=60)
                tol = 3.0 * math.hypot(lap.std_error, var.std_error)
                successes += lap.value <= var.objective + tol
                total += 1
        assert total == 20
        assert successes >= 19, successes

    _announce(6, "fixed-N representation inequality (>= 19/20)", run, capfd)


def test_07_rate_zero_at_lln_limit(capfd):
    def run():
        model = make_m1(BOX1, sigma_scale=0.4, init=[[0.5]], horizon=0.25)
        grid = TimeGrid(0.25, 16)
        ref = solve_mckean_vlasov_reference(model, grid, n_ref=2048, seed=70)
        fam = constant_family(1, bound=2.0)
        lam = 1.0
        est = estimate_rate(model, ref, [lam], fam, 16, grid, 8, 30,
                            seed=71, radius=0.15)
        assert est.feasible
        # statistical tolerance of the known zero-cost feasible point: the
        # standard error of its penalized objective at the same seeds
        f_lam = distance_to_target_functional(ref, scale=lam)
        zero = variational_objective(model, f_lam, ZeroPolicy(1), 16, grid,
                                     8, seed=71)
        eps_stat = max(zero.std_error, 1e-4)
        assert est.upper_bound <= 2.0 * eps_stat, (est.upper_bound, eps_stat)

    _announce(7, "rate vanishes at the LLN limit", run, capfd)


def test_08_rate_grid_oracle_agreement(capfd):
    def run():
        model = make_m1(BOX1, sigma_scale=0.4, init=[[0.5]], horizon=0.25)
        grid = TimeGrid(0.25, 16)
        target = MeasureSummary.dirac([0.75])
        radius = 0.16
        n, reps, seed = 16, 8, 808
        fam = constant_family(1, bound=3.0)
        est = estimate_rate(model, target, [8.0, 16.0], fam, n, grid, reps,
                            60, seed=seed, radius=radius)
        assert est.feasible
        # brute-force oracle over constant controls on identical seeds
        best = math.inf
        for v in np.arange(-3.0, 3.0 + 1e-9, 0.05):
            policy = fam.make([v])
            dist = achieved_distance(model, policy, target, n, grid, reps,
                                     seed, "terminal")
            if dist <= radius:
                cost = 0.5 * v * v * grid.horizon
                best = min(best, cost)
        assert math.isfinite(best)
        assert abs(est.upper_bound - best) <= 0.25 * best, (est.upper_bound,
                                                            best)

    _announce(8, "rate estimate within 25% of grid oracle", run, capfd)


def test_09_submartingale_test_and_detection(capfd):
    def run():
        # compliant direction: f = -x1^2 at dt = 1e-3, 10^4 paths
        model = make_m1(BOX1, sigma_scale=1.0, horizon=0.256)
        grid = TimeGrid(0.256, 256)  # dt = 1e-3
        funcs = standard_test_functions(1, 1)
        f_ok = funcs["neg_x_sq"]
        c_bias = calibrate_bias_allowance(model, f_ok, grid, n_paths=512,
                                          seed=90)
        ens = simulate_particle_system(model, 10_000, grid, seed=91)
        rep = submartingale_test(ens, f_ok, model,
                                 [(0.0, 0.128), (0.128, 0.256)],
                                 confidence=0.95, c_bias=c_bias)
        assert rep.passed, [e.statistic - e.threshold for e in rep.entries]

        # designed violation: f = +x1 with drift pushing onto the face
        viol_model = make_drifted(BOX1, b_const=2.0, sigma_scale=0.5,
                                  init=[[0.9]], horizon=0.5)
        viol_grid = TimeGrid(0.5, 64)
        f_bad = funcs["linear_x1"]
        detected = 0
        for k in range(20):
            ens_v = simulate_particle_system(viol_model, 512, viol_grid,
                                             seed=900 + k)
            rep_v = submartingale_test(ens_v, f_bad, viol_model, [(0.0, 0.5)],
                                       confidence=0.95,
                                       skip_boundary_check=True)
            detected += not rep_v.passed
        assert detected >= 18, detected

    _announce(9, "submartingale pass + violation detection (>= 90%)", run, capfd)


def test_10_generator_vs_finite_differences(capfd):
    def run():
        model = make_m1(BOX1, sigma_scale=0.8)
        mu = MeasureSummary.dirac([0.5])
        funcs = standard_test_functions(1, 1)
        rng = np.random.default_rng(1010)
        n_points = 0
        per_func = 1000 // len(funcs) + 1
        for f in funcs.values():
            for _ in range(per_func):
                t = float(rng.uniform(0, 1))
                x = rng.uniform(0.05, 0.95, 1)
                y = rng.uniform(-1.5, 1.5, 1)
                z = rng.normal(0, 1.0, 1)
                got = generator_apply(model, f, t, x, y, z, mu)
                fd = _fd_generator(model, f, t, x, y, z, mu)
                assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd)), f.id
                n_points += 1
        assert n_points >= 1000

    _announce(10, "generator matches finite differences (< 1e-4)", run, capfd)


def _fd_generator(model, f, t, x, y, z, mu, eps=1e-5):
    from rldp.model import eval_coefficients
    b, sig = eval_coefficients(model, t, x, mu)
    d, d1 = len(x), len(z)

    def fv(xx, zz):
        return float(f.f(t, np.asarray(xx)[None, :],
                         np.asarray(zz)[None, :])[0])

    def e(n, i):
        v = np.zeros(n)
        v[i] = 1.0
        return v

    grad_x = np.array([(fv(x + eps * e(d, i), z) - fv(x - eps * e(d, i), z))
                       / (2 * eps) for i in range(d)])

    def second(ei, ej, in_x_i, in_x_j):
        def shift(si, sj):
            xx = x + (si * ei if in_x_i else 0) + (sj * ej if in_x_j else 0)
            zz = z + (0 if in_x_i else si * ei) + (0 if in_x_j else sj * ej)
            return fv(xx, zz)
        return (shift(eps, eps) - shift(eps, -eps) - shift(-eps, eps)
                + shift(-eps, -eps)) / (4 * eps ** 2)

    hess_xx = np.array([[second(e(d, i), e(d, j), True, True)
                         for j in range(d)] for i in range(d)])
    hess_xz = np.array([[second(e(d, i), e(d1, j), True, False)
                         for j in range(d1)] for i in range(d)])
    hess_zz = np.array([[second(e(d1, i), e(d1, j), False, False)
                         for j in range(d1)] for i in range(d1)])
    a = sig @ sig.T
    return (float((b + sig @ y) @ grad_x) + 0.5 * float(np.sum(a * hess_xx))
            + float(np.sum(sig * hess_xz)) + 0.5 * float(np.trace(hess_zz)))


def test_11_cli_determinism_across_workers(tmp_path, capfd):
    def run():
        base_model = {"model": "m1",
                      "domain": {"kind": "box", "lo": [0.0], "hi": [1.0]},
                      "sigma_scale": 0.5, "horizon": 0.5}
        common = {"schema_version": 1, "seed": 7, "model": base_model,
                  "grid": {"horizon": 0.5, "n_steps": 16}}
        runs = {
            "simulate": {"n_particles": 8},
            "chaos": {"n_values": [8, 16], "n_replicas": 2, "n_ref": 64},
            "laplace": {"functional": {"functional": "constant", "c": 0.2},
                        "n_particles": 4, "n_replicas": 8},
            "variational": {"functional": {"functional": "constant",
                                           "c": 0.0},
                            "policy": {"policy": "constant", "v": [0.5]},
                            "n_particles": 4, "n_replicas": 8},
            "rate": {"target": {"kind": "terminal_point", "point": [0.5]},
                     "lambdas": [1.0],
                     "family": {"family": "constant", "bound": 1.0},
                     "n_particles": 4, "n_replicas": 4, "opt_budget": 10,
                     "radius": 1.0},
            "submartingale": {"function": "neg_x_sq", "n_particles": 64,
                              "time_pairs": [[0.0, 0.5]]},
        }
        for kind, run_blk in runs.items():
            cfg = dict(common, run=run_blk)
            cfg_path = tmp_path / f"{kind}.json"
            cfg_path.write_text(json.dumps(cfg))
            payloads = []
            for tag, workers in (("a", 1), ("b", 3)):
                out = tmp_path / f"{kind}_{tag}"
                code = cli_main([kind, "--config", str(cfg_path),
                                 "--out", str(out),
                                 "--workers", str(workers)])
                assert code == 0, (kind, code)
                payloads.append((out / "result.json").read_bytes())
            assert payloads[0] == payloads[1], kind

    _announce(11, "CLI determinism across worker counts", run, capfd)
