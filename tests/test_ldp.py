import math
import sys

import numpy as np
import pytest
from scipy.optimize import minimize

import rldp.ensemble as ensemble_mod
import rldp.ldp as ldp_mod
from rldp import cli
from rldp.controls import (ConstantPolicy, PolicyFamily, ZeroPolicy,
                           constant_family, feedback_family)
from rldp.ensemble import (marginal_flow, shared_replica_draws,
                           simulate_particle_system,
                           solve_mckean_vlasov_reference)
from rldp.errors import ConfigError, InputError
from rldp.geometry import ConvexDomain
from rldp.integrator import TimeGrid
from rldp.ldp import (achieved_distance, constant_functional,
                      distance_to_target_functional, estimate_rate,
                      flow_distance,
                      laplace_functional_mc, optimize_controls,
                      terminal_mean_functional, variational_objective)
from rldp.model import MeasureSummary, ModelSpec, make_m1

BOX1 = ConvexDomain.box([0.0], [1.0])


def functional_from_config(block, d=1):
    """The functional the CLI builds from a run's ``functional`` block."""
    env = {"model": make_m1(ConvexDomain.box([0.0] * d, [1.0] * d)),
           "grid": TimeGrid(1.0, 4)}
    run = {"functional": block}
    return cli._parse(cli.KINDS["laplace"][1], run, "run", env)["functional"]


def _count_noise_draws(monkeypatch, reuse: bool) -> list:
    """Count replica noise draws; with reuse=False every call draws afresh."""
    calls = []
    increments = ensemble_mod.brownian_increments
    replica_draws = ensemble_mod._replica_draws

    def counting_noise(*args):
        calls.append(args)
        return increments(*args)

    def unshared_draws(*args):
        token = ensemble_mod._REPLICA_DRAWS.set(None)
        try:
            return replica_draws(*args)
        finally:
            ensemble_mod._REPLICA_DRAWS.reset(token)

    monkeypatch.setattr(ensemble_mod, "brownian_increments", counting_noise)
    if not reuse:
        monkeypatch.setattr(ensemble_mod, "_replica_draws", unshared_draws)
    return calls


class TestFunctionals:
    def test_constant(self):
        f = constant_functional(0.4)
        m = make_m1(BOX1)
        ens = simulate_particle_system(m, 2, TimeGrid(0.25, 4), seed=0)
        assert f(marginal_flow(ens)) == 0.4

    def test_from_config(self):
        f = functional_from_config({"functional": "constant", "c": 1.0})
        assert f.f_max >= 1.0
        with pytest.raises(ConfigError):
            functional_from_config({"functional": "nope"})

    @pytest.mark.parametrize("cfg", [
        {"functional": "terminal_mean", "coord": 1},
        {"functional": "terminal_mean", "coord": -1},
        {"functional": "terminal_mean", "coord": True},
        {"functional": "terminal_mean", "scale": float("inf")},
        {"functional": "terminal_mean", "center": "0"},
        {"functional": "terminal_mean", "cap": -1.0},
        {"functional": "constant", "c": None},
        {"functional": "constant", "c": 1.0, "scale": 2.0}])
    def test_from_config_checks_parameters(self, cfg):
        with pytest.raises(ConfigError, match="functional|parameters"):
            functional_from_config(cfg, d=1)

    def test_from_config_coordinate_within_dimension(self):
        cfg = {"functional": "terminal_mean", "coord": 2, "cap": 0.5}
        assert functional_from_config(cfg, d=3).f_max == 0.5
        with pytest.raises(ConfigError, match=r"\[0, 2\)"):
            functional_from_config(cfg, d=2)

    def test_bound_enforced(self):
        f = terminal_mean_functional(scale=1.0, cap=0.01)
        m = make_m1(BOX1)
        ens = simulate_particle_system(m, 2, TimeGrid(0.25, 4), seed=0)
        assert abs(f(marginal_flow(ens))) <= 0.01


class TestLaplace:
    def test_constant_exact(self):
        m = make_m1(BOX1)
        grid = TimeGrid(0.25, 8)
        est = laplace_functional_mc(m, constant_functional(0.7), 4, grid, 16,
                                    seed=0)
        assert est.value == 0.7
        assert est.std_error == 0.0
        assert est.effective_sample_size == pytest.approx(16.0)

    @pytest.mark.parametrize("c", [1e308, -1e308])
    def test_huge_constant_exact(self, c):
        # N c overflows, N (F - F_min) does not: the shift comes first
        est = laplace_functional_mc(make_m1(BOX1), constant_functional(c), 4,
                                    TimeGrid(0.25, 4), 4, seed=0)
        assert est.value == c and est.std_error == 0.0
        assert not est.guard

    def test_gap_past_the_float_range_is_finite(self):
        # F spans [-1e308, 1e308]: F - F_min overflows, and those replicas
        # weigh 0; no RuntimeWarning (the suite runs under -W error)
        m = make_m1(ConvexDomain.box([-4.0], [4.0]), sigma_scale=4.0)
        grid = TimeGrid(1.0, 4)
        g = terminal_mean_functional(scale=1e308)
        f_vals = [g(marginal_flow(simulate_particle_system(
            m, 2, grid, seed=1, replica=r))) for r in range(16)]
        assert max(f_vals) - min(f_vals) == math.inf
        est = laplace_functional_mc(m, g, 2, grid, 16, seed=1)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert min(f_vals) <= est.value <= max(f_vals)

    def test_n1_direct_mc_oracle(self):
        # N=1 reduces to -log E[exp(-g(X(T)))]; compare to a direct average
        # over the same replicas
        m = make_m1(BOX1, sigma_scale=0.5, init=[[0.5]])
        grid = TimeGrid(0.25, 16)
        g = terminal_mean_functional(scale=1.0)
        n_rep = 512
        est = laplace_functional_mc(m, g, 1, grid, n_rep, seed=7)
        samples = []
        for rep in range(n_rep):
            ens = simulate_particle_system(m, 1, grid, seed=7, replica=rep)
            samples.append(float(ens.states[-1, 0, 0]))
        direct = -math.log(np.mean(np.exp(-np.asarray(samples))))
        assert est.value == pytest.approx(direct, abs=1e-12)

    def test_value_between_f_extremes(self):
        m = make_m1(BOX1)
        grid = TimeGrid(0.25, 8)
        g = terminal_mean_functional(scale=1.0)
        for n in (8, 32):
            est = laplace_functional_mc(m, g, n, grid, 32, seed=2)
            f_vals = [g(marginal_flow(simulate_particle_system(
                m, n, grid, seed=2, replica=r))) for r in range(32)]
            assert min(f_vals) - 1e-12 <= est.value <= max(f_vals) + 1e-12


class TestVariational:
    def test_zero_policy_equals_laplace_for_constant_f(self):
        m = make_m1(BOX1)
        grid = TimeGrid(0.25, 8)
        f = constant_functional(0.3)
        var = variational_objective(m, f, ZeroPolicy(1), 4, grid, 8, seed=1)
        lap = laplace_functional_mc(m, f, 4, grid, 8, seed=1)
        assert var.cost_part == 0.0
        assert var.objective == lap.value == 0.3

    def test_constant_policy_cost_exact(self):
        m = make_m1(BOX1)
        grid = TimeGrid(1.0, 8)
        fam = constant_family(1, bound=5.0)
        v = 1.5
        est = variational_objective(m, constant_functional(0.0),
                                    fam.make([v]), 4, grid, 8, seed=1)
        assert est.objective == pytest.approx(0.5 * v * v * 1.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("c", [1e308, -1e308])
    def test_huge_constant_finite(self, c):
        # the replica totals' sum overflows; their mean is c
        est = variational_objective(make_m1(BOX1), constant_functional(c),
                                    ZeroPolicy(1), 4, TimeGrid(0.25, 4), 4, seed=0)
        assert est.objective == est.f_part == c and est.std_error == 0.0

    def test_mean_and_error_is_numpys_below_the_scaling(self):
        rng = np.random.default_rng(9)
        for scale in (1e-300, 1.0, 1e150):
            x = rng.standard_normal(7) * scale
            assert ldp_mod._mean_and_error(x) == (
                float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(7)))
        mean, se = ldp_mod._mean_and_error(np.array([-1.7e308, 1.7e308, 1.7e308]))
        assert mean == pytest.approx(1.7e308 / 3) and math.isfinite(se)

    def test_representation_inequality_sample(self):
        # infimum over controls upper-bounds nothing: any policy's objective
        # dominates the Laplace value up to noise
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.25, 8)
        g = terminal_mean_functional(scale=0.5)
        lap = laplace_functional_mc(m, g, 16, grid, 64, seed=5)
        fam = constant_family(1, bound=2.0)
        rng = np.random.default_rng(0)
        ok = 0
        for _ in range(5):
            pol = fam.make(rng.uniform(-1.5, 1.5, 1))
            var = variational_objective(m, g, pol, 16, grid, 64, seed=5)
            tol = 3.0 * math.hypot(lap.std_error, var.std_error)
            ok += lap.value <= var.objective + tol
        assert ok >= 4


class TestOptimizer:
    def test_zero_functional_recovers_zero_control(self):
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.25, 8)
        fam = constant_family(1, bound=2.0)
        res = optimize_controls(m, constant_functional(0.0), fam, 4, grid, 4,
                                40, seed=0)
        assert res.cost_part <= 1e-6

    def test_objective_never_exceeds_zero_policy(self):
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.25, 8)
        g = terminal_mean_functional(scale=1.0)
        fam = constant_family(1, bound=2.0)
        res = optimize_controls(m, g, fam, 8, grid, 8, 30, seed=4)
        best = variational_objective(m, g, res.policy, 8, grid, 8, seed=4)
        zero = variational_objective(m, g, ZeroPolicy(1), 8, grid, 8, seed=4)
        assert best.objective <= zero.objective + 1e-12


@pytest.mark.parametrize("family", ["constant", "feedback"])
def test_optimizer_reports_its_best_recorded_evaluation(monkeypatch, family):
    """The result is the first recorded evaluation of least objective, and a
    fresh estimate of its policy on the same draws gives the same bits."""
    m = make_m1(BOX1, sigma_scale=0.5)
    grid = TimeGrid(0.25, 8)
    g = terminal_mean_functional(scale=1.0)
    fam = (constant_family(1, bound=2.0) if family == "constant"
           else feedback_family(1, 1, bound=2.0))
    objectives = []
    variational = ldp_mod.variational_objective
    with shared_replica_draws():
        with monkeypatch.context() as mp:
            mp.setattr(ldp_mod, "variational_objective", lambda *a, **k: (
                objectives.append(variational(*a, **k)) or objectives[-1]))
            res = optimize_controls(m, g, fam, 4, grid, 4, fam.dim + 6, seed=2)
        fresh = variational_objective(m, g, res.policy, 4, grid, 4, seed=2)
    assert res.n_evaluations == len(objectives) == fam.dim + 6
    best = objectives[int(np.argmin([est.objective for est in objectives]))]
    assert best == fresh
    assert res.cost_part == fresh.cost_part


# -- the Nelder-Mead port, against scipy's ---------------------------------------------

_STAGES = {"initial", "reflection", "expansion", "outside contraction",
           "inside contraction", "shrink"}


def _scipy_points(fun, x0, maxfev, xatol=1e-4, fatol=1e-8):
    """(point, stage) of each call ``minimize(method="Nelder-Mead")`` makes.

    The stage is read off scipy's frame: the point it passes is its ``xr``,
    ``xe``, ``xc`` or ``xcc`` (reflection, expansion, outside or inside
    contraction), else a shrunk vertex once the iterations have begun, else
    a vertex of the first simplex."""
    calls = []

    def spy(x):
        passed = sys._getframe(1).f_locals["x"]
        nm = sys._getframe(2).f_locals
        stage = next((name for name, var in (
            ("reflection", "xr"), ("expansion", "xe"),
            ("outside contraction", "xc"), ("inside contraction", "xcc"))
            if nm.get(var) is passed),
            "shrink" if "iterations" in nm else "initial")
        calls.append((x.copy(), stage))
        return fun(x)
    minimize(spy, x0, method="Nelder-Mead",
             options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    return calls


def _port_points(fun, x0, maxfev, xatol=1e-4, fatol=1e-8):
    """The points the port hands ``fun``."""
    calls = []
    ldp_mod._nelder_mead(lambda x: calls.append(x.copy()) or fun(x), x0,
                         maxfev, xatol=xatol, fatol=fatol)
    return calls


def _scribbling(x):
    """The quadratic, then its point overwritten: each call must get a copy,
    so that the simplex does not change under it."""
    value = float(np.sum((x - 0.3) ** 2))
    x.fill(np.nan)
    return value


_OBJECTIVES = {
    "quadratic": lambda x: float(np.sum((x - 0.3) ** 2)),
    "abs": lambda x: float(np.sum(np.abs(x + 0.2))),
    # plateaus: ties in the simplex, and shrinks
    "steps": lambda x: float(np.floor(np.sum(np.abs(x - 0.01)) * 200)),
    "scribbling": _scribbling,
}


class TestNelderMead:
    """``_nelder_mead`` issues scipy 1.17.1's points, bit for bit and in
    order, at the dimensions of the constant family (1) and the feedback
    family (10 for d = d1 = 1), from zero (each vertex 0.00025 out) and
    nonzero starts (5 % out), whatever ``maxfev`` cuts the search."""

    @pytest.mark.parametrize("dim", [constant_family(1).dim,
                                     feedback_family(1, 1).dim])
    def test_every_cut_issues_scipys_points(self, dim):
        rng = np.random.default_rng(dim)
        cut_in = set()
        for x0 in (np.zeros(dim), rng.uniform(-1.0, 1.0, dim)):
            for fun in _OBJECTIVES.values():
                full = _scipy_points(fun, x0, 400)
                for maxfev in range(1, min(len(full), 80) + 2):
                    ref = [p for p, _ in _scipy_points(fun, x0, maxfev)]
                    got = _port_points(fun, x0, maxfev)
                    assert len(got) == len(ref) == min(maxfev, len(full))
                    assert all(a.tobytes() == b.tobytes()
                               for a, b in zip(got, ref))
                    if maxfev < len(full):  # the call the cut refuses
                        cut_in.add(full[maxfev][1])
        assert cut_in == _STAGES

    @pytest.mark.parametrize("xatol, fatol", [(1e-4, 1e-8), (1e-2, 1e-3)])
    def test_tolerance_stop_issues_scipys_points(self, xatol, fatol):
        rng = np.random.default_rng(3)
        stopped = 0
        for dim in (1, 10):
            for x0 in (np.zeros(dim), rng.uniform(-1.0, 1.0, dim)):
                for fun in _OBJECTIVES.values():
                    ref = _scipy_points(fun, x0, 2000, xatol, fatol)
                    got = _port_points(fun, x0, 2000, xatol, fatol)
                    assert [p.tobytes() for p in got] == [
                        p.tobytes() for p, _ in ref]
                    stopped += len(got) < 2000
        assert stopped >= 6

    @pytest.mark.parametrize("family", ["constant", "feedback"])
    def test_optimizer_evaluates_scipys_points(self, monkeypatch, family):
        """``optimize_controls`` evaluates the same parameters, in the same
        order, and returns the same result with the port as with scipy's
        ``minimize`` in its place."""
        m = make_m1(BOX1, sigma_scale=0.5)
        grid = TimeGrid(0.25, 8)
        g = terminal_mean_functional(scale=1.0)
        fam = (constant_family(1, bound=2.0) if family == "constant"
               else feedback_family(1, 1, bound=2.0))

        def run():
            thetas, make = [], fam.make
            spy = PolicyFamily(fam.dim, lambda theta: thetas.append(
                theta.tobytes()) or make(theta), fam.bound)
            res = optimize_controls(m, g, spy, 4, grid, 4, 3 * fam.dim + 30,
                                    seed=2)
            return thetas, res

        thetas, res = run()

        def scipy_nelder_mead(fun, x0, maxfev, xatol, fatol):
            minimize(fun, x0, method="Nelder-Mead",
                     options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
        monkeypatch.setattr(ldp_mod, "_nelder_mead", scipy_nelder_mead)
        ref_thetas, ref = run()
        assert thetas == ref_thetas
        assert res.n_evaluations == ref.n_evaluations > fam.dim + 1
        assert res.cost_part == ref.cost_part


class TestGaussianMeanOracle:
    """m1 from x0 = 0 in a box too wide for any particle to reach a wall, so
    the terminal mean is (sigma / N) sum_i W_i(T), exactly Gaussian.  For
    F = s * (terminal mean) the fixed-N value -(1/N) log E exp(-N F) is
    -s^2 sigma^2 T / 2 at every N, and the variational infimum is attained
    by the constant control h = -s sigma at cost s^2 sigma^2 T / 2 (Boue &
    Dupuis, Ann. Probab. 26(4), 1998).  Tolerances are the estimators' own
    standard errors, so the checks pin meaning, not bytes."""

    SIGMA, S = 0.5, 1.0
    EXACT = -S**2 * SIGMA**2 / 2  # T = 1: -0.125

    def _setup(self):
        model = make_m1(ConvexDomain.box([-20.0], [20.0]),
                        sigma_scale=self.SIGMA, init=[[0.0]])
        return (model, TimeGrid(1.0, 32),
                terminal_mean_functional(scale=self.S, cap=10.0))

    def test_laplace_value(self):
        model, grid, f = self._setup()
        est = laplace_functional_mc(model, f, 16, grid, 4096, seed=1)
        assert not est.guard
        assert abs(est.value - self.EXACT) <= 4 * est.std_error

    def test_variational_value_at_the_optimal_control(self):
        model, grid, f = self._setup()
        h = ConstantPolicy([-self.S * self.SIGMA])
        est = variational_objective(model, f, h, 16, grid, 1024, seed=1)
        assert est.cost_part == -self.EXACT  # (1/2) h^2 T, exact in floats
        assert abs(est.objective - self.EXACT) <= 4 * est.std_error

    def test_optimizer_finds_the_optimal_control(self):
        # Under common random numbers F does not see the noise through h, so
        # the sample objective is h^2 / 2 + s sigma h + const and theta's
        # excess over the optimum is (theta + s sigma)^2 / 2: theta must be
        # closer than the excess the estimate's standard error can resolve.
        model, grid, f = self._setup()
        res = optimize_controls(model, f, constant_family(1), 16, grid, 64,
                                40, seed=1)
        at_opt = variational_objective(
            model, f, ConstantPolicy([-self.S * self.SIGMA]), 16, grid, 64,
            seed=1)
        theta = res.policy.v[0]
        assert abs(theta + self.S * self.SIGMA) <= math.sqrt(2 * at_opt.std_error)


class TestFoldedNormalOracle:
    """m1 from x0 in a box too wide for any particle to reach a wall, under
    a constant control h: the particles are independent, each X_T is
    N(x0 + sigma h T, sigma^2 T), and the BL distance of their empirical
    measure to the Dirac at a is the mean of min(|X_T - a|, 2).  Its
    expectation, at every N, is the folded-normal mean E|Y| of
    Y = X_T - a ~ N(m, s^2) (the cap at 2 lies 10 s away):
    s sqrt(2/pi) exp(-m^2 / 2s^2) + m erf(m / (s sqrt 2)).  The tolerance
    is the estimate's own standard error."""

    SIGMA, T, X0, A = 0.4, 0.25, 0.5, 0.75

    @pytest.mark.parametrize("n", [1, 16, 64])
    @pytest.mark.parametrize("h", [0.0, 1.5, -2.0])
    def test_distance_part_is_the_folded_normal_mean(self, h, n):
        model = make_m1(ConvexDomain.box([-20.0], [20.0]),
                        sigma_scale=self.SIGMA,
                        init=[[self.X0]])
        f = distance_to_target_functional(MeasureSummary.dirac([self.A]))
        est = variational_objective(model, f, ConstantPolicy([h]), n,
                                    TimeGrid(self.T, 8), 256, seed=3)
        m = self.X0 + self.SIGMA * h * self.T - self.A
        s = self.SIGMA * math.sqrt(self.T)
        folded = (s * math.sqrt(2 / math.pi) * math.exp(-m * m / (2 * s * s))
                  + m * math.erf(m / (s * math.sqrt(2))))
        assert est.cost_part == 0.5 * h * h * self.T  # exact in floats
        assert abs(est.f_part - folded) <= 4 * est.std_error


class TestSharedDraws:
    def _optimize(self):
        m = make_m1(BOX1, sigma_scale=0.5)
        g = terminal_mean_functional(scale=1.0)
        fam = constant_family(1, bound=2.0)
        return optimize_controls(m, g, fam, 4, TimeGrid(0.25, 8), 2, 12,
                                 seed=5)

    def test_optimizer_bit_identical_with_and_without_reuse(self, monkeypatch):
        with monkeypatch.context() as mp:
            calls = _count_noise_draws(mp, reuse=False)
            plain = self._optimize()
        assert len(calls) == 2 * plain.n_evaluations
        with monkeypatch.context() as mp:
            calls = _count_noise_draws(mp, reuse=True)
            shared = self._optimize()
        assert len(calls) == 2  # one draw per replica for the whole run
        assert plain.n_evaluations >= 10
        assert np.array_equal(shared.policy.v, plain.policy.v)
        assert shared.cost_part == plain.cost_part
        assert shared.n_evaluations == plain.n_evaluations

    def test_rate_bit_identical_with_and_without_reuse(self, monkeypatch):
        m = make_m1(BOX1, sigma_scale=0.4, init=[[0.5]])
        target = MeasureSummary.dirac([0.6])
        fam = constant_family(1, bound=2.0)

        def rate():
            return estimate_rate(m, target, [1.0, 4.0], fam, 4,
                                 TimeGrid(0.25, 8), 2, 10, seed=3, radius=0.2)

        with monkeypatch.context() as mp:
            _count_noise_draws(mp, reuse=False)
            plain = rate()
        with monkeypatch.context() as mp:
            calls = _count_noise_draws(mp, reuse=True)
            shared = rate()
        assert len(calls) == 2  # shared by both lambdas and their distances
        assert shared == plain


class TestRate:
    @pytest.mark.parametrize("mode", ["terminal", "integrated"])
    def test_achieved_distance_is_the_replica_mean(self, mode):
        """The achieved distance, taken as the variational objective's f
        part, is bitwise the mean of its own loop over the replica flows."""
        m = make_m1(BOX1, sigma_scale=0.4, init=[[0.5]])
        grid = TimeGrid(0.25, 8)
        target = solve_mckean_vlasov_reference(m, grid, n_ref=64, seed=3)
        policy = ConstantPolicy([0.7])
        loop = float(np.mean([
            flow_distance(flow, target, mode)
            for _, flow in ldp_mod._replica_flows(m, 6, grid, 5, 2,
                                                  policy=policy)]))
        got = achieved_distance(m, policy, target, 6, grid, 5, 2, mode)
        assert np.float64(got).tobytes() == np.float64(loop).tobytes()
        assert 0.0 < got <= 2.0

    def test_lln_target_near_zero(self):
        m = make_m1(BOX1, sigma_scale=0.4, init=[[0.5]])
        grid = TimeGrid(0.25, 16)
        ref = solve_mckean_vlasov_reference(m, grid, n_ref=1024, seed=9)
        fam = constant_family(1, bound=2.0)
        est = estimate_rate(m, ref, [1.0], fam, 16, grid, 8, 25, seed=4,
                            radius=0.15)
        assert est.feasible
        assert est.upper_bound <= 0.05

    def test_unreachable_target_infeasible(self):
        # sigma = 0 and bounded controls cannot move delta_{0.1} to
        # a distant target within the short horizon
        m = make_m1(BOX1, sigma_scale=0.0, init=[[0.1]])
        grid = TimeGrid(0.05, 8)
        target = MeasureSummary.dirac([0.95])
        fam = constant_family(1, bound=1.0)
        est = estimate_rate(m, target, [2.0], fam, 4, grid, 4, 15, seed=0,
                            radius=0.05)
        assert not est.feasible
        assert est.upper_bound == math.inf

    def test_bound_is_the_least_feasible_cost(self, monkeypatch):
        # two weights reach the radius and the larger one costs more: any
        # feasible control's cost bounds the rate, so the least one is the
        # bound; the cheapest weight misses the radius and does not count
        costs, dists = iter([0.1, 0.3, 0.7]), iter([0.5, 0.05, 0.02])
        monkeypatch.setattr(ldp_mod, "optimize_controls",
                            lambda *a, **k: ldp_mod.OptimizationResult(
                                policy=ZeroPolicy(1), cost_part=next(costs),
                                n_evaluations=1))
        monkeypatch.setattr(ldp_mod, "achieved_distance",
                            lambda *a, **k: next(dists))
        est = estimate_rate(make_m1(BOX1), MeasureSummary.dirac([0.5]),
                            [0.5, 1.0, 4.0], constant_family(1), 4,
                            TimeGrid(0.25, 4), 2, 10, seed=0, radius=0.1)
        assert est.feasible and est.cost_values == (0.1, 0.3, 0.7)
        assert (est.upper_bound, est.selected_lambda) == (0.3, 1.0)

    @pytest.mark.parametrize("mode", ["bogus", "integrated"])
    def test_bad_mode_for_point_target_rejected_before_simulating(
            self, monkeypatch, mode):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the mode was checked")

        monkeypatch.setattr(ldp_mod, "simulate_particle_system", no_simulation)
        with pytest.raises(InputError, match="distance"):
            estimate_rate(make_m1(BOX1), MeasureSummary.dirac([0.5]), [1.0],
                          constant_family(1), 4, TimeGrid(0.25, 4), 2, 10,
                          seed=0, distance_mode=mode)

    def test_flow_distance_checks_mode_first(self):
        m = make_m1(BOX1)
        grid = TimeGrid(0.25, 4)
        flow = marginal_flow(simulate_particle_system(m, 4, grid, seed=1))
        point = MeasureSummary.dirac([0.5])
        for target in (point, flow):
            with pytest.raises(InputError, match="distance mode"):
                flow_distance(flow, target, "bogus")
        with pytest.raises(InputError, match="target flow"):
            flow_distance(flow, point, "integrated")
        assert flow_distance(flow, point) == flow_distance(
            list(flow), point, "terminal")
        assert flow_distance(flow, flow, "integrated") == 0.0

    def test_integrated_distance_needs_one_grid(self):
        m = make_m1(BOX1)
        coarse, fine = (marginal_flow(simulate_particle_system(
            m, 4, TimeGrid(0.25, n), seed=1)) for n in (4, 16))
        for a, b in ((coarse, fine), (fine, coarse)):
            with pytest.raises(InputError, match="one grid"):
                flow_distance(a, b, "integrated")

    @pytest.mark.parametrize("call", ["variational", "optimize", "achieved",
                                      "rate"])
    def test_no_replica_rejected(self, call):
        # each raised numpy's "zero-size array to reduction operation"
        m, grid, fam = make_m1(BOX1), TimeGrid(0.25, 4), constant_family(1)
        zero, target = constant_functional(0.0), MeasureSummary.dirac([0.5])
        run = {
            "variational": lambda: variational_objective(
                m, zero, ZeroPolicy(1), 4, grid, 0),
            "optimize": lambda: optimize_controls(m, zero, fam, 4, grid, 0, 5),
            "achieved": lambda: achieved_distance(
                m, ZeroPolicy(1), target, 4, grid, 0, 0, "terminal"),
            "rate": lambda: estimate_rate(m, target, [1.0], fam, 4, grid, 0,
                                          5)}[call]
        with pytest.raises(InputError, match="replica"):
            run()

    def test_empty_schedule_rejected(self):
        # it returned feasible: False, upper_bound: inf, as if every
        # weight had failed
        with pytest.raises(InputError, match="schedule"):
            estimate_rate(make_m1(BOX1), MeasureSummary.dirac([0.5]), [],
                          constant_family(1), 4, TimeGrid(0.25, 4), 4, 15)

    def test_bad_schedule_rejected(self):
        m = make_m1(BOX1)
        fam = constant_family(1)
        with pytest.raises(InputError):
            estimate_rate(m, MeasureSummary.dirac([0.5]), [2.0, 1.0], fam,
                          4, TimeGrid(0.25, 4), 4, 15, seed=0)
