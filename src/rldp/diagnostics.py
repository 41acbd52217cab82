"""Submartingale diagnostics for reflected dynamics.

For a test function f(t, x, z) with boundary condition
<grad_x f, n(x)> <= 0 on the boundary, the compensated process

    M_f(t) = f(t, X(t), W(t)) - f(0, X(0), W(0))
             - int_0^t [f_s + A f](s, X(s), h(s), W(s)) ds

must be a submartingale when the law of (X, control, W) solves the
controlled reflected equation.  The generator A carries four terms:
drift+control against grad_x f, the second-order x-diffusion, the x-z
cross term, and the z-noise Laplacian.  A test function gives f, f_t and
grad_x per point; a Hessian that is the same at every point, as each
registered one is, is its one read-only matrix, which the generator
broadcasts over the points as it does sigma.

Statistical testing uses nonnegative weights measurable at the earlier
time, a one-sided lower confidence bound, and a discretization-bias
allowance proportional to the step size.  The test reads M_f only at the
nodes of its time pairs, and ``mf_process`` keeps only the nodes it is
asked for, while its integral runs over every node before them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .ensemble import (Ensemble, _check_single, cumulative_noise,
                       marginal_flow, simulate_particle_system)
from .errors import InputError, ModelError, PreconditionError
from .geometry import ConvexDomain, _row_sumsq
from .integrator import TimeGrid
from .ldp import _mean_and_error
from .model import MeasureSummary, ModelSpec, _constant, coefficients_batch
from . import rng as rngmod


@dataclass(frozen=True)
class TestFunction:
    """f(t, x, z) with the analytic partials the generator reads, over
    leading axes of x (..., d) and z (..., d1).  f, f_t and grad_x are given
    per point; a Hessian broadcasts to the points, and one that is the
    same at every point is its one read-only matrix.  No z-gradient: (X, W)
    has no z-drift, so z enters only through hess_xz and hess_zz."""

    id: str
    d1: int
    f: object = field(repr=False)        # (...)
    f_t: object = field(repr=False)      # (...)
    grad_x: object = field(repr=False)   # (..., d)
    hess_xx: object = field(repr=False)  # (d, d), or (..., d, d)
    hess_xz: object = field(repr=False)  # (d, d1), or (..., d, d1)
    hess_zz: object = field(repr=False)  # (d1, d1), or (..., d1, d1)


def standard_test_functions(d: int, d1: int) -> dict[str, TestFunction]:
    """Registered test functions for a given state/noise dimension.  Their
    Hessians are constant: each is one read-only matrix, built once here."""
    zero_partials = {
        "f_t": lambda t, x, z: np.zeros(np.shape(x)[:-1]),
        "grad_x": lambda t, x, z: np.zeros(np.shape(x)[:-1] + (d,)),
        "hess_xx": _constant(np.zeros((d, d))),
        "hess_xz": _constant(np.zeros((d, d1))),
        "hess_zz": _constant(np.zeros((d1, d1))),
    }

    def make(fid, f, **partials):
        """f with the given partials; every other partial is zero."""
        return TestFunction(id=fid, d1=d1, f=f,
                            **{**zero_partials, **partials})

    def e_x1(x):
        g = np.zeros(np.shape(x)[:-1] + (d,))
        g[..., 0] = 1.0
        return g

    e1e1 = np.zeros((d, d1))
    e1e1[0, 0] = 1.0
    funcs = [
        make("constant", lambda t, x, z: np.ones(np.shape(x)[:-1])),
        make("time",
             lambda t, x, z: np.full(np.shape(x)[:-1], t, dtype=float),
             f_t=lambda t, x, z: np.ones(np.shape(x)[:-1])),
        make("neg_x_sq", lambda t, x, z: -_row_sumsq(np.asarray(x, dtype=float)),
             grad_x=lambda t, x, z: -2.0 * np.asarray(x, dtype=float),
             hess_xx=_constant(-2.0 * np.eye(d))),
        make("linear_x1", lambda t, x, z: np.asarray(x)[..., 0].copy(),
             grad_x=lambda t, x, z: e_x1(x)),
        make("linear_z1", lambda t, x, z: np.asarray(z)[..., 0].copy()),
        make("x1_z1",
             lambda t, x, z: np.asarray(x)[..., 0] * np.asarray(z)[..., 0],
             grad_x=lambda t, x, z: e_x1(x) * np.asarray(z)[..., 0, None],
             hess_xz=_constant(e1e1)),
        make("neg_z_sq", lambda t, x, z: -_row_sumsq(np.asarray(z, dtype=float)),
             hess_zz=_constant(-2.0 * np.eye(d1))),
    ]
    return {tf.id: tf for tf in funcs}


# -- boundary condition --------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryCheck:
    passed: bool
    worst_value: float


# Boundary points sampled, scale of the sampled z and the pass threshold.
_BOUNDARY_SAMPLES, _BOUNDARY_Z_SCALE, _BOUNDARY_TOL = 256, 2.0, 1e-10


def boundary_condition_check(f: TestFunction, domain: ConvexDomain,
                             horizon: float = 1.0) -> BoundaryCheck:
    """Max of <grad_x f, n(x)> over sampled boundary points (seed 0); pass
    iff it is at most ``_BOUNDARY_TOL``.

    The normals come from one ``domain.normals_at`` call.  The worst value
    is the first maximum, and a NaN value is the worst, so a NaN gradient
    fails the check.
    """
    gen = rngmod.substream(0, rngmod.SAMPLER, 1)
    xs = domain.sample_boundary(gen, _BOUNDARY_SAMPLES)
    zs = gen.standard_normal((_BOUNDARY_SAMPLES, f.d1)) * _BOUNDARY_Z_SCALE
    ts = gen.uniform(0.0, horizon, size=_BOUNDARY_SAMPLES)
    vals = [float(f.grad_x(t, x[None, :], z[None, :])[0] @ n)
            for t, x, z, n in zip(ts, xs, zs, domain.normals_at(xs))]
    worst = int(np.argmax(vals))
    return BoundaryCheck(passed=bool(vals[worst] <= _BOUNDARY_TOL),
                         worst_value=vals[worst])


# -- generator -----------------------------------------------------------------------

def generator_apply(model: ModelSpec, f: TestFunction, t: float, x, y, z,
                    nu_t: MeasureSummary) -> float:
    """The controlled generator applied to f at a single point.

    y is the control value (atomic relaxed control slice), z the current
    driving-noise value.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    val = _generator_batch(model, f, t, x[None, :], y[None, :], z[None, :],
                           nu_t)[0]
    if not np.isfinite(val):
        raise ModelError(f"non-finite generator value at t={t}, x={x}")
    return float(val)


def _generator_batch(model: ModelSpec, f: TestFunction, t: float,
                     x: np.ndarray, y: np.ndarray, z: np.ndarray,
                     nu_t: MeasureSummary) -> np.ndarray:
    """The generator at a batch of points (..., d); returns shape (...).

    ``y`` None stands for an all-zero control: the sigma h term is not
    formed, and b is made contiguous as the sum would have made it, so that
    einsum picks the same kernel.  Sigma and the Hessians come as computed,
    so a particle-invariant one is one matrix: the diffusion, cross and
    noise terms are then formed once, not once per point, and broadcast in
    the final sum.
    """
    b, sig = coefficients_batch(model, t, x, nu_t)
    gx = f.grad_x(t, x, z)
    if y is None:
        b = np.ascontiguousarray(b)
    else:
        b = b + np.einsum("...ij,...j->...i", sig, y)
    drift_term = np.einsum("...i,...i->...", b, gx)
    a = np.einsum("...ik,...jk->...ij", sig, sig)  # sigma sigma^T
    diff_term = 0.5 * np.einsum("...ij,...ij->...", a, f.hess_xx(t, x, z))
    cross_term = np.einsum("...ij,...ij->...", sig, f.hess_xz(t, x, z))
    noise_term = 0.5 * np.einsum("...ii->...", f.hess_zz(t, x, z))
    return drift_term + diff_term + cross_term + noise_term


# -- the compensated process -----------------------------------------------------------

def mf_process(f: TestFunction, ens: Ensemble, model: ModelSpec,
               nodes=None) -> np.ndarray:
    """Discrete M_f of one replica's ensemble at the grid-node indices
    ``nodes``, in the order given, shape (len(nodes), N); every node
    0..n by default.  Left-endpoint Riemann sums; M_f(0) = 0.

    The states, controls and grid are the ensemble's and the node measures
    ``marginal_flow(ens)``; the driving noise w(t_k) is streamed from
    ``cumulative_noise(ens.noises)`` one node at a time, so no (n+1, N, d1)
    noise path is stored.  The integrand is ``_generator_batch`` at each
    node up to the last one asked for, which forms the particle-invariant
    generator terms once per node, not once per path, and skips the sigma h
    term when every control is zero.  f(t_k, X_k, w_k) and the row of M_f
    are formed only at the nodes asked for, each bitwise that node's row of
    the full series.  A node that is not an integer in [0, n] raises
    InputError.
    """
    _check_single(ens, "mf_process")
    n = ens.grid.n_steps
    asked = range(n + 1) if nodes is None else list(nodes)
    at = {}  # node -> the rows of the result that hold it
    for i, k in enumerate(asked):
        if (isinstance(k, bool) or not isinstance(k, numbers.Integral)
                or not 0 <= k <= n):
            raise InputError(f"M_f nodes must be integers in [0, {n}], "
                             f"got {k!r}")
        at.setdefault(k, []).append(i)
    m = np.zeros((len(asked), ens.n_particles))
    states, controls, nu_flow = ens.states, ens.controls, marginal_flow(ens)
    dt, times = ens.grid.dt, ens.grid.nodes
    controlled = bool(np.any(controls))
    rows = cumulative_noise(ens.noises)
    w = next(rows)
    f0 = np.asarray(f.f(times[0], states[0], w), dtype=float)
    integral = None  # running left-endpoint sum, in cumsum's order
    for k, w_next in zip(range(max(at, default=0)), rows):
        t = times[k]
        g = np.asarray(f.f_t(t, states[k], w)
                       + _generator_batch(model, f, t, states[k],
                                          controls[k] if controlled else None,
                                          w, nu_flow[k]),
                       dtype=float)
        integral = g if integral is None else integral + g
        w = w_next
        if k + 1 in at:
            f1 = np.asarray(f.f(times[k + 1], states[k + 1], w), dtype=float)
            m[at[k + 1]] = (f1 - f0) - integral * dt
    return m


# -- statistical submartingale test ------------------------------------------------------

# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), as scipy.special.ndtri computes it: rational approximations in
# |y - 1/2| <= 3/8 (P0/Q0), and in z = sqrt(-2 log y) on [2, 8) (P1/Q1) and
# [8, 64] (P2/Q2); each Q's leading coefficient, 1, is left out.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2), the edge of the central range


def _polevl(x: float, coef, monic: bool = False) -> float:
    """Cephes polevl (or p1evl, ``monic``: a leading 1 left out), Horner's
    rule in its order of operations."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """The standard normal quantile, bit for bit scipy.special.ndtri: -inf
    at 0, inf at 1, NaN outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, upper = y0, y0 > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0)
                     / _polevl(y2, _NDTRI_Q0, monic=True))
        return x * 2.50662827463100050242E0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q, monic=True)
    return x if upper else -x


def psi_weights(domain: ConvexDomain):
    """The nonnegative weights Psi of ``submartingale_test``, by id, each
    measurable at the conditioning time.

    Each entry maps (states_t0 (N, d), noise_t0 (N, d1)) -> weights (N,).
    Includes the constant weight (the unconditional test).  Every weight is
    one or a clip into [0, 1] over a finite span > 0, so on finite states
    and noise each lies in [0, 1].
    """
    lo = domain.lo[0] if domain.kind == "box" else domain.center[0] - domain.radius
    hi = domain.hi[0] if domain.kind == "box" else domain.center[0] + domain.radius
    span = hi - lo

    return {
        "one": lambda x, w: np.ones(x.shape[0]),
        "x1_high": lambda x, w: np.clip((x[:, 0] - lo) / span, 0.0, 1.0),
        "x1_low": lambda x, w: np.clip((hi - x[:, 0]) / span, 0.0, 1.0),
        "w1_pos": lambda x, w: np.clip(w[:, 0] + 0.5, 0.0, 1.0),
    }


@dataclass(frozen=True)
class SubmartingaleEntry:
    t0: float
    t1: float
    psi: str
    statistic: float       # weighted mean of M_f(t1) - M_f(t0)
    std_error: float
    lower_bound: float     # statistic - z * std_error
    threshold: float       # -(z * std_error + c_bias * dt)
    passed: bool           # statistic >= threshold


@dataclass(frozen=True)
class SubmartingaleReport:
    function: str
    confidence: float
    c_bias: float
    entries: tuple
    passed: bool


def submartingale_test(ens: Ensemble, f: TestFunction, model: ModelSpec,
                       time_pairs, confidence: float = 0.95,
                       c_bias: float = 0.0,
                       skip_boundary_check: bool = False) -> SubmartingaleReport:
    """One-sided test of E[Psi (M_f(t1) - M_f(t0))] >= 0 on the simulated
    paths of one replica's ensemble.

    An entry passes when its statistic is at least its threshold, i.e. when
    statistic + z * std_error >= -c_bias * dt, so a higher confidence widens
    the allowance.  The boundary condition on f is a hypothesis of the
    characterization; violating functions are rejected unless
    skip_boundary_check is set (the hook used by designed negative
    controls).  A batch, a confidence outside (0, 1), fewer than two paths
    or no time pair raise InputError: the one-sided bound needs a finite
    normal quantile and a sample standard deviation, and a verdict needs an
    entry.  Every path of ``ens`` is used.  M_f is formed only at the
    distinct nodes of the pairs, so no (n+1, N) series is held.  The
    ``psi_weights`` are built once and trusted: they lie in [0, 1] by
    construction.
    """
    _check_single(ens, "submartingale_test")
    if not 0.0 < confidence < 1.0:
        raise InputError(f"confidence must lie in (0, 1), got {confidence}")
    if ens.n_particles < 2:
        raise InputError(f"the submartingale test needs at least two paths, "
                         f"got {ens.n_particles}")
    if not skip_boundary_check:
        check = boundary_condition_check(f, model.domain,
                                         horizon=ens.grid.horizon)
        if not check.passed:
            raise PreconditionError(
                f"test function {f.id} violates the boundary condition "
                f"(worst value {check.worst_value:.3g})")
    pairs = []
    for (t0, t1) in time_pairs:
        k0, k1 = ens.grid.node_index(t0), ens.grid.node_index(t1)
        if not k0 < k1:
            raise InputError("time pairs must satisfy t0 < t1")
        pairs.append((t0, t1, k0, k1))
    if not pairs:
        raise InputError("the submartingale test needs at least one time pair")

    nodes = sorted({k for _, _, k0, k1 in pairs for k in (k0, k1)})
    m = dict(zip(nodes, mf_process(f, ens, model, nodes)))
    # the psi weights read w(t0): a second walk of the noise, up to the last t0
    t0_nodes = {k0 for _, _, k0, _ in pairs}
    w_t0 = {k: w for k, w in zip(range(max(t0_nodes) + 1),
                                 cumulative_noise(ens.noises))
            if k in t0_nodes}

    z_crit = _ndtri(float(confidence))  # the standard normal quantile
    dt = ens.grid.dt
    entries = []
    psis = psi_weights(model.domain)
    for t0, t1, k0, k1 in pairs:
        dm = m[k1] - m[k0]
        for name, psi in psis.items():
            stat, se = _mean_and_error(psi(ens.states[k0], w_t0[k0]) * dm)
            threshold = -(z_crit * se + c_bias * dt)
            entries.append(SubmartingaleEntry(
                t0=float(t0), t1=float(t1), psi=name, statistic=stat,
                std_error=se, lower_bound=stat - z_crit * se,
                threshold=threshold, passed=bool(stat >= threshold)))
    return SubmartingaleReport(
        function=f.id, confidence=confidence, c_bias=c_bias,
        entries=tuple(entries), passed=all(e.passed for e in entries))


def calibrate_bias_allowance(model: ModelSpec, f: TestFunction,
                             base_grid: TimeGrid, n_paths: int = 512,
                             seed: int = 0, budget: int | None = None) -> float:
    """Slope of |mean M_f(T)| against dt over step sizes {4h, 2h, h}.

    Regression through the origin on grids coarsened from the base grid;
    calibrated once per model against a reference compliant function.
    ``budget`` is the step budget of each simulation, as in
    ``simulate_particle_system``.
    """
    if base_grid.n_steps % 4 != 0:  # then 2 and 1 divide it too
        raise InputError("base grid must allow 4x/2x coarsening")
    x, y = np.empty(3), np.empty(3)
    for j, factor in enumerate((4, 2, 1)):
        grid = TimeGrid(base_grid.horizon, base_grid.n_steps // factor)
        ens = simulate_particle_system(model, n_paths, grid, seed=seed,
                                       budget=budget)
        m_T = mf_process(f, ens, model, [grid.n_steps])[0]
        x[j], y[j] = grid.dt, abs(float(np.mean(m_T)))
    return float((x @ y) / (x @ x))  # x > 0 and y >= 0: never negative
