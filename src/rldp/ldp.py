"""Laplace-functional Monte Carlo, the variational objective, control search,
and rate-function upper estimates.

The fixed-N identity being exercised:

    -(1/N) log E[exp(-N F(mu^N))]
        = inf over controls of { (1/2N) E[sum_i int |h_i|^2 dt] + E[F(controlled mu^N)] }

The infimum runs over all progressively measurable controls; the package
searches restricted families (constant / feedback), so every rate output
is an upper estimate and is named accordingly.

Every Monte Carlo average here (the Laplace functional, the variational
objective, the achieved distance) runs over R independent replicas.  They
are stepped together: one ``simulate_particle_system`` call per batch of
replicas, a batch being as many as fit their path arrays in
``_BATCH_BYTES``, so one call per objective evaluation at the usual sizes.
Each replica is read in place, a node of its flow built only when read,
and its numbers are those of simulating it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controls import ControlPolicy, PolicyFamily, ensemble_cost
from .ensemble import (marginal_flow, shared_replica_draws,
                       simulate_particle_system)
from .errors import InputError
from .integrator import TimeGrid
from .measures import bl_distance
from .model import MeasureSummary, ModelSpec
from . import rng as rngmod

ESS_GUARD_FRACTION = 0.01
_BATCH_BYTES = 8 * 2**20  # cap on the path arrays and noise of one batch
_N_RESTARTS = 3  # Nelder-Mead starts of optimize_controls, zero among them


# -- functionals of the path-marginal flow ---------------------------------------

@dataclass(frozen=True)
class Functional:
    """Bounded functional of a path-marginal flow (list of summaries)."""

    id: str
    evaluate: object = field(repr=False)  # callable flow -> float
    f_max: float = 1.0

    def __call__(self, flow) -> float:
        val = float(self.evaluate(flow))
        if not math.isfinite(val):
            raise InputError(f"functional {self.id} returned non-finite value")
        if abs(val) > self.f_max + 1e-9:
            raise InputError(
                f"functional {self.id} value {val} exceeds declared bound {self.f_max}")
        return val


def constant_functional(c: float) -> Functional:
    return Functional(id=f"constant({c})", evaluate=lambda flow: c,
                      f_max=abs(c) + 1e-12)


def terminal_mean_functional(scale: float = 1.0, coord: int = 0,
                             center: float = 0.0, cap: float = 1.0) -> Functional:
    """F(flow) = scale * clip(mean_coord(T) - center, -cap, cap)."""
    def ev(flow):
        return scale * float(np.clip(flow[-1].mean[coord] - center, -cap, cap))
    return Functional(id=f"terminal_mean(scale={scale},coord={coord},center={center})",
                      evaluate=ev, f_max=abs(scale) * cap)


def distance_to_target_functional(target, scale: float = 1.0,
                                  mode: str = "terminal") -> Functional:
    """F(flow) = scale * distance(flow, target); distance is BL-based.

    mode "terminal": BL distance of the terminal marginals.
    mode "integrated": time-average of the per-node BL distances.
    The mode is checked against the target here, before any flow exists.
    """
    check_distance_mode(target, mode)

    def dist(flow):
        return flow_distance(flow, target, mode)
    return Functional(id=f"bl_to_target(scale={scale},mode={mode})",
                      evaluate=lambda flow: scale * dist(flow),
                      f_max=2.0 * abs(scale))


def check_distance_mode(target, mode: str) -> str:
    """``mode``, once it is known to be valid against ``target``."""
    if mode not in ("terminal", "integrated"):
        raise InputError(f"unknown distance mode {mode!r}")
    if mode == "integrated" and isinstance(target, MeasureSummary):
        raise InputError("the integrated distance needs a target flow, "
                         "not a terminal summary")
    return mode


def flow_distance(flow, target, mode: str = "terminal") -> float:
    """BL distance between a marginal flow and a target flow or summary.

    A flow is a sequence of per-node summaries, such as ``marginal_flow``'s
    tuple.  A summary target is a terminal target only; an integrated
    target must have the flow's number of nodes.
    """
    check_distance_mode(target, mode)
    if mode == "terminal":
        tgt = target if isinstance(target, MeasureSummary) else target[-1]
        return bl_distance(flow[-1], tgt).value
    if len(flow) != len(target):
        raise InputError(f"the integrated distance needs flows on one grid, "
                         f"got {len(flow)} and {len(target)} nodes")
    vals = [bl_distance(a, b).value for a, b in zip(flow, target)]
    return float(np.mean(vals))


# -- Laplace functional -------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceEstimate:
    value: float
    std_error: float
    n_particles: int
    n_replicas: int
    effective_sample_size: float
    guard: bool  # True when the estimate is unreliable


class _ReplicaFlow:
    """Replica ``j`` of a batched flow: node k is ``flow[k].replica(j)``,
    built when read."""

    def __init__(self, flow, j: int):
        self._flow, self._j = flow, j

    def __len__(self) -> int:
        return len(self._flow)

    def __getitem__(self, k: int) -> MeasureSummary:
        return self._flow[k].replica(self._j)


def _replica_flows(model: ModelSpec, n_particles: int, grid: TimeGrid,
                   n_replicas: int, seed: int, policy=None, budget=None):
    """Yield (controls, flow) of each replica 0..R-1, simulated in batches.

    A batch holds as many replicas as fit their path arrays and noise in
    ``_BATCH_BYTES`` (at least one), so peak memory does not grow with R.
    Controls (n, N, d1) and flow are read in place from the batch.
    """
    n, d, d1 = grid.n_steps, model.d, model.d1
    # bytes a replica: states at the n + 1 nodes, noise and controls on the
    # n cells, 8 bytes a float (its boundary events are a small fraction)
    per_replica = n_particles * 8 * ((n + 1) * d + 2 * n * d1)
    size = max(1, _BATCH_BYTES // per_replica)
    for lo in range(0, n_replicas, size):
        ens = simulate_particle_system(
            model, n_particles, grid, policy=policy, seed=seed,
            replica=range(lo, min(lo + size, n_replicas)), budget=budget)
        flow = marginal_flow(ens)
        for j in range(len(ens.replica)):
            yield ens.controls[:, j], _ReplicaFlow(flow, j)


def laplace_functional_mc(model: ModelSpec, functional: Functional,
                          n_particles: int, grid: TimeGrid, n_replicas: int,
                          seed: int = 0, budget=None) -> LaplaceEstimate:
    """-(1/N) log mean exp(-N F(mu^N)) over independent uncontrolled replicas.

    F is shifted by its minimum before the product with N: the value is
    F_min - log(mean exp(-N (F - F_min))) / N, its weights lie in [0, 1]
    with one equal to 1, so value and standard error (the delta method on
    the exponential average) are finite for every finite F; a replica whose
    N (F - F_min) overflows weighs 0.  The guard flags degenerate weight
    concentration.
    """
    if n_replicas < 2:
        raise InputError("need at least two replicas")
    f_vals = np.array([functional(flow)
                       for _, flow in _replica_flows(model, n_particles, grid,
                                                     n_replicas, seed,
                                                     budget=budget)])
    f_min = float(np.min(f_vals))
    with np.errstate(over="ignore"):
        w = np.exp(-n_particles * (f_vals - f_min))
    mean_w = float(np.mean(w))
    value = f_min - math.log(mean_w) / n_particles
    sd_w = float(np.std(w, ddof=1))
    std_error = sd_w / (mean_w * math.sqrt(n_replicas) * n_particles)
    ess = float(np.sum(w) ** 2 / np.sum(w ** 2))
    return LaplaceEstimate(
        value=value, std_error=std_error, n_particles=n_particles,
        n_replicas=n_replicas, effective_sample_size=ess,
        guard=bool(ess < ESS_GUARD_FRACTION * n_replicas),
    )


# -- variational objective ------------------------------------------------------------

@dataclass(frozen=True)
class VariationalEstimate:
    objective: float
    cost_part: float
    f_part: float
    std_error: float


def _mean_and_error(x: np.ndarray) -> tuple[float, float]:
    """The mean of x and its standard error (0 for one value), finite for
    every finite x: past 2^500 in magnitude, x is first scaled down by a
    power of two, which scales every rounding exactly, so that no sum or
    square overflows; below that they are numpy's, bit for bit."""
    s = 2.0 ** -max(0, math.frexp(float(np.max(np.abs(x))))[1] - 500)
    se = float(np.std(x * s, ddof=1) / math.sqrt(len(x))) / s if len(x) > 1 else 0.0
    return float(np.mean(x * s)) / s, se


def variational_objective(model: ModelSpec, functional: Functional,
                          policy: ControlPolicy, n_particles: int,
                          grid: TimeGrid, n_replicas: int, seed: int = 0,
                          budget=None) -> VariationalEstimate:
    """Mean control cost plus mean F over controlled replicas."""
    if n_replicas < 1:
        raise InputError("need at least one replica")
    costs = np.empty(n_replicas)
    f_vals = np.empty(n_replicas)
    for m, (h, flow) in enumerate(_replica_flows(model, n_particles, grid,
                                                 n_replicas, seed,
                                                 policy=policy, budget=budget)):
        costs[m] = ensemble_cost(h, grid.dt)
        f_vals[m] = functional(flow)
    objective, se = _mean_and_error(costs + f_vals)
    return VariationalEstimate(
        objective=objective, cost_part=_mean_and_error(costs)[0],
        f_part=_mean_and_error(f_vals)[0], std_error=se)


# -- control optimization ---------------------------------------------------------------

class _OutOfEvaluations(Exception):
    """A call past the evaluation budget, refused before it runs."""


def _nelder_mead(fun, x0: np.ndarray, maxfev: int, xatol: float,
                 fatol: float) -> None:
    """Minimize ``fun`` by Nelder & Mead's simplex (Computer Journal 7(4),
    1965) as scipy 1.17.1's ``_minimize_neldermead`` codes it, unbounded
    and not adaptive: reflection 1, expansion 2, contraction and shrink
    1/2, a first simplex that moves each coordinate of ``x0`` by 5 %, or to
    0.00025 from zero.  It issues scipy's points in scipy's order, each
    handed to ``fun`` as a copy, and refuses a call past ``maxfev`` before
    it runs; it stops there, or once the simplex is within ``xatol`` of its
    best vertex and its values within ``fatol`` of the best.  ``fun`` keeps
    what it needs: nothing is returned.
    """
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _OutOfEvaluations
        calls += 1
        return fun(np.copy(x))

    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)

    def order():  # best vertex first, as scipy's argsort and take leave it
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        sim, fsim = order()
        sim, fsim = order()  # as scipy does: argsort may reorder ties
        while calls < maxfev:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                return
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            sim, fsim = order()
    except _OutOfEvaluations:
        return


@dataclass(frozen=True)
class OptimizationResult:
    policy: ControlPolicy
    cost_part: float
    n_evaluations: int


@shared_replica_draws()
def optimize_controls(model: ModelSpec, functional: Functional,
                      family: PolicyFamily, n_particles: int, grid: TimeGrid,
                      n_replicas: int, budget: int, seed: int = 0,
                      sim_budget=None) -> OptimizationResult:
    """Restarted Nelder-Mead over the family parameters.

    Common random numbers: every evaluation reuses the same replica
    substreams, so objective differences reflect theta only.  Each replica's
    initial states and noise are drawn once and reused by every evaluation.
    Each evaluation is recorded once, and the result is the first recorded
    evaluation of least objective, as it was estimated: nothing is
    simulated again.  Each restart's ``maxfev`` is at most the evaluations
    left in ``budget``.  The zero parameter vector is always in the restart
    set, hence the returned objective never exceeds the zero-policy
    objective.
    """
    if budget < family.dim + 2:
        raise InputError("budget must be at least dim(theta) + 2")

    record = []  # (estimate, theta) of every evaluation, in order

    def objective_fn(theta):
        est = variational_objective(model, functional, family.make(theta),
                                    n_particles, grid, n_replicas, seed=seed,
                                    budget=sim_budget)
        record.append((est, theta))
        return est.objective

    draws = rngmod.substream(seed, rngmod.OPT).uniform(
        -family.bound / 2, family.bound / 2, size=(_N_RESTARTS - 1, family.dim))
    starts = [np.zeros(family.dim), *draws]

    per_restart = max(family.dim + 2, budget // _N_RESTARTS)
    for x0 in starts:
        if len(record) >= budget:
            break
        _nelder_mead(objective_fn, x0, min(per_restart, budget - len(record)),
                     xatol=1e-4, fatol=1e-8)

    best, theta = record[int(np.argmin([est.objective for est, _ in record]))]
    return OptimizationResult(policy=family.make(theta),
                              cost_part=best.cost_part,
                              n_evaluations=len(record))


# -- rate-function upper estimate ----------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate:
    radius: float
    lambdas: tuple
    achieved_distances: tuple
    cost_values: tuple
    feasible: bool
    upper_bound: float        # least cost of a weight within the radius, or +inf
    selected_lambda: float | None  # that weight (the smallest on a tie)


def achieved_distance(model: ModelSpec, policy: ControlPolicy, target,
                      n_particles: int, grid: TimeGrid, n_replicas: int,
                      seed: int, mode: str, budget=None) -> float:
    """The mean distance to ``target`` of the replicas under ``policy``:
    the f part of the variational objective of that distance."""
    return variational_objective(
        model, distance_to_target_functional(target, mode=mode), policy,
        n_particles, grid, n_replicas, seed=seed, budget=budget).f_part


@shared_replica_draws()
def estimate_rate(model: ModelSpec, target, lambda_schedule, family: PolicyFamily,
                  n_particles: int, grid: TimeGrid, n_replicas: int,
                  budget: int, seed: int = 0, radius: float = 0.1,
                  distance_mode: str = "terminal",
                  sim_budget=None) -> RateEstimate:
    """Upper estimate of the rate of steering into a target neighborhood.

    For each penalty weight lambda the control family is optimized against
    F_lambda = lambda * distance(flow, target); each control whose achieved
    distance is within the radius bounds the rate from above by its cost,
    and the least such cost is reported.  No feasible lambda means the
    target is unreachable for this family and budget (the inf-over-empty-set
    = infinity branch).
    All optimizations and achieved distances share one draw of each
    replica's initial states and noise.
    """
    lambdas = [float(l) for l in lambda_schedule]
    if not lambdas or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise InputError("lambda schedule must be nonempty and increasing")
    dists, costs = [], []
    selected = (None, math.inf)  # the cheapest feasible lambda, its cost
    for lam in lambdas:
        f_lam = distance_to_target_functional(target, scale=lam,
                                              mode=distance_mode)
        res = optimize_controls(model, f_lam, family, n_particles, grid,
                                n_replicas, budget, seed=seed,
                                sim_budget=sim_budget)
        dist = achieved_distance(model, res.policy, target, n_particles, grid,
                                 n_replicas, seed, distance_mode, budget=sim_budget)
        dists.append(dist)
        costs.append(res.cost_part)
        if dist <= radius and res.cost_part < selected[1]:
            selected = (lam, res.cost_part)
    return RateEstimate(
        radius=radius, lambdas=tuple(lambdas),
        achieved_distances=tuple(dists), cost_values=tuple(costs),
        feasible=selected[0] is not None, upper_bound=max(0.0, selected[1]),
        selected_lambda=selected[0])
