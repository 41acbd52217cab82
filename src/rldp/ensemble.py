"""Synchronous N-particle simulation and the mean-field reference flow.

Stepping is explicit Euler with start-of-step empirical coupling: at each
node the shared measure summary is computed from the current states, the
policy is evaluated per particle, and all particles advance one projected
step of ``integrator._advance``, the one stepping core, which the Picard
flow runs as well.  Noise is pre-assigned per (replica, particle)
substream, so results do not depend on execution order or worker count.  The Philox keys of a
replica's particles are derived in one batch (``rng.substream_keys``) and
are bit-identical to the per-particle ``SeedSequence`` keys of
``rng.substream``.  ``Ensemble.noises`` is a read-only view of a
particle-major buffer and need not be contiguous.

Inside ``shared_replica_draws`` each replica's initial states and noise are
drawn once and reused by every simulation of the same (model, seed,
replica, N, grid), which is how the optimizer's common random numbers avoid
redrawing them on every evaluation.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .controls import ControlPolicy
from .errors import BudgetError, InputError
from .integrator import ReflectedPath, TimeGrid, _advance, brownian_increments
from .measures import bl_distance
from .model import MeasureSummary, ModelSpec
from . import rng as rngmod

DEFAULT_STEP_BUDGET = 500_000_000  # particle-steps


@dataclass(frozen=True)
class Ensemble:
    """N reflected paths plus their noise and applied controls."""

    model_id: str
    grid: TimeGrid
    seed: int
    replica: int
    states: np.ndarray        # (n+1, N, d)
    reflection: np.ndarray    # (n+1, N, d) accumulated boundary displacement
    local_time: np.ndarray    # (n+1, N)
    boundary_hits: np.ndarray  # (n, N) bool
    noises: np.ndarray        # (n, N, d1) Brownian increments, read-only view
    controls: np.ndarray      # (n, N, d1) applied h values per cell
    policy_id: str
    init_kind: str

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]

    def path(self, i: int) -> ReflectedPath:
        return ReflectedPath(
            grid=self.grid,
            states=self.states[:, i, :],
            reflection=self.reflection[:, i, :],
            local_time=self.local_time[:, i],
            boundary_hits=self.boundary_hits[:, i],
        )

    def noise_paths(self) -> np.ndarray:
        """Cumulative driving noise w(t_k), shape (n+1, N, d1), w(0) = 0.

        Summed along time in the particle-major layout of the noise buffer;
        the result is the transposed view of an (N, n+1, d1) array.
        """
        n, N, d1 = self.noises.shape
        w = np.zeros((N, n + 1, d1))
        np.cumsum(self.noises.transpose(1, 0, 2), axis=1, out=w[:, 1:])
        return w.transpose(1, 0, 2)


@dataclass(frozen=True)
class MeasureFlow:
    """Per-node measure summaries nu(t_k), plus solver metadata."""

    grid: TimeGrid
    summaries: list
    method: str = "direct"
    converged: bool = True
    iteration_distances: tuple = ()

    def __post_init__(self):
        if len(self.summaries) != self.grid.n_steps + 1:
            raise InputError("flow must have one summary per grid node")

    def __getitem__(self, k: int) -> MeasureSummary:
        return self.summaries[k]

    def __len__(self) -> int:
        return len(self.summaries)

    def at_time(self, t: float) -> MeasureSummary:
        return self.summaries[self.grid.node_index(t)]

    @property
    def terminal(self) -> MeasureSummary:
        return self.summaries[-1]


def _check_budget(n_particles: int, n_steps: int, budget: int | None):
    budget = DEFAULT_STEP_BUDGET if budget is None else budget
    if n_particles * n_steps > budget:
        raise BudgetError(
            f"{n_particles} particles x {n_steps} steps exceeds budget {budget}")


def _particle_noise(seed: int, replica: int, n_particles: int, n_steps: int,
                    d1: int, dt: float) -> np.ndarray:
    """Pre-assigned increments, one substream per (replica, particle).

    Drawn particle-major into an (N, n, d1) buffer; the (n, N, d1) result is
    its read-only transposed view, not a copy.
    """
    buf = np.empty((n_particles, n_steps, d1))
    gens = rngmod.iter_substreams(seed, rngmod.NOISE, replica,
                                  last=np.arange(n_particles))
    for i, gen in enumerate(gens):
        buf[i] = brownian_increments(gen, n_steps, d1, dt)
    buf.flags.writeable = False
    return buf.transpose(1, 0, 2)


# Memo of the active shared_replica_draws scope, or None outside one.
_REPLICA_DRAWS: ContextVar[dict | None] = ContextVar("rldp_replica_draws",
                                                     default=None)


@contextmanager
def shared_replica_draws():
    """Scope in which each replica's initial states and noise are drawn once.

    Within it, ``simulate_particle_system`` reuses the draws of an earlier
    call with the same model object, seed, replica, particle count and grid;
    the results are bit-identical to drawing afresh.  Entering while a scope
    is active joins that scope.  The draws are dropped when the outermost
    scope exits.
    """
    if _REPLICA_DRAWS.get() is not None:
        yield
        return
    token = _REPLICA_DRAWS.set({})
    try:
        yield
    finally:
        _REPLICA_DRAWS.reset(token)


def _replica_draws(model: ModelSpec, grid: TimeGrid, n_particles: int,
                   seed: int, replica: int):
    """Initial states and noise of one replica, memoized inside a scope."""
    memo = _REPLICA_DRAWS.get()
    key = (id(model), seed, replica, n_particles, grid)
    if memo is not None and key in memo:
        return memo[key][1:]
    init_rng = rngmod.substream(seed, rngmod.INIT, replica)
    states0 = model.initial_states(n_particles, init_rng)
    noises = _particle_noise(seed, replica, n_particles, grid.n_steps,
                             model.d1, grid.dt)
    if memo is not None:
        states0.flags.writeable = False
        memo[key] = (model, states0, noises)  # the model pins its id
    return states0, noises


def simulate_particle_system(model: ModelSpec, n_particles: int, grid: TimeGrid,
                             policy: ControlPolicy | None = None, seed: int = 0,
                             replica: int = 0,
                             budget: int | None = None) -> Ensemble:
    """Simulate the (controlled) interacting system of N reflected paths."""
    if n_particles < 1:
        raise InputError("need at least one particle")
    _check_budget(n_particles, grid.n_steps, budget)
    states0, noises = _replica_draws(model, grid, n_particles, seed, replica)
    states, reflection, local_time, hits, controls = _advance(
        model, grid, states0, noises, policy, mu_flow=None)
    return Ensemble(
        model_id=model.name, grid=grid, seed=seed, replica=replica,
        states=states, reflection=reflection, local_time=local_time,
        boundary_hits=hits, noises=noises, controls=controls,
        policy_id=policy.policy_id if policy is not None else "zero",
        init_kind=model.init_kind,
    )


def empirical_measure_at(ens: Ensemble, t: float) -> MeasureSummary:
    """Uniform empirical measure of the particle states at a grid node."""
    k = ens.grid.node_index(t)
    return MeasureSummary.from_points(ens.states[k])


def marginal_flow(ens: Ensemble, method: str = "empirical") -> MeasureFlow:
    summaries = [MeasureSummary.from_points(ens.states[k])
                 for k in range(ens.grid.n_steps + 1)]
    return MeasureFlow(grid=ens.grid, summaries=summaries, method=method)


# -- McKean-Vlasov reference flow ----------------------------------------------------

def solve_mckean_vlasov_reference(model: ModelSpec, grid: TimeGrid,
                                  method: str = "large_N",
                                  n_ref: int = 4096, seed: int = 0,
                                  n_iter: int = 8, n_inner: int = 1024,
                                  tol: float = 5e-3,
                                  budget: int | None = None) -> MeasureFlow:
    """Approximate the law flow of the reflected McKean-Vlasov equation.

    large_N: marginal flow of one big interacting ensemble.
    picard:  iterate nu^(m+1) = marginal flow of n_inner i.i.d. paths driven
             by the frozen flow nu^(m), from the constant-in-time initial flow.
    """
    if method == "large_N":
        if n_ref < 1:
            raise InputError("n_ref must be >= 1")
        ens = simulate_particle_system(model, n_ref, grid, policy=None,
                                       seed=seed, replica=0, budget=budget)
        flow = marginal_flow(ens)
        return MeasureFlow(grid=grid, summaries=flow.summaries, method="large_N")

    if method != "picard":
        raise InputError(f"unknown method {method!r}")
    if n_iter < 1:
        raise InputError("n_iter must be >= 1")
    _check_budget(n_inner, grid.n_steps * n_iter, budget)

    states0, noises = _replica_draws(model, grid, n_inner, seed, 0)
    nu0 = MeasureSummary.from_points(states0)
    flow = MeasureFlow(grid=grid,
                       summaries=[nu0] * (grid.n_steps + 1), method="picard")

    distances = []
    converged = False
    increases = 0
    for m in range(n_iter):
        states, *_ = _advance(model, grid, states0, noises, None, mu_flow=flow)
        new_summaries = [MeasureSummary.from_points(states[k])
                         for k in range(grid.n_steps + 1)]
        dist = max(bl_distance(a, b).value
                   for a, b in zip(flow.summaries, new_summaries))
        distances.append(dist)
        flow = MeasureFlow(grid=grid, summaries=new_summaries, method="picard")
        if dist < tol:
            converged = True
            break
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            increases += 1
            if increases >= 3:
                break
        else:
            increases = 0
    return MeasureFlow(grid=grid, summaries=flow.summaries, method="picard",
                       converged=converged,
                       iteration_distances=tuple(distances))


# -- export ---------------------------------------------------------------------------

def write_paths_csv(ens: Ensemble, path: str):
    """RFC-4180 CSV: one row per particle per node."""
    d = ens.states.shape[2]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica", "particle", "k", "t"]
                        + [f"x{c}" for c in range(d)] + ["abs_K"])
        for k in range(ens.grid.n_steps + 1):
            t = ens.grid.nodes[k]
            for i in range(ens.n_particles):
                writer.writerow(
                    [ens.replica, i, k, repr(float(t))]
                    + [repr(float(v)) for v in ens.states[k, i]]
                    + [repr(float(ens.local_time[k, i]))])

