"""Synchronous N-particle simulation and the mean-field reference flow.

Stepping is explicit Euler with start-of-step empirical coupling: at each
node the shared measure summary is computed from the current states, the
policy is evaluated per particle, and all particles advance one projected
step of ``integrator._advance``, the one stepping core.  That core builds
each node's empirical measure once; ``Ensemble.summaries`` keeps them, and
``empirical_measure_at`` reads them as they are instead of rebuilding them
from the states.  A flow is that tuple of node summaries: ``marginal_flow``
returns it, and the McKean-Vlasov reference flow is the marginal flow of
one large interacting ensemble.

``simulate_particle_system`` takes one replica (an int) or a ``range`` of
them.  A range is stepped as one batch by a single ``_advance`` call: the
returned ``Ensemble`` carries a replica axis after time in its path arrays
and batched node summaries.  A reader takes replica j in place: the slice
``[:, j]`` of a path array, ``summary.replica(j)`` of a node measure.  Each
replica's numbers are bit for bit those of simulating it alone; an int
replica is the one-replica case of the same path, with no replica axis.

Noise is pre-assigned per (replica, particle) substream, so results do not
depend on execution order, batching or worker count.  The Philox keys of a
replica's particles are derived in one batch (``rng.substream_keys``) and
are bit-identical to the per-particle ``SeedSequence`` keys of
``rng.substream``.  Each particle is still drawn from its own substream
(``rng.iter_substreams`` re-keys one generator per particle), but all
replicas of a call are stored in one time-major (n, R, N, d1) buffer,
filled by one ``integrator.brownian_increments`` call per replica (which
draws a bounded block of particles at a time), so the stepping core reads
each step's noise contiguously; ``Ensemble.noises`` is a read-only view of
that buffer.

Inside ``shared_replica_draws`` the initial states and noise of a call are
drawn once and reused by every simulation of the same (model, seed,
replica or range, N, grid), which is how the optimizer's common random
numbers avoid redrawing them on every evaluation.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .controls import ControlPolicy
from .errors import BudgetError, InputError
from .geometry import _is_count
from .integrator import (BoundaryEvents, TimeGrid, _advance,
                         brownian_increments)
from .model import MeasureSummary, ModelSpec
from . import rng as rngmod

DEFAULT_STEP_BUDGET = 500_000_000  # particle-steps x max(d, d1) values


@dataclass(frozen=True)
class Ensemble:
    """N reflected paths plus their noise and applied controls.

    For a batch (``replica`` a range of R replicas) every path array has an
    R axis after time, e.g. states (n+1, R, N, d), and each summary is
    batched; replica j is read in place, as ``[:, j]`` of a path array and
    ``summary.replica(j)`` of a node measure.  ``write_paths_csv`` and the
    submartingale diagnostics take one replica's ensemble.

    The reflection is held as ``events``, the particle-steps with a nonzero
    overshoot.  ``reflection`` (n+1, N, d), ``local_time`` (n+1, N) and
    ``boundary_hits`` (n, N) are each built from them on first read and
    then kept; reading one builds neither of the others.
    """

    grid: TimeGrid
    replica: int | range
    states: np.ndarray        # (n+1, N, d)
    events: BoundaryEvents    # particle-steps with a nonzero overshoot
    noises: np.ndarray        # (n, N, d1) increments, time-major, read-only
    controls: np.ndarray      # (n, N, d1) applied h values per cell
    summaries: tuple          # (n+1,) MeasureSummary per node, views of states

    @property
    def n_particles(self) -> int:
        return self.states.shape[-2]

    @cached_property
    def reflection(self) -> np.ndarray:
        """Accumulated boundary displacement y - p, (n+1, N, d)."""
        return self.events.reflection()

    @cached_property
    def local_time(self) -> np.ndarray:
        """Accumulated |y - p|, (n+1, N)."""
        return self.events.local_time()

    @cached_property
    def boundary_hits(self) -> np.ndarray:
        """Whether each particle-step hit the boundary, (n, N) bool."""
        return self.events.hits()


def cumulative_noise(noises: np.ndarray):
    """Yield w(t_0), ..., w(t_n) of time-major increments (n, ...), one row
    at a time: w(0) = 0, w(t_1) the first increment as it is (signed zeros
    kept), then a running ``np.add`` into a new array each step.  No row is
    written after it is yielded, so a reader may keep the rows it needs.
    """
    yield np.zeros(noises.shape[1:])
    w = noises[0]
    yield w
    for k in range(1, noises.shape[0]):
        w = np.add(w, noises[k])
        yield w


def _check_single(ens: Ensemble, what: str):
    if isinstance(ens.replica, range):
        raise InputError(f"{what} takes the ensemble of one int replica, "
                         "not a batch")


def _check_budget(n_particles: int, n_steps: int, width: int,
                  budget: int | None):
    """A particle-step counts as its ``width`` = max(d, d1) stored values."""
    budget = DEFAULT_STEP_BUDGET if budget is None else budget
    if n_particles * n_steps * width > budget:
        raise BudgetError(
            f"{n_particles} particles x {n_steps} steps x {width} values "
            f"exceeds budget {budget}")


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
                   seed: int, replica: int | range):
    """Initial states (..., N, d) and noise (n, ..., N, d1) of one replica or
    a range of them, memoized inside a scope.

    The noise of all replicas is drawn into one time-major (n, R, N, d1)
    buffer, returned read-only: one ``brownian_increments`` call a replica,
    one substream per (replica, particle).  The memo is keyed on the model
    object itself, which hashes by identity.
    """
    memo = _REPLICA_DRAWS.get()
    key = (model, seed, replica, n_particles, grid)
    if memo is not None and key in memo:
        return memo[key]
    batch = isinstance(replica, range)
    replicas = replica if batch else range(replica, replica + 1)
    states0 = np.empty((len(replicas), n_particles, model.d))
    noises = np.empty((grid.n_steps, len(replicas), n_particles, model.d1))
    for j, r in enumerate(replicas):
        init_rng = rngmod.substream(seed, rngmod.INIT, r)
        states0[j] = model.initial_states(n_particles, init_rng)
        gens = rngmod.iter_substreams(seed, rngmod.NOISE, r,
                                      last=np.arange(n_particles))
        brownian_increments(gens, grid.dt, noises[:, j])
    noises.flags.writeable = False
    if not batch:
        states0, noises = states0[0], noises[:, 0]
    if memo is not None:
        states0.flags.writeable = False
        memo[key] = states0, noises
    return states0, noises


def simulate_particle_system(model: ModelSpec, n_particles: int, grid: TimeGrid,
                             policy: ControlPolicy | None = None, seed: int = 0,
                             replica: int | range = 0,
                             budget: int | None = None) -> Ensemble:
    """Simulate the (controlled) interacting system of N reflected paths.

    ``replica`` is one replica index or a nonempty ``range`` of them, all
    stepped in one batch.  ``budget`` bounds the particle-steps of each
    replica's simulation, each counted as max(d, d1) values, whatever the
    batch size.
    """
    if not _is_count(n_particles):
        raise InputError(f"n_particles must be an integer >= 1, got {n_particles!r}")
    if isinstance(replica, range) and len(replica) == 0:
        raise InputError("need at least one replica")
    _check_budget(n_particles, grid.n_steps, max(model.d, model.d1), budget)
    states0, noises = _replica_draws(model, grid, n_particles, seed, replica)
    states, events, controls, summaries = _advance(
        model, grid, states0, noises, policy, mu_flow=None)
    return Ensemble(
        grid=grid, replica=replica, states=states, events=events,
        noises=noises, controls=controls, summaries=summaries)


def empirical_measure_at(ens: Ensemble, t: float) -> MeasureSummary:
    """Uniform empirical measure of the particle states at a grid node."""
    return ens.summaries[ens.grid.node_index(t)]


def marginal_flow(ens: Ensemble) -> tuple:
    """The flow t_k -> mu^N(t_k): the per-node empirical measures the
    simulation built, ``ens.summaries`` itself."""
    return ens.summaries


# -- McKean-Vlasov reference flow ----------------------------------------------------

def solve_mckean_vlasov_reference(model: ModelSpec, grid: TimeGrid,
                                  n_ref: int = 4096, seed: int = 0,
                                  budget: int | None = None) -> tuple:
    """Approximate the law flow of the reflected McKean-Vlasov equation by
    the marginal flow of one interacting ensemble of ``n_ref`` particles,
    which propagation of chaos makes close to it for large ``n_ref``: a
    tuple of one summary per grid node, like ``marginal_flow``."""
    if not _is_count(n_ref):
        raise InputError(f"n_ref must be an integer >= 1, got {n_ref!r}")
    ens = simulate_particle_system(model, n_ref, grid, policy=None,
                                   seed=seed, replica=0, budget=budget)
    return marginal_flow(ens)


# -- export ---------------------------------------------------------------------------

def write_paths_csv(ens: Ensemble, path: str):
    """RFC-4180 CSV: one row per particle per node, for one replica, written
    as ``distances.csv`` is: fields joined by commas, floats by ``repr``,
    rows ended by CRLF, nothing quoted; a node at a time."""
    _check_single(ens, "write_paths_csv")
    d = ens.states.shape[-1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["replica", "particle", "k", "t"]
                          + [f"x{c}" for c in range(d)] + ["abs_K"]) + "\r\n")
        for k, t in enumerate(ens.grid.nodes.tolist()):
            lead = f",{k},{t!r},"
            fh.write("".join(
                f"{ens.replica},{i}{lead}{','.join(map(repr, x))},{ell!r}\r\n"
                for i, (x, ell) in enumerate(zip(ens.states[k].tolist(),
                                                 ens.local_time[k].tolist()))))

