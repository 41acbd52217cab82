"""Projected-Euler integration of reflected paths: the one stepping core.

Reflection is realized by Euclidean projection onto the closed domain: for
convex domains the overshoot y - project(y) is parallel to the outward
normal at the projected point, so the scheme's accumulated displacement is
the discrete analogue of the boundary term and its magnitude plays the
role of the local time (in scheme units).

``_advance`` is the only stepping core: it chains ``_step`` (update,
projection, overshoot) over the grid for states of shape (..., N, d) and
builds each node's empirical measure once.  Leading axes before the N
particles stack independent systems (replicas), so one call steps a whole
Monte Carlo batch; each replica gets the bits it would get alone.  The
``ensemble`` system (one replica or a range of them, and the large
ensemble of the mean-field reference flow) runs on it, and
``simulate_reflected_path`` on a one-particle system.

Reflection acts only on the boundary: the projection moves only points
outside the domain, so the core keeps the overshoot of the few
particle-steps that have one (``BoundaryEvents``), not dense reflection and
local-time paths; those, |y - p| and the hits are rebuilt from the events,
bit for bit, when read.

Controls are piecewise constant on grid cells, one value per cell.

``brownian_increments`` is the one noise draw: it fills a time-major array
of P paths, each from its own generator, through a particle-major scratch
block it bounds itself, and a single path is the case P = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, PreconditionError
from .geometry import (_MAGNITUDE_MAX, ConvexDomain, _is_count, _is_positive,
                       _row_norm)
from .model import MeasureSummary, ModelSpec, coefficients_batch


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k dt on [0, T], the one horizon T of a run: a
    number in (0, ``_MAGNITUDE_MAX``]."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        h, n = self.horizon, self.n_steps
        if not (_is_positive(h) and h <= _MAGNITUDE_MAX):
            raise InputError(f"horizon {h!r} not in (0, {_MAGNITUDE_MAX:g}]")
        if not _is_count(n):
            raise InputError(f"n_steps must be an integer >= 1, got {n!r}")
        if n > 2**1023 or not h / n > 0.0:  # past the float range, or 0
            raise InputError(f"the step horizon / n_steps must be a float "
                             f"> 0, with horizon {h!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def node_index(self, t: float) -> int:
        """Index of the grid node k dt within 1e-9 horizons of t; off-grid
        times are errors.  It reads no ``nodes``, so checking a time on a
        grid too large to build costs nothing."""
        k = round(t / self.dt) if 0.5 * abs(t) <= self.horizon else -1
        if not 0 <= k <= self.n_steps or abs(t - k * self.dt) > 1e-9 * self.horizon:
            raise InputError(f"time {t} is not a grid node")
        return k


@dataclass(frozen=True)
class ReflectedPath:
    """One trajectory with its reflection bookkeeping."""

    states: np.ndarray          # (n+1, d), all in the closed domain
    reflection: np.ndarray      # (n+1, d), accumulated y - project(y)
    local_time: np.ndarray      # (n+1,), accumulated |y - project(y)|
    boundary_hits: np.ndarray   # (n,), bool per step


# Overshoot rows of consecutive steps scanned for events at once (at least
# one step): small systems pay the scan's call overhead once, not per step.
_EVENT_SCAN_BYTES = 256 * 1024


@dataclass(frozen=True)
class BoundaryEvents:
    """The particle-steps of a run whose overshoot y - p is nonzero.

    ``shape`` is (n, ..., N), steps first; ``index`` (E,) numbers the events
    in that layout flattened, ascending, and ``overshoot`` (E, d) holds their
    y - p rows.  Every other particle-step has a zero overshoot, whose
    addition leaves a running sum from +0.0 unchanged (such a sum is never
    -0.0), so the events alone give the dense paths of the stepping core.
    An event need not be a hit: an overshoot of 1e-170 is kept though its
    norm underflows to 0.
    """

    shape: tuple
    index: np.ndarray
    overshoot: np.ndarray

    def _accumulate(self, values: np.ndarray) -> np.ndarray:
        """The running sum over steps of per-event ``values`` (E, ...), zero
        off the events: out[0] = 0 and out[k+1] = out[k] + step k's values by
        ``np.add``, shape (n+1, ..., N, ...)."""
        n, lead, tail = self.shape[0], self.shape[1:], values.shape[1:]
        out = np.zeros((n + 1, *lead, *tail))
        # step k's values at out[k + 1]; out is contiguous, so this is a view
        out[1:].reshape(-1, *tail)[self.index] = values
        for k in range(n):
            np.add(out[k], out[k + 1], out=out[k + 1])
        return out

    def reflection(self) -> np.ndarray:
        """Accumulated y - p, shape (n+1, ..., N, d)."""
        return self._accumulate(self.overshoot)

    def local_time(self) -> np.ndarray:
        """Accumulated |y - p|, shape (n+1, ..., N): an event's |y - p| is
        the ``_row_norm`` of its overshoot row."""
        return self._accumulate(_row_norm(self.overshoot))

    def hits(self) -> np.ndarray:
        """Boundary hits, |y - p| > 0, shape (n, ..., N)."""
        hits = np.zeros(math.prod(self.shape), dtype=bool)
        hits[self.index] = _row_norm(self.overshoot) > 0.0
        return hits.reshape(self.shape)


def _step(domain: ConvexDomain, x, drift, control, noise, dt: float,
          out: np.ndarray) -> np.ndarray:
    """y = x + (b dt + sigma dW [+ sigma h dt]) projected onto the domain.

    ``control`` (or None) and ``noise`` are already multiplied by sigma.
    The projection p of y is written into ``out``, a float array of y's
    shape, and the overshoot y - p returned: it is nonzero exactly on the
    particle-steps the projection moved.
    """
    move = drift * dt + noise
    if control is not None:
        move += control * dt
    y = x + move
    return y - domain.project(y, out=out)


def _advance(model: ModelSpec, grid: TimeGrid, states0: np.ndarray,
             noises: np.ndarray, policy, mu_flow):
    """The stepping core: chain ``_step`` along the grid for a batch.

    ``states0`` has shape (..., N, d) and ``noises`` (n, ..., N, d1); the
    leading axes are replicas, each an interacting system of its own.  The
    path arrays keep time first: states (n+1, ..., N, d) and controls
    (n, ..., N, d1).  Of the reflection only the ``BoundaryEvents`` are
    kept, the particle-steps with a nonzero overshoot; they give the dense
    reflection, local time and hits when asked.

    ``policy`` is a ControlPolicy or None; its ``is_zero()`` is asked once
    per call, so a policy must not change during one.  When mu_flow is None
    the coefficients couple to the start-of-step empirical measure (the
    interacting system); otherwise the frozen flow mu_flow[k] is used
    (i.i.d. paths driven by an external law).

    ``_step`` writes each step's projection straight into ``states[k + 1]``
    and hands back only the overshoot, and the coefficients and the policy
    of every step read the view ``states[k]``: no step copies the states.

    The uniform empirical measure of every node is built here, once, from
    the view ``states[k]`` (so it shares the states' memory), and returned
    as a tuple of n + 1 summaries after the controls: it is the
    coupling measure of the interacting system and the marginal flow that
    ``ensemble`` reads.  For a batch it is one batched
    summary per node, whose mean broadcasts against the states.
    """
    n, lead = grid.n_steps, states0.shape[:-1]
    d, d1 = model.d, model.d1
    dt, domain = grid.dt, model.domain

    m = math.prod(lead)
    states = np.empty((n + 1, *lead, d))
    controls = np.zeros((n, *lead, d1))
    summaries, index, rows, pending = [], [], [], []
    per_scan = max(1, _EVENT_SCAN_BYTES // (8 * m * d))

    controlled = policy is not None and not policy.is_zero()
    states[0] = states0
    for k in range(n):
        t, x = grid.nodes[k], states[k]
        summaries.append(MeasureSummary.from_points(x))
        mu = summaries[k] if mu_flow is None else mu_flow[k]
        b, sig = coefficients_batch(model, t, x, mu)
        if controlled:
            h = policy.evaluate(t, x, mu)
            controls[k] = h
            control = np.einsum("...ij,...j->...i", sig, h)
        else:
            control = None
        pending.append(_step(
            domain, x, b, control,
            np.einsum("...ij,...j->...i", sig, noises[k]), dt, states[k + 1]))
        if len(pending) == per_scan or k == n - 1:
            # the pending particle-steps with a nonzero y - p, each once
            block = (pending[0] if len(pending) == 1
                     else np.concatenate(pending)).reshape(-1, d)
            at = np.flatnonzero(block != 0.0) // d
            at = at[np.diff(at, prepend=-1) != 0]
            index.append(at + (k + 1 - len(pending)) * m)
            rows.append(block[at])
            pending = []
    summaries.append(MeasureSummary.from_points(states[n]))
    events = BoundaryEvents((n, *lead), np.concatenate(index),
                            np.concatenate(rows))
    return states, events, controls, tuple(summaries)


def simulate_reflected_path(model: ModelSpec, grid: TimeGrid,
                            mu_flow, noise, x0) -> ReflectedPath:
    """One uncontrolled path under a frozen measure flow: a one-particle
    ``_advance``.

    mu_flow: one MeasureSummary per grid node (len n_steps + 1).
    noise:   Brownian increments, shape (n_steps, d1).
    """
    d1, n = model.d1, grid.n_steps
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (n, d1):
        raise InputError(f"noise must have shape ({n}, {d1})")
    if len(mu_flow) != n + 1:
        raise InputError("mu_flow must supply one summary per grid node")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.ndim != 1:
        raise InputError("x0 must be a single point")
    if not model.domain.contains_all(x):
        raise PreconditionError("initial state outside the closed domain")
    states, events, *_ = _advance(
        model, grid, x[None, :], noise[:, None, :], None, mu_flow)
    return ReflectedPath(states=states[:, 0],
                         reflection=events.reflection()[:, 0],
                         local_time=events.local_time()[:, 0],
                         boundary_hits=events.hits()[:, 0])


# -- Brownian increment helpers -------------------------------------------------

_BLOCK_BYTES = 256 * 1024  # cap on the particle-major scratch of noise draws


def brownian_increments(gens, dt: float, out: np.ndarray) -> np.ndarray:
    """Write i.i.d. N(0, dt I) increments of P paths into ``out``, time-major
    (n_steps, P, d1), and return it.

    ``gens`` yields one generator per path, drawn from in turn and never
    advanced past the P-th; path j's increments ``out[:, j]`` are
    ``gen.standard_normal((n_steps, d1)) * np.sqrt(dt)`` of its generator,
    bit for bit.  The paths are drawn a block at a time into one
    particle-major scratch block of at most ``_BLOCK_BYTES`` (at least one
    path), scaled there in place, and moved into ``out`` as d1-wide
    records, one per (step, path): one strided copy per block rather than
    per path, and none whose innermost loop runs over d1 numbers.  ``out``
    must be a float64 array with a contiguous last axis (any strides
    before it), else ``InputError``.  One path is the case P = 1.
    """
    if not _is_positive(dt):
        raise InputError(f"dt must be a finite number > 0, got {dt!r}")
    n_steps, n_paths, d1 = out.shape
    if out.dtype != np.float64 or (d1 > 1 and out.strides[-1] != 8):
        raise InputError(f"out must be a float64 array with a contiguous "
                         f"last axis, got {out.dtype} with strides "
                         f"{out.strides}")
    records = out.view(f"V{8 * d1}")  # (n_steps, P, 1)
    per_block = max(1, _BLOCK_BYTES // max(1, 8 * n_steps * d1))
    scratch = np.empty((min(per_block, n_paths), n_steps, d1))
    gens = iter(gens)
    for lo in range(0, n_paths, per_block):
        block = scratch[:n_paths - lo]
        drawn = 0
        for drawn, (row, gen) in enumerate(zip(block, gens), 1):
            gen.standard_normal(out=row)
        if drawn < len(block):
            raise InputError(f"{n_paths} paths need as many generators, "
                             f"got {lo + drawn}")
        np.multiply(block, np.sqrt(dt), out=block)
        records[:, lo:lo + len(block)] = block.view(
            records.dtype).transpose(1, 0, 2)
    return out


def coarsen_increments(dW: np.ndarray, factor: int) -> np.ndarray:
    """Sum each block of ``factor`` consecutive increments (n_steps, d1):
    the same Brownian path's increments on a grid ``factor`` times coarser."""
    if not _is_count(factor):
        raise InputError(f"factor must be an integer >= 1, got {factor!r}")
    dW = np.asarray(dW, dtype=float)
    n, d1 = dW.shape
    if n % factor != 0:
        raise InputError("n_steps must be divisible by the coarsening factor")
    return dW.reshape(n // factor, factor, d1).sum(axis=1)
