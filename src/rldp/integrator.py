"""Projected-Euler integration of reflected paths: the one stepping core.

Reflection is realized by Euclidean projection onto the closed domain: for
convex domains the overshoot y - project(y) is parallel to the outward
normal at the projected point, so the scheme's accumulated displacement is
the discrete analogue of the boundary term and its magnitude plays the
role of the local time (in scheme units).

``_advance`` is the only stepping core: it chains ``_step`` (update,
projection, overshoot) over the grid for a batch of particles.  The
``ensemble`` system and Picard flow run on it, ``simulate_reflected_path``
on a one-particle batch; ``step_reflected`` is one checked ``_step``.

Controls are piecewise constant on grid cells, one value per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, PreconditionError
from .geometry import ConvexDomain, EXTERIOR
from .model import MeasureSummary, ModelSpec, coefficients_batch


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k dt on [0, T]."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise InputError("horizon must be positive")
        if self.n_steps < 1:
            raise InputError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def node_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of the grid node equal to t; off-grid times are errors."""
        k = round(t / self.dt)
        if not 0 <= k <= self.n_steps or abs(t - k * self.dt) > tol:
            raise InputError(f"time {t} is not a grid node")
        return int(k)

    def refine(self, factor: int = 2) -> "TimeGrid":
        return TimeGrid(self.horizon, self.n_steps * factor)


@dataclass(frozen=True)
class ReflectedPath:
    """One trajectory with its reflection bookkeeping."""

    grid: TimeGrid
    states: np.ndarray          # (n+1, d), all in the closed domain
    reflection: np.ndarray      # (n+1, d), accumulated y - project(y)
    local_time: np.ndarray      # (n+1,), accumulated |y - project(y)|
    boundary_hits: np.ndarray   # (n,), bool per step

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


def _step(domain: ConvexDomain, x, drift, control, noise, dt: float):
    """y = x + (b dt + sigma dW [+ sigma h dt]) projected onto the domain.

    ``control`` (or None) and ``noise`` are already multiplied by sigma.
    Returns (p, y - p, |y - p|, hit), with p the projection of y.
    """
    move = drift * dt + noise
    if control is not None:
        move += control * dt
    y = x + move
    p, hit, disp = domain.project(y)
    return p, y - p, disp, hit


def _advance(model: ModelSpec, grid: TimeGrid, states0: np.ndarray,
             noises: np.ndarray, policy, mu_flow):
    """The stepping core: chain ``_step`` along the grid for a batch.

    ``policy`` is a ControlPolicy or None; its ``is_zero()`` is asked once
    per call, so a policy must not change during one.  When mu_flow is None
    the coefficients couple to the start-of-step empirical measure (the
    interacting system); otherwise the frozen flow mu_flow[k] is used
    (i.i.d. paths driven by an external law).
    """
    n, n_particles = grid.n_steps, states0.shape[0]
    d, d1 = model.d, model.d1
    dt, domain = grid.dt, model.domain

    states = np.empty((n + 1, n_particles, d))
    reflection = np.zeros((n + 1, n_particles, d))
    local_time = np.zeros((n + 1, n_particles))
    hits = np.zeros((n, n_particles), dtype=bool)
    controls = np.zeros((n, n_particles, d1))

    controlled = policy is not None and not policy.is_zero()
    x = states0.copy()
    states[0] = x
    for k in range(n):
        t = grid.nodes[k]
        mu = mu_flow[k] if mu_flow is not None else MeasureSummary.from_points(x)
        b, sig = coefficients_batch(model, t, x, mu)
        if controlled:
            h = policy.evaluate(t, x, mu)
            controls[k] = h
            control = np.einsum("nij,nj->ni", sig, h)
        else:
            control = None
        p, overshoot, disp, hits[k] = _step(
            domain, x, b, control, np.einsum("nij,nj->ni", sig, noises[k]), dt)
        states[k + 1] = p
        reflection[k + 1] = reflection[k] + overshoot
        local_time[k + 1] = local_time[k] + disp
        x = p
    return states, reflection, local_time, hits, controls


def step_reflected(domain: ConvexDomain, x, drift_term, control_term,
                   noise_term, dt: float):
    """One checked projected-Euler step from a state inside the closed domain.

    Returns (x_next, dK, d_abs_K, hit).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if dt <= 0:
        raise InputError("dt must be positive")
    if domain.contains(x) == EXTERIOR:
        raise PreconditionError("step_reflected requires x in the closed domain")
    terms = [np.atleast_1d(np.asarray(v, dtype=float))
             for v in (drift_term, control_term, noise_term)]
    if not all(np.all(np.isfinite(v)) for v in terms):
        raise InputError("step terms must be finite")
    p, dK, disp, hit = _step(domain, x, *terms, dt)
    return p, dK, float(disp), bool(hit)


def simulate_reflected_path(model: ModelSpec, grid: TimeGrid,
                            mu_flow, control, noise, x0) -> ReflectedPath:
    """One path under a frozen measure flow: a one-particle ``_advance``.

    mu_flow: one MeasureSummary per grid node (len n_steps + 1).
    control: per-cell h values, shape (n_steps, d1) (or None for zero).
    noise:   Brownian increments, shape (n_steps, d1).
    """
    from .controls import PiecewiseConstantPolicy  # local import to avoid a cycle

    d1, n = model.d1, grid.n_steps
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (n, d1):
        raise InputError(f"noise must have shape ({n}, {d1})")
    policy = None
    if control is not None:
        control = np.asarray(control, dtype=float)
        if control.shape == (n + 1, d1):
            control = control[:-1]
        if control.shape != (n, d1):
            raise InputError(f"control must have shape ({n}, {d1})")
        policy = PiecewiseConstantPolicy(control, grid)
    if len(mu_flow) != n + 1:
        raise InputError("mu_flow must supply one summary per grid node")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if model.domain.contains(x) == EXTERIOR:
        raise PreconditionError("initial state outside the closed domain")
    states, reflection, local_time, hits, _ = _advance(
        model, grid, x[None, :], noise[:, None, :], policy, mu_flow)
    return ReflectedPath(grid=grid, states=states[:, 0],
                         reflection=reflection[:, 0],
                         local_time=local_time[:, 0], boundary_hits=hits[:, 0])


# -- Brownian increment helpers -------------------------------------------------

def brownian_increments(rng: np.random.Generator, n_steps: int, d1: int,
                        dt: float) -> np.ndarray:
    """(n_steps, d1) i.i.d. N(0, dt I) increments."""
    return rng.standard_normal((n_steps, d1)) * np.sqrt(dt)


def refine_increments(dW: np.ndarray, dt: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Halve the step via Brownian-bridge midpoint sampling.

    Splits each increment over [t, t + dt] into two half-step increments
    that sum to it, so coarse and fine grids are couplings of the same
    Brownian motion.  Returns shape (2 n_steps, d1) at step dt / 2.
    """
    dW = np.asarray(dW, dtype=float)
    n, d1 = dW.shape
    xi = rng.standard_normal((n, d1)) * np.sqrt(dt / 4.0)
    first = dW / 2.0 + xi
    second = dW / 2.0 - xi
    out = np.empty((2 * n, d1))
    out[0::2] = first
    out[1::2] = second
    return out


def coarsen_increments(dW: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive blocks of increments (inverse view of refinement)."""
    dW = np.asarray(dW, dtype=float)
    n, d1 = dW.shape
    if n % factor != 0:
        raise InputError("n_steps must be divisible by the coarsening factor")
    return dW.reshape(n // factor, factor, d1).sum(axis=1)
