"""Control policies and the quadratic control cost.

A control is an ordinary feedback rule h, that is an atomic relaxed control
(Dirac-valued time slices): for quadratic cost at fixed mean atomic
controls are optimal anyway.

Policies follow the coefficient contract of ``model``: states of shape
(..., N, d), with the matching (batched) node summary, give h that
broadcasts to (..., N, d1).  A control that is the same for every particle
is handed on as its one read-only (d1,) vector, and the stepping core
broadcasts it.  A stack of replicas shares one policy; per-particle
piecewise values, (N, d1) a cell, are the same in every replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import _MAGNITUDE_MAX, _bounded
from .integrator import TimeGrid
from .model import MeasureSummary


def ensemble_cost(h: np.ndarray, dt: float) -> float:
    """(1 / 2N) sum_i sum_k |h_{i,k}|^2 dt of one replica's controls h
    (n_steps, N, d1), exact for piecewise-constant h."""
    return float(np.sum(h ** 2) * dt / (2.0 * h.shape[1]))


# -- policy families -------------------------------------------------------------

class ControlPolicy:
    """Feedback rule h(t, x, mu); evaluate is vectorized over particles."""

    family = "base"

    def evaluate(self, t: float, states: np.ndarray,
                 mu: MeasureSummary) -> np.ndarray:
        """Return h values that broadcast to (..., N, d1), for states
        (..., N, d)."""
        raise NotImplementedError

    @property
    def policy_id(self) -> str:
        return self.family

    def is_zero(self) -> bool:
        return False


class ZeroPolicy(ControlPolicy):
    family = "zero"

    def __init__(self, d1: int):
        self.d1 = d1

    def evaluate(self, t, states, mu):
        return np.zeros(states.shape[:-1] + (self.d1,))

    def is_zero(self):
        return True


class ConstantPolicy(ControlPolicy):
    family = "constant"

    def __init__(self, v):
        self.v = np.atleast_1d(_bounded(v, "constant control"))

    def evaluate(self, t, states, mu):
        return self.v  # (d1,), read-only

    @property
    def policy_id(self):
        return f"constant({np.array2string(self.v, precision=6)})"

    def is_zero(self):
        return bool(np.all(self.v == 0.0))


class PiecewiseConstantPolicy(ControlPolicy):
    """Shared per-cell values, or per-particle when values is 3-d; cell k
    holds on [t_k, t_{k+1}) of ``grid``, the last also at its horizon."""

    family = "piecewise_constant"

    def __init__(self, values, grid: TimeGrid):
        values = _bounded(values, "control values")
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != grid.n_steps:
            raise InputError("values must have one row per grid cell")
        self.values = values
        self.grid = grid

    def evaluate(self, t, states, mu):
        u, n = t / self.grid.dt, self.grid.n_steps  # u in cells
        # t / dt is off by up to about u * 2**-52, so the slack grows with u:
        # a node's u may fall just short of its cell, the horizon's past n.
        slack = 1e-12 * max(1.0, u)
        if not -slack <= u <= n + slack:  # NaN too
            raise InputError(f"time {t} outside [0, {self.grid.horizon}], "
                             "the policy's grid")
        k = min(int(np.floor(u + slack)), n - 1)
        return self.values[k]  # (d1,) shared, or (N, d1) per particle

    def is_zero(self):
        return bool(np.all(self.values == 0.0))


class FeedbackPolicy(ControlPolicy):
    """h = clip(Theta^T phi(t, x, mean(mu)), bounds).

    Basis: tensor products of {1, t, x components, mean components} up to
    total degree 2.
    """

    family = "feedback"

    def __init__(self, weights, d: int, d1: int, bound: float = 3.0):
        self.bound = float(bound)
        if not 0 < self.bound <= _MAGNITUDE_MAX:  # NaN too
            raise InputError(f"feedback bound must be in (0, {_MAGNITUDE_MAX:g}], "
                             f"got {bound!r}")
        weights = _bounded(weights, "feedback weights")
        k = self.n_features(d)
        if weights.size != k * d1:
            raise InputError(f"feedback weights: need n_features({d}) * {d1} "
                             f"= {k * d1}, got {weights.size}")
        self.weights = weights.reshape(k, d1)

    @staticmethod
    def n_features(d: int) -> int:
        # linear part: 1, t, x (d), m (d); quadratic part: all products of
        # the 1 + 2d nonconstant linear terms, with repetition
        lin = 1 + 2 * d
        return 1 + lin + lin * (lin + 1) // 2

    @staticmethod
    def features(t: float, states: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """(..., N, n_features) for states (..., N, d) and a mean that
        broadcasts against them."""
        col = states.shape[:-1] + (1,)
        mrow = np.broadcast_to(mean, states.shape)
        lin = np.concatenate([np.full(col, t), states, mrow], axis=-1)
        i, j = np.triu_indices(lin.shape[-1])  # pairs i <= j, row-major
        return np.concatenate([np.ones(col), lin, lin[..., i] * lin[..., j]],
                              axis=-1)

    def evaluate(self, t, states, mu):
        phi = self.features(t, states, mu.mean)
        return np.clip(phi @ self.weights, -self.bound, self.bound)

    def is_zero(self):
        return bool(np.all(self.weights == 0.0))


# -- families for the optimizer ---------------------------------------------------

@dataclass(frozen=True)
class PolicyFamily:
    """Parameter space plus constructor for one policy family."""

    dim: int
    make: object = field(repr=False)  # callable theta -> ControlPolicy
    bound: float = 3.0


def constant_family(d1: int, bound: float = 3.0) -> PolicyFamily:
    def make(theta):
        return ConstantPolicy(np.clip(np.asarray(theta, dtype=float), -bound, bound))
    return PolicyFamily(dim=d1, make=make, bound=bound)


def feedback_family(d: int, d1: int, bound: float = 3.0) -> PolicyFamily:
    n_feat = FeedbackPolicy.n_features(d)

    def make(theta):
        return FeedbackPolicy(theta, d=d, d1=d1, bound=bound)
    return PolicyFamily(dim=n_feat * d1, make=make, bound=bound)

