"""Model coefficients and empirical-measure summaries.

Coefficient callables take (t, x, mu) where mu is a MeasureSummary.  They
must accept x of shape (d,), (N, d) or (..., N, d), and return arrays that
broadcast to x.shape for the drift and x.shape[:-1] + (d, d1) for the
diffusion.  ``coefficients_batch`` hands them on as computed, and the
stepping core and the generator broadcast them where they are used: a
coefficient that is the same for every particle, such as every zoo
model's sigma, stays one (d, d1) matrix (m3's: one per replica), never a
copy per particle, and a constant coefficient (``_constant``) is one
read-only array.  A state of
shape (..., N, d) with leading batch axes is a stack of independent
N-particle systems (replicas); its node summary is batched
the same way: ``points`` (..., N, d) and ``mean`` (..., 1, d), which
broadcasts against x.  An unbatched summary keeps its (d,) mean;
``replica(j)`` reads one measure of a batch as an unbatched summary,
without copying its points.  Every measure-dependent quantity a
coefficient reads (the mean, ``cov_trace()``) therefore carries the batch
axes, and a coefficient must keep them apart: m2's drift broadcasts as it
is, m3 reshapes the per-replica covariance trace.  Control policies follow
the same contract (see ``controls``).
All measure dependence enters through the summary: every measure the
simulator produces is uniform, (1/N) sum_i delta_{x_i}, so a summary is its
points and their mean.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InputError, ModelError
from .geometry import ConvexDomain, _bounded, _is_count, _row_sumsq


@lru_cache(maxsize=8)
def _uniform_weights(n: int) -> np.ndarray:
    """The read-only weight vector 1/n, shared by every uniform summary of
    n atoms rather than allocated once per node."""
    w = np.full(n, 1.0 / n)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class MeasureSummary:
    """The uniform empirical measure of its points, with their mean.

    Built by ``from_points`` (and ``dirac``, ``replica``), which take the
    mean from the points.  A batched summary stacks measures on the same
    number of atoms along leading axes of ``points``; see the module
    docstring for its shapes.  ``replica`` reads one measure of a batch
    with the bits it would get on its own.
    """

    points: np.ndarray   # (n, d), or (..., n, d) for a batch
    mean: np.ndarray     # (d,), or (..., 1, d) for a batch

    @staticmethod
    def from_points(points) -> "MeasureSummary":
        """The uniform empirical measure (1/n) sum_i delta_{x_i}.

        ``points`` (n, d) or a batch (..., n, d); the batched mean is the
        stacked product ``weights @ points``, bit for bit that of each
        measure alone.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[-2]
        if n == 0 or points.shape[-1] == 0:
            raise InputError(f"no atoms, or atoms in R^0: points of shape {points.shape}")
        if not np.all(np.isfinite(points)):
            raise InputError("support points must be finite")
        mean = _uniform_weights(n) @ points
        if points.ndim > 2:
            mean = mean[..., None, :]
        return MeasureSummary(points=points, mean=mean)

    @staticmethod
    def dirac(x) -> "MeasureSummary":
        return MeasureSummary.from_points(np.atleast_1d(np.asarray(x, dtype=float))[None, :])

    @property
    def dimension(self) -> int:
        return self.points.shape[-1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[-2]

    @property
    def weights(self) -> np.ndarray:
        """The read-only weights 1/n, (n,), shared by every summary of n
        atoms (a batch's measures too)."""
        return _uniform_weights(self.n_atoms)

    def cov_trace(self):
        """Trace of the covariance, (1/n) sum_i |x_i - mean|^2, taken about
        the mean, so >= 0: a float, or an array of the batch shape."""
        tr = np.mean(_row_sumsq(self.points - self.mean), axis=-1)
        return float(tr) if tr.ndim == 0 else tr

    def replica(self, j: int) -> "MeasureSummary":
        """Measure ``j`` along a batch's first axis, as a view.

        It has the mean and covariance trace it would have if built alone.
        """
        return MeasureSummary(points=self.points[j], mean=self.mean[j, 0])

    def is_dirac(self) -> bool:
        """Whether every atom sits at the same point."""
        return self.n_atoms == 1 or bool(np.all(self.points == self.points[0]))


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and initial conditions of the particle system.

    The initial states are the points ``init_points``, cycled, or with none
    i.i.d. uniform on the domain.  A model has no horizon: the ``TimeGrid``
    it is simulated on sets it.
    """

    name: str
    domain: ConvexDomain
    d1: int
    drift: Callable          # (t, x, mu) -> (..., d)
    diffusion: Callable      # (t, x, mu) -> (..., d, d1)
    init_points: np.ndarray | None = None      # deterministic x^{i,N}, (m, d), read-only

    def __post_init__(self):
        if not _is_count(self.d1):
            raise InputError("noise dimension must be >= 1")
        if self.init_points is not None:
            pts = np.array(self.init_points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != self.d or len(pts) == 0:
                raise InputError(f"init points must have shape (m, {self.d}), "
                                 f"got {pts.shape}")
            if not np.all(self.domain.contains_all(pts)):
                raise InputError("init points must lie in the closed domain")
            pts.flags.writeable = False  # a copy the caller cannot edit unchecked
            object.__setattr__(self, "init_points", pts)

    @property
    def d(self) -> int:
        return self.domain.dimension

    def initial_states(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n initial states: the cycled ``init_points``, or with none n
        i.i.d. uniform samples of the domain drawn from ``rng``."""
        if self.init_points is not None:
            reps = int(np.ceil(n / self.init_points.shape[0]))
            return np.tile(self.init_points, (reps, 1))[:n]
        return self.domain.sample_interior(rng, n)


def eval_coefficients(model: ModelSpec, t: float, x, mu: MeasureSummary):
    """Evaluate (b, sigma) at a single state; non-finite values are a
    ``ModelError``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.d,):
        raise InputError(f"x must be a single state of dimension {model.d}")
    b, sig = coefficients_batch(model, t, x, mu)
    b = np.broadcast_to(b, x.shape).copy()
    sig = np.broadcast_to(sig, (model.d, model.d1)).copy()
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(sig))):
        raise ModelError(f"non-finite coefficients at t={t}, x={x}")
    return b, sig


def coefficients_batch(model: ModelSpec, t: float, x: np.ndarray,
                       mu: MeasureSummary):
    """Batched coefficient evaluation for the stepping core.

    x has shape (..., N, d) and mu is the matching (batched) node summary;
    returns (b, sigma) as the model computes them, b broadcastable to
    x.shape and sigma to x.shape[:-1] + (d, d1).  A constant is the model's
    one read-only array.
    """
    return (np.asarray(model.drift(t, x, mu), dtype=float),
            np.asarray(model.diffusion(t, x, mu), dtype=float))


# -- Model zoo -----------------------------------------------------------------

def _identity_sigma(d: int, d1: int, scale: float = 1.0) -> np.ndarray:
    sig = np.zeros((d, d1))
    np.fill_diagonal(sig, scale)
    return sig


def _zoo_model(name: str, domain: ConvexDomain, d1, init, build,
               **params) -> ModelSpec:
    """A zoo model, its parameters checked first: ``params`` and ``init``
    real numbers (``b_const`` and ``init`` arrays of them), finite and at
    most ``_MAGNITUDE_MAX`` in magnitude, like the domain's bounds, ``d1``
    an integer >= 1, d by default.  ``build(d1)`` gives
    (drift, diffusion) once they are; the initial states are the points
    ``init``, else uniform on the domain.  ``params`` are only checked: the
    model keeps what ``build`` closes over.
    """
    for key, v in {**params, "init": [] if init is None else init}.items():
        vals = (np.ravel(np.asarray(v, dtype=object))
                if key in ("b_const", "init") else [v])
        if not all(isinstance(u, numbers.Real) and not isinstance(u, bool)
                   for u in vals):
            raise InputError(f"{name} {key} must be a real number, got {v!r}")
        _bounded(vals, f"{name} {key}")
    d1 = domain.dimension if d1 is None else d1
    if not _is_count(d1):
        raise InputError(f"{name} d1 must be an integer >= 1, got {d1!r}")
    drift, diffusion = build(d1)
    return ModelSpec(
        name=name, domain=domain, d1=d1, drift=drift, diffusion=diffusion,
        init_points=None if init is None else np.atleast_2d(
            np.asarray(init, dtype=float)))


def _constant(value):
    """The coefficient (t, x, mu) -> value, a read-only copy of ``value``
    handed on for every state."""
    value = np.array(value, dtype=float)
    value.flags.writeable = False
    return lambda t, x, mu: value


def make_m1(domain: ConvexDomain, d1: int | None = None,
            sigma_scale: float = 1.0, init=None) -> ModelSpec:
    """M1: zero drift, constant (identity-like) diffusion."""
    def build(d1):
        return _constant(np.zeros(domain.dimension)), _constant(
            _identity_sigma(domain.dimension, d1, sigma_scale))

    return _zoo_model("m1", domain, d1, init, build,
                      sigma_scale=sigma_scale)


def make_m2(domain: ConvexDomain, theta: float = 1.0, sigma_scale: float = 0.5,
            d1: int | None = None, init=None) -> ModelSpec:
    """M2: mean attraction b = theta (mean(mu) - x), sigma = s I."""
    def drift(t, x, mu):
        return theta * (mu.mean - np.asarray(x, dtype=float))

    def build(d1):
        return drift, _constant(_identity_sigma(domain.dimension, d1,
                                                sigma_scale))

    return _zoo_model("m2", domain, d1, init, build,
                      theta=theta, sigma_scale=sigma_scale)


def make_m3(domain: ConvexDomain, sigma_scale: float = 0.5, alpha: float = 1.0,
            clip_L: float = 2.0, d1: int | None = None,
            init=None) -> ModelSpec:
    """M3: distribution-dependent diffusion s I, s = sigma_scale (1 + alpha
    tr cov(mu)) clipped from above at c = clip_L / max(|I|, 1) and from
    below at -|c|: tr cov >= 0, but sigma_scale, alpha and clip_L may be
    negative."""
    def build(d1):
        eye = _identity_sigma(domain.dimension, d1, 1.0)
        lim = clip_L / max(np.linalg.norm(eye), 1.0)

        def diffusion(t, x, mu):
            s = np.maximum(np.minimum(lim, sigma_scale
                                      * (1.0 + alpha * mu.cov_trace())),
                           -abs(lim))
            if np.ndim(s):  # one scale per replica of a batch: (..., 1, 1, 1)
                s = s[..., None, None, None]
            return s * eye

        return _constant(np.zeros(domain.dimension)), diffusion

    return _zoo_model("m3", domain, d1, init, build,
                      sigma_scale=sigma_scale, alpha=alpha, clip_L=clip_L)


def make_drifted(domain: ConvexDomain, b_const, sigma_scale: float = 1.0,
                 d1: int | None = None, init=None) -> ModelSpec:
    """Constant-drift, constant-diffusion model (diagnostic negative controls);
    ``b_const`` is one number for every coordinate, or d of them."""
    def build(d1):
        d, b = domain.dimension, np.asarray(b_const, dtype=float)
        if b.ndim > 1 or b.size not in (1, d):
            raise InputError(f"drifted b_const must have length 1 or d = {d}, "
                             f"got shape {b.shape}")
        return _constant(np.broadcast_to(b, (d,))), _constant(
            _identity_sigma(d, d1, sigma_scale))

    return _zoo_model("drifted", domain, d1, init, build,
                      b_const=b_const, sigma_scale=sigma_scale)


MODEL_REGISTRY = {
    "m1": make_m1,
    "m2": make_m2,
    "m3": make_m3,
    "drifted": make_drifted,
}


def model_from_config(cfg: dict) -> ModelSpec:
    """Build a model from {"model": name, "domain": {...}, ...params}."""
    cfg = dict(cfg)
    name = cfg.pop("model", None)
    if name not in MODEL_REGISTRY:
        raise InputError(f"unknown model {name!r}; known: {sorted(MODEL_REGISTRY)}")
    domain = cfg.pop("domain")
    if not isinstance(domain, dict):
        raise InputError(f"domain must be a JSON object, got {domain!r}")
    domain = ConvexDomain.from_config(domain)
    return MODEL_REGISTRY[name](domain, **cfg)
