"""Bounded convex domains, boundary normals, projections and 1D Skorokhod maps.

Two domain kinds are supported: axis-aligned boxes and Euclidean balls.
Boxes have corners and therefore fall outside the smooth-domain hypothesis
of the underlying theory; they are supported because they admit exact 1D
reflection oracles.  Corner normals use the normalized sum of the active
face normals; corner events have probability ~0 under nondegenerate noise.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

# How far from the boundary a point still counts as on it, on a domain whose
# bounds are at most 1 in magnitude; ``ConvexDomain._scale`` scales it.
BOUNDARY_TOL = 1e-12
# The largest magnitude of a domain bound (box corner, ball centre or
# radius), a model parameter, a control value or a grid horizon: a product
# of two such numbers stays finite.
_MAGNITUDE_MAX = 1e50

# Two-sided Skorokhod fixed-point iteration: converged once no correction
# moves by this much.
_SK_TOL = 1e-14


def _as_point(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != d:
        raise InputError(f"point has dimension {x.shape[-1]}, domain has {d}")
    if not np.all(np.isfinite(x)):
        raise InputError("point has non-finite coordinates")
    return x


def _bounded(values, what: str) -> np.ndarray:
    """``values`` as a read-only float copy, unless an entry is NaN or more
    than ``_MAGNITUDE_MAX`` in magnitude.  The copy keeps a caller's later
    edit of its own array from bypassing the checks made on it."""
    message = (f"{what} must be finite and at most {_MAGNITUDE_MAX:g} in "
               f"magnitude")
    try:
        values = np.array(values, dtype=float)
    except OverflowError:  # an integer past the float range
        raise InputError(message) from None
    if not np.all(np.abs(values) <= _MAGNITUDE_MAX):  # NaN too
        raise InputError(message)
    values.flags.writeable = False
    return values


def _is_count(v) -> bool:
    """Whether ``v`` is an integer >= 1 (a bool is not)."""
    return not isinstance(v, bool) and isinstance(v, numbers.Integral) and v >= 1


def _is_positive(v) -> bool:
    """Whether ``v`` is a real number in (0, inf) (a bool is not)."""
    return (not isinstance(v, bool) and isinstance(v, numbers.Real)
            and 0 < v < math.inf)


def _json_reals(v) -> bool:
    """Whether ``v`` is a JSON number or nested lists of them; a bool or a
    string is not, though numpy reads ``true`` and ``"1"`` as 1.0."""
    if isinstance(v, list):
        return all(_json_reals(u) for u in v)
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _row_sumsq(x: np.ndarray) -> np.ndarray:
    """``np.sum(x ** 2, axis=-1)`` bit for bit, and faster: numpy sums the
    squares left to right on a last axis shorter than 8, pairwise beyond.
    A single point gives a 0-d array, or a numpy scalar when d >= 8."""
    if x.shape[-1] >= 8:
        return np.sum(x * x, axis=-1)
    acc = np.multiply(x[..., 0], x[..., 0], out=np.empty(x.shape[:-1]))
    for k in range(1, x.shape[-1]):
        acc += x[..., k] * x[..., k]
    return acc


def _row_norm(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` bit for bit: the root of
    ``_row_sumsq``, taken in place except for a single point."""
    acc = _row_sumsq(x)
    return np.sqrt(acc, out=acc) if acc.ndim else np.sqrt(acc)


@dataclass(frozen=True)
class ConvexDomain:
    """A bounded convex domain: axis-aligned box or Euclidean ball."""

    kind: str                       # "box" or "ball"
    lo: np.ndarray | None = None    # box only, shape (d,)
    hi: np.ndarray | None = None    # box only, shape (d,)
    center: np.ndarray | None = None  # ball only, shape (d,)
    radius: float | None = None       # ball only

    @staticmethod
    def box(lo, hi) -> "ConvexDomain":
        lo = np.atleast_1d(_bounded(lo, "box lo"))
        hi = np.atleast_1d(_bounded(hi, "box hi"))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise InputError("box bounds must be nonempty 1-d arrays of "
                             "equal length")
        if not np.all(hi > lo):
            raise InputError("box requires hi > lo on every axis")
        return ConvexDomain(kind="box", lo=lo, hi=hi)

    @staticmethod
    def ball(center, radius) -> "ConvexDomain":
        center = np.atleast_1d(_bounded(center, "ball center"))
        radius = _bounded(radius, "ball radius")
        if center.ndim != 1 or center.size == 0:
            raise InputError("ball center must be a nonempty 1-d array")
        if radius.ndim or radius <= 0:
            raise InputError("ball radius must be one number > 0")
        return ConvexDomain(kind="ball", center=center, radius=float(radius))

    @property
    def dimension(self) -> int:
        if self.kind == "box":
            return self.lo.shape[0]
        return self.center.shape[0]

    @property
    def _scale(self) -> float:
        """max(1, the largest bound magnitude), the factor of the boundary
        tolerances: a coordinate of that size is known to within a few ulps
        of it, so an absolute band is lost in the rounding."""
        return max(1.0, *(float(np.max(np.abs(b))) for b in (
            self.lo, self.hi, self.center, self.radius) if b is not None))

    # -- membership ---------------------------------------------------------

    def contains(self, x) -> str:
        """Classify a single point as interior / boundary / exterior: exterior
        where ``contains_all`` fails, boundary within ``BOUNDARY_TOL`` of a
        face or the sphere, times ``_scale``."""
        x = _as_point(x, self.dimension)
        if x.ndim != 1:
            raise InputError("contains expects a single point")
        if not self.contains_all(x):
            return EXTERIOR
        eps = BOUNDARY_TOL * self._scale
        if self.kind == "box":
            on = np.any(x <= self.lo + eps) or np.any(x >= self.hi - eps)
        else:
            on = _row_norm(x - self.center) >= self.radius - eps
        return BOUNDARY if on else INTERIOR

    def contains_all(self, x) -> np.ndarray:
        """Boolean membership in the closure, to ``BOUNDARY_TOL`` times
        ``_scale``, batched over leading axes."""
        x = _as_point(x, self.dimension)
        eps = BOUNDARY_TOL * self._scale
        if self.kind == "box":
            inside = np.all(x >= self.lo - eps, axis=-1) & np.all(x <= self.hi + eps, axis=-1)
            return inside
        return _row_norm(x - self.center) <= self.radius + eps

    # -- projection ---------------------------------------------------------

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the closure, batched over leading axes.

        Only points outside the closure move: every point of the closure,
        -0.0 coordinates included, comes back bit for bit.  The overshoot
        ``x - project(x)`` is nonzero exactly when the projection moved x.
        A ball writes only the rows outside it, into a copy of x, so the
        result is always a new array.
        """
        x = _as_point(x, self.dimension)
        if self.kind == "box":
            return np.clip(x, self.lo, self.hi)
        delta = x - self.center
        r = _row_norm(delta)
        out = r > self.radius  # a 0-d mask for a single point
        p = x.copy()
        p[out] = self.center + delta[out] * (self.radius / r[out])[:, None]
        return p

    # -- normals ------------------------------------------------------------

    def normals_at(self, x) -> np.ndarray:
        """Batched outward unit normals, to a tolerance of 1e-9 times
        ``_scale`` (looser than membership's).

        A ball row within that tolerance of the sphere gets the radial
        normal; any other ball row is zero.  A box row gets the normalised
        sum of the outward normals of the faces it is within that tolerance
        of or beyond, so a row outside the box has a normal too; a row
        farther than the tolerance inside every face is zero.
        """
        x = _as_point(x, self.dimension)
        eps = 1e-9 * self._scale
        if self.kind == "ball":
            delta = x - self.center
            r = _row_norm(delta)[..., None]
            on = np.abs(r - self.radius) <= eps
            return np.where(on, delta / np.where(r == 0, 1.0, r), 0.0)
        n = np.zeros_like(x)
        n -= (x <= self.lo + eps).astype(float)
        n += (x >= self.hi - eps).astype(float)
        norms = _row_norm(n)[..., None]
        return np.where(norms > 0, n / np.where(norms == 0, 1.0, norms), 0.0)

    # -- sampling helpers ----------------------------------------------------

    def sample_interior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points uniform on the closure (zoo models' default initial law)."""
        d = self.dimension
        if self.kind == "box":
            return rng.uniform(self.lo, self.hi, size=(n, d))
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        u = rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / d)
        return self.center + self.radius * g * u

    def sample_boundary(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points uniform-ish on the boundary."""
        d = self.dimension
        if self.kind == "ball":
            g = rng.standard_normal((n, d))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            return self.center + self.radius * g
        pts = rng.uniform(self.lo, self.hi, size=(n, d))
        axes = rng.integers(0, d, size=n)
        sides = rng.integers(0, 2, size=n)
        vals = np.where(sides == 0, self.lo[axes], self.hi[axes])
        pts[np.arange(n), axes] = vals
        return pts

    # -- config ---------------------------------------------------------------

    @staticmethod
    def from_config(cfg: dict) -> "ConvexDomain":
        """The domain of a config block: exactly the keys kind, lo, hi (box)
        or kind, center, radius (ball), its bounds JSON numbers."""
        kind = cfg.get("kind")
        if kind not in ("box", "ball"):
            raise InputError(f"unknown domain kind: {kind!r}")
        keys = ("lo", "hi") if kind == "box" else ("center", "radius")
        if sorted(cfg) != sorted(("kind",) + keys):
            raise InputError(f"a {kind} domain takes the keys kind, "
                             f"{', '.join(keys)}; got {', '.join(sorted(cfg))}")
        if not all(_json_reals(cfg[k]) for k in keys) or isinstance(
                cfg.get("radius"), list):
            raise InputError(f"domain {', '.join(keys)} must be JSON numbers")
        make = ConvexDomain.box if kind == "box" else ConvexDomain.ball
        return make(*(cfg[k] for k in keys))


# -- 1D Skorokhod maps --------------------------------------------------------

def skorokhod_1d(w, lo: float, hi: float):
    """Discrete two-sided Skorokhod reflection map on [lo, hi] of a sampled
    scalar path.

    Fixed-point iteration of the one-sided maps
    x(t) = w(t) + max(0, sup_{s<=t}(lo - w(s))) (and its mirror at hi)
    until the correction stabilizes.  Each sweep settles the push at one
    more change of wall, so ``len(w)`` sweeps suffice; a correction that
    still moves after them raises ``RuntimeError``.  Returns (x, ell) where
    ell is the cumulative local time (total boundary push), nondecreasing
    with ell[0] = 0.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InputError("skorokhod_1d expects a 1-d sampled path")
    if not np.all(np.isfinite(w)):
        raise InputError("path has non-finite values")
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise InputError("requires lo < hi")
    if not (lo <= w[0] <= hi):
        raise InputError("path must start inside [lo, hi]")

    lower = np.zeros_like(w)
    upper = np.zeros_like(w)
    for _ in range(len(w)):
        new_lower = np.maximum.accumulate(np.maximum(lo - w + upper, 0.0))
        new_upper = np.maximum.accumulate(np.maximum(w + new_lower - hi, 0.0))
        change = max(np.max(np.abs(new_lower - lower)), np.max(np.abs(new_upper - upper)))
        lower, upper = new_lower, new_upper
        if change < _SK_TOL:
            break
    else:
        raise RuntimeError(f"Skorokhod iteration did not converge in "
                           f"{len(w)} sweeps")
    x = np.clip(w + lower - upper, lo, hi)  # clamp residual fp error at nodes
    ell = lower + upper
    return x, ell
