"""Bounded-Lipschitz (BL) distances between probability measures.

The bounded-Lipschitz distance sup { int f d(mu - nu) : |f| <= 1, Lip(f) <= 1 }
is computed exactly against any Dirac, in any dimension, by the closed form
BL(mu, delta_y) = sum_i w_i min(|x_i - y|, 2).  Between two other measures
it is exact in one dimension (a small linear program over the values of
the dual function on the merged support).  In higher dimension we report a
certified lower bound: the maximum over a fixed dictionary of 256 clipped
affine functions and radial cones, drawn at seed 0, and a witness along the
mean difference, evaluated as array passes over blocks of functions bounded
in bytes, bitwise as each function alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InputError
from .geometry import _row_norm
from .model import MeasureSummary
from . import rng as rngmod

EXACT_1D = "exact_1d"
EXACT_DIRAC = "exact_dirac"  # the Dirac closed form in d >= 2
DICTIONARY = "dictionary"
_BLOCK_BYTES = 256 * 1024  # cap on a (B, n, d) block of dictionary differences
_DICTIONARY_SIZE = 256  # d >= 2 dictionary functions, besides the witness
_DICTIONARY_SEED = 0


@dataclass(frozen=True)
class BLEstimate:
    value: float
    method: str

    def __post_init__(self):
        if not -1e-12 <= self.value <= 2.0 + 1e-12:
            raise InputError(f"BL value {self.value} outside [0, 2]")


# -- point-measure distance -------------------------------------------------------

def _bl_exact_1d(mu: MeasureSummary, nu: MeasureSummary) -> float:
    """Exact BL distance in d = 1 via the merged-support dual LP.

    Maximize sum delta_i f_i subject to |f_i| <= 1 and adjacent Lipschitz
    constraints |f_{i+1} - f_i| <= a_{i+1} - a_i (sufficient in 1D).
    """
    # return_index makes the sort stable (the first of equal atoms is kept);
    # bincount adds the signed weights mu - nu of equal atoms in order
    atoms, _, where = np.unique(np.concatenate([mu.points[:, 0], nu.points[:, 0]]),
                                return_index=True, return_inverse=True)
    delta = np.bincount(where, weights=np.concatenate([mu.weights, -nu.weights]))
    m = atoms.shape[0]
    if m == 1 or np.all(np.abs(delta) <= 1e-15):
        return 0.0
    gaps = np.diff(atoms)
    # rows: f_{i+1} - f_i <= g_i and f_i - f_{i+1} <= g_i
    rows = np.repeat(np.arange(2 * (m - 1)), 2)
    cols = np.tile(np.stack([np.arange(m - 1), np.arange(1, m)], axis=1).ravel(), 2)
    base = np.tile([-1.0, 1.0], m - 1)
    data = np.concatenate([base, -base])
    a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(2 * (m - 1), m))
    b_ub = np.concatenate([gaps, gaps])
    res = linprog(-delta, A_ub=a_ub, b_ub=b_ub, bounds=(-1.0, 1.0), method="highs")
    if not res.success:
        raise RuntimeError(f"BL dual LP failed: {res.message}")
    return float(min(2.0, max(0.0, -res.fun)))


def _bl_dictionary(mu: MeasureSummary, nu: MeasureSummary, size: int,
                   seed: int) -> float:
    """``min(2, max_f |int f d(mu - nu)|)`` over ``size // 2`` affine rows
    ``clip((z - c) . u)``, the rest radial cones ``clip(a - |z - c|)``, and an
    affine witness along the mean difference when the means differ.

    Rows go B at a time, B the most whose ``(B, n, d)`` difference fits in
    ``_BLOCK_BYTES`` (at least one); it is filled a coordinate at a time, as
    numpy is slow over a length-d inner axis.  A row's stacked matmul is the
    gemv of ``(z - c) @ u``, ``_row_norm`` is ``np.linalg.norm`` and its
    integral the ddot of ``weights @ values``: bitwise each function alone.
    """
    d = mu.dimension
    gen = rngmod.substream(seed, rngmod.DICT)
    support = np.concatenate([mu.points, nu.points], axis=0)
    lo, hi = support.min(axis=0), support.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    n_affine = size // 2
    dirs = gen.standard_normal((n_affine, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    anchors = lo + gen.uniform(0.0, 1.0, size=(n_affine, d)) * span
    centres = lo + gen.uniform(0.0, 1.0, size=(size - n_affine, d)) * span
    offsets = gen.uniform(0.0, 2.0, size=size - n_affine)
    gap = nu.mean - mu.mean
    norm = np.linalg.norm(gap)
    if norm > 0:
        dirs = np.vstack([dirs, gap / norm])
        anchors = np.vstack([anchors, (mu.mean + nu.mean) / 2.0])

    def integrals(m):  # int f dm for every row, affine rows first
        zt, w = np.ascontiguousarray(m.points.T), m.weights[:, None]
        b = max(1, _BLOCK_BYTES // m.points.nbytes)

        def diffs(c):  # (B, n, d) blocks of z - c
            for i in range(0, len(c), b):
                diff = np.empty((len(c[i:i + b]), zt.shape[1], d))
                for k in range(d):
                    np.subtract(zt[k], c[i:i + b, k, None], out=diff[..., k])
                yield i, diff
        values = itertools.chain(
            ((diff @ dirs[i:i + b, :, None])[..., 0] for i, diff in diffs(anchors)),
            (offsets[i:i + b, None] - _row_norm(diff) for i, diff in diffs(centres)))
        return np.concatenate([np.empty(0)] + [
            (np.clip(v, -1.0, 1.0, out=v)[:, None, :] @ w)[:, 0, 0] for v in values])

    gaps = np.abs(integrals(mu) - integrals(nu))
    return min(2.0, float(gaps.max(initial=0.0)))


def bl_distance(mu: MeasureSummary, nu: MeasureSummary) -> BLEstimate:
    """Bounded-Lipschitz distance: exact against any Dirac, in any dimension,
    and exact in d = 1; otherwise a dictionary lower bound in d >= 2."""
    if mu.dimension != nu.dimension:
        raise InputError("measures live on different-dimensional domains")
    # canonical argument order so the metric is bitwise symmetric (the
    # weights are 1/n, so the points alone fix it)
    a, b = sorted((mu, nu), key=lambda m: m.points.tobytes())
    # Against a Dirac at y, BL = sum_i w_i min(|x_i - y|, 2) (Dudley, Real
    # Analysis and Probability, 11.8): f = min(|. - y|, 2) - 1 attains it, and
    # |f| <= 1, Lip(f) <= 1 give f(x) - f(y) <= min(|x - y|, 2) for every f.
    # Differences are clipped to [-2, 2] first, so that no square overflows:
    # a clipped row's norm reaches 2 exactly when the row's does, and a row
    # already inside [-2, 2] keeps its bits.
    a_dirac = a.is_dirac()
    if a_dirac or b.is_dirac():
        cloud, y = (b, a.points[0]) if a_dirac else (a, b.points[0])
        diff = np.clip(cloud.points - y, -2.0, 2.0)
        value = min(2.0, float(np.minimum(_row_norm(diff), 2.0) @ cloud.weights))
        return BLEstimate(value=value,
                          method=EXACT_1D if a.dimension == 1 else EXACT_DIRAC)
    if a.dimension == 1:
        return BLEstimate(value=_bl_exact_1d(a, b), method=EXACT_1D)
    value = _bl_dictionary(a, b, _DICTIONARY_SIZE, _DICTIONARY_SEED)
    return BLEstimate(value=value, method=DICTIONARY)
