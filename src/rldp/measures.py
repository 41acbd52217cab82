"""Bounded-Lipschitz (BL) distances between probability measures.

The bounded-Lipschitz distance sup { int f d(mu - nu) : |f| <= 1, Lip(f) <= 1 }
is computed exactly against any Dirac, in any dimension, by the closed form
BL(mu, delta_y) = sum_i w_i min(|x_i - y|, 2).  Between two other measures
it is exact in one dimension (a small linear program over the values of
the dual function on the merged support).  In higher dimension we report a
certified lower bound: the maximum over a fixed dictionary of 256 clipped
affine functions and radial cones, drawn at seed 0 and scaled to the pair's
joint bounding box, and a witness along the mean difference, evaluated as
array passes over blocks of functions bounded in bytes, bitwise as each
function alone.  The witness is integrated per pair.  A measure's integrals
against the dictionary of its own bounding box are memoized, so a fixed
reference is integrated once for all the partners inside its box: at most
``_MEMO_ENTRIES`` entries, keyed on the atoms' bytes, holding no summary.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InputError
from .geometry import _row_norm
from .model import MeasureSummary, _uniform_weights
from . import rng as rngmod

EXACT_1D = "exact_1d"
EXACT_DIRAC = "exact_dirac"  # the Dirac closed form in d >= 2
DICTIONARY = "dictionary"
_BLOCK_BYTES = 256 * 1024  # cap on a (B, n, d) block of dictionary differences
_DICTIONARY_SIZE = 256  # d >= 2 dictionary functions, besides the witness
_DICTIONARY_SEED = 0
_MEMO_ENTRIES = 128  # measures whose own-box integrals are kept


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
    if np.all(np.abs(delta) <= 1e-15):
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


def _dictionary_rows(lo, hi, size: int, seed: int):
    """The dictionary scaled to the box ``[lo, hi]``: unit directions and
    anchors of the ``size // 2`` affine rows, centres and offsets of the
    radial cones."""
    d = lo.shape[0]
    gen = rngmod.substream(seed, rngmod.DICT)
    span = np.where(hi > lo, hi - lo, 1.0)
    n_affine = size // 2
    dirs = gen.standard_normal((n_affine, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    anchors = lo + gen.uniform(0.0, 1.0, size=(n_affine, d)) * span
    centres = lo + gen.uniform(0.0, 1.0, size=(size - n_affine, d)) * span
    offsets = gen.uniform(0.0, 2.0, size=size - n_affine)
    return dirs, anchors, centres, offsets


def _integrals(points, dirs, anchors, centres, offsets):
    """``int f dm`` of the uniform measure on ``points`` for every row of a
    dictionary, affine rows first.

    Rows go B at a time, B the most whose ``(B, n, d)`` difference fits in
    ``_BLOCK_BYTES`` (at least one); it is filled a coordinate at a time, as
    numpy is slow over a length-d inner axis.  A row's stacked matmul is the
    gemv of ``(z - c) @ u``, ``_row_norm`` is ``np.linalg.norm`` and its
    integral the ddot of ``weights @ values``: bitwise each function alone.
    """
    n, d = points.shape
    zt, w = np.ascontiguousarray(points.T), _uniform_weights(n)[:, None]
    b = max(1, _BLOCK_BYTES // points.nbytes)

    def diffs(c):  # (B, n, d) blocks of z - c
        for i in range(0, len(c), b):
            diff = np.empty((len(c[i:i + b]), n, d))
            for k in range(d):
                np.subtract(zt[k], c[i:i + b, k, None], out=diff[..., k])
            yield i, diff
    values = itertools.chain(
        ((diff @ dirs[i:i + b, :, None])[..., 0] for i, diff in diffs(anchors)),
        (offsets[i:i + b, None] - _row_norm(diff) for i, diff in diffs(centres)))
    return np.concatenate([np.empty(0)] + [
        (np.clip(v, -1.0, 1.0, out=v)[:, None, :] @ w)[:, 0, 0] for v in values])


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _own_box_integrals(atoms: bytes, d: int, box: bytes, size: int,
                       seed: int) -> np.ndarray:
    """A measure's read-only integrals against the dictionary scaled to its
    own bounding box ``box`` (``lo`` then ``hi``), memoized on the bytes
    alone: the memo holds copies of atoms, never a summary or its array."""
    lo, hi = np.frombuffer(box).reshape(2, d)
    values = _integrals(np.frombuffer(atoms).reshape(-1, d),
                        *_dictionary_rows(lo, hi, size, seed))
    values.flags.writeable = False
    return values


def _bl_dictionary(mu: MeasureSummary, nu: MeasureSummary, size: int,
                   seed: int) -> float:
    """``min(2, max_f |int f d(mu - nu)|)`` over ``size // 2`` affine rows
    ``clip((z - c) . u)``, the rest radial cones ``clip(a - |z - c|)``, all
    scaled to the pair's joint bounding box, and an affine witness along the
    mean difference when the means differ.

    The witness depends on the pair and is integrated per pair.  A measure
    whose own bounding box is the joint box, as a fixed reference is against
    every partner inside it, reads its dictionary integrals from
    ``_own_box_integrals``; a witness integral is the gemv and ddot of one
    dictionary row, so the value is bitwise that of one pass over all rows.
    """
    d = mu.dimension
    support = np.concatenate([mu.points, nu.points], axis=0)
    lo, hi = support.min(axis=0), support.max(axis=0)
    box = lo.tobytes() + hi.tobytes()
    rows = _dictionary_rows(lo, hi, size, seed)

    def integrals(m):
        if m.points.min(axis=0).tobytes() + m.points.max(axis=0).tobytes() == box:
            return _own_box_integrals(m.points.tobytes(), d, box, size, seed)
        return _integrals(m.points, *rows)

    best = float(np.abs(integrals(mu) - integrals(nu)).max(initial=0.0))
    gap = nu.mean - mu.mean
    norm = np.linalg.norm(gap)
    if norm > 0:
        u, mid = gap / norm, (mu.mean + nu.mean) / 2.0

        def witness(m):
            return np.clip((m.points - mid) @ u, -1.0, 1.0) @ m.weights
        best = max(best, abs(float(witness(mu) - witness(nu))))
    return min(2.0, best)


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
