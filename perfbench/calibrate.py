"""A fixed reference kernel that gauges how fast the host runs right now.

``calibrate()`` times a fixed amount of work that uses only the Python,
numpy and scipy of the environment, never ``rldp``: so a change of the
program cannot change it, while a change of host speed (a busy neighbour on
a shared machine, a lower clock) changes it about as much as it changes the
program.  The mix follows the program's: many calls on tiny arrays (the
per-call overhead of the ``rate`` optimizer loops), noise draws and norms
on a particle array (the step loop), small and large HiGHS linear programs
(the BL estimates), and fresh arrays larger than the caches (the full-path
arrays and their page faults).

A time multiplied by ``REFERENCE_S`` over a kernel time taken next to it
reads as seconds on a host where the kernel takes ``REFERENCE_S``.  When
the host slows down for a while, the program and the kernel slow down
together and the product stays put.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# A round figure near the kernel's time on the host where the benchmark was
# defined, a 2-vCPU Intel Xeon VM, on which it took 0.3 to 0.5 s as the load
# of the machine changed.  Scaled times read as seconds on that host at its
# faster times.
REFERENCE_S = 0.3

_N_SMALL = 5000
_N_PARTICLES = 16384
_N_STEPS = 25
_N_LP = 15
_LP_ATOMS = 24
_BIG_LP_ATOMS = 4096
_BIG = 4_000_000
_N_BIG = 2


def _lp(rng: np.random.Generator, n: int) -> float:
    # The dual of a 1-D Lipschitz transport problem on a fixed random
    # support: maximise sum(w * f) subject to |f_i - f_j| <= |x_i - x_j|
    # on neighbours and |f| <= 1.
    x = np.sort(rng.random(n))
    w = rng.standard_normal(n)
    w -= w.mean()
    idx = np.arange(n - 1)
    rows = np.repeat(np.arange(2 * (n - 1)), 2)
    cols = np.tile(np.stack([idx, idx + 1], axis=1).ravel(), 2)
    base = np.tile([1.0, -1.0], n - 1)
    a_ub = sparse.csr_matrix((np.concatenate([base, -base]), (rows, cols)),
                             shape=(2 * (n - 1), n))
    gaps = np.diff(x)
    res = linprog(-w, A_ub=a_ub, b_ub=np.concatenate([gaps, gaps]),
                  bounds=(-1.0, 1.0), method="highs")
    return float(res.fun)


def _work() -> float:
    rng = np.random.default_rng(20240401)
    acc = 0.0
    a = rng.random(17)
    for _ in range(_N_SMALL):
        b = np.clip(a * 0.5 + 0.25, 0.0, 1.0)
        acc += float(np.sqrt(b).sum()) + float(np.abs(b - a).max())
    x = rng.random((_N_PARTICLES, 3)) - 0.5
    for _ in range(_N_STEPS):
        x += 0.05 * rng.standard_normal(x.shape)
        r = np.linalg.norm(x, axis=1)
        out = r > 1.0
        x[out] /= r[out, None]
        acc += float(r.mean())
    for _ in range(_N_LP):
        acc += _lp(rng, _LP_ATOMS)
    acc += _lp(rng, _BIG_LP_ATOMS)
    for _ in range(_N_BIG):
        big = np.empty((_BIG, 2))
        big[:, 0] = 1.0
        big[:, 1] = big[:, 0] * 0.5
        acc += float(big.sum())
    return acc


def calibrate() -> float:
    """Wall time, in seconds, of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0

