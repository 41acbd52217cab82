"""The bytes of the stepping core and of the generator, pinned.

The other bitwise tests of ``_advance``, ``mf_process`` and
``_generator_batch`` build their references from ``coefficients_batch`` and
``ControlPolicy.evaluate`` themselves, so they follow any change in what
those hand back.  These digests do not: a change to how coefficients,
controls or Hessians are passed on keeps them only if it keeps every bit.
"""

import hashlib

import numpy as np
import pytest

from rldp.controls import (ConstantPolicy, FeedbackPolicy,
                           PiecewiseConstantPolicy)
from rldp.diagnostics import _generator_batch, mf_process, standard_test_functions
from rldp.ensemble import cumulative_noise, simulate_particle_system
from rldp.geometry import ConvexDomain
from rldp.integrator import TimeGrid
from rldp.model import make_drifted, make_m1, make_m2, make_m3

GRID = TimeGrid(0.5, 4)
N = 6
DOMAINS = (ConvexDomain.box([0.0], [1.0]),
           ConvexDomain.ball([0.3, -0.2], 0.8),
           ConvexDomain.box(np.linspace(-1.0, 0.0, 9), np.linspace(0.5, 2.0, 9)))
MODELS = {
    "m1": lambda dom, d1: make_m1(dom, d1=d1, sigma_scale=0.9),
    "m2-neg-sigma": lambda dom, d1: make_m2(dom, theta=0.7, sigma_scale=-0.8,
                                            d1=d1),
    "m3": lambda dom, d1: make_m3(dom, sigma_scale=0.6, alpha=2.0, d1=d1),
    "drifted": lambda dom, d1: make_drifted(
        dom, np.linspace(-1.5, 1.0, dom.dimension), sigma_scale=0.7, d1=d1),
}
# sha256 of every output below, recorded on an x86-64 host (numpy 2.4.6,
# OpenBLAS 0.3.31).  Like test_cli's PINNED and perfbench's digests they
# hold only where OpenBLAS picks the same kernels: the node means are a
# BLAS product.  Re-record them only on purpose.
DIGESTS = {
    "m1": "f52c6c0f6f2b195b731f4788f6fa7aa9"
          "79b621c255bc735498fca591be640b06",
    "m2-neg-sigma": "b4197470e3383c7606f0fa9fc8db4f88"
                    "6d3e58b549b30bb14952ac0e4035a57c",
    "m3": "27cb20f04ed8d74d01d08a39774260cd"
          "bdc017e5c434588e149b9c165c2e843a",
    "drifted": "24477354b61d389f95641aab402075d4"
               "e1e0c36f039d9b233a4a2afcd44350fc",
}


def _policies(d, d1):
    rng = np.random.default_rng(10 * d + d1)
    yield None
    yield ConstantPolicy(rng.uniform(-2.0, 2.0, d1))
    yield PiecewiseConstantPolicy(rng.uniform(-2.0, 2.0, (GRID.n_steps, d1)),
                                  GRID)
    yield PiecewiseConstantPolicy(rng.uniform(-2.0, 2.0, (GRID.n_steps, N, d1)),
                                  GRID)
    yield FeedbackPolicy(rng.uniform(-0.5, 0.5,
                                     FeedbackPolicy.n_features(d) * d1),
                         d, d1, bound=2.5)


def _outputs(model):
    """Every output the digest covers, for one model on every policy and at
    one replica and a range of them."""
    fs = standard_test_functions(model.d, model.d1)
    for policy in _policies(model.d, model.d1):
        for replica in (2, range(3)):
            ens = simulate_particle_system(model, N, GRID, policy=policy,
                                           seed=5, replica=replica)
            yield from (ens.states, ens.events.index, ens.events.overshoot,
                        ens.controls)
            yield from (mu.mean for mu in ens.summaries)
            ws = list(cumulative_noise(ens.noises))
            for k in (0, GRID.n_steps - 1):
                for f in fs.values():
                    for y in (None, ens.controls[k]):
                        yield _generator_batch(model, f, GRID.nodes[k],
                                               ens.states[k], y, ws[k],
                                               ens.summaries[k])
            if replica == 2:
                yield from (mf_process(f, ens, model) for f in fs.values())


def _digest(name):
    h = hashlib.sha256()
    for dom in DOMAINS:
        d = dom.dimension
        for d1 in sorted({1, d, d + 1}):
            for a in _outputs(MODELS[name](dom, d1)):
                a = np.asarray(a)
                h.update(f"{a.dtype}{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_core_bytes_pinned(name):
    assert _digest(name) == DIGESTS[name]
