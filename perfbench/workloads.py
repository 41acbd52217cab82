"""The benchmark's workloads: one CLI config each, built from a seed.

Each workload names the CLI kind it runs, the config it hands the program,
the seed at which its kind-specific property is known to hold, the sha256 of
the ``result.json`` that seed produces, and which traced layers it is
predicted to reach.  ``tiny`` configs keep every layer on the same code path
at a fraction of the work; only the self-test uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

BOX1 = {"kind": "box", "lo": [0.0], "hi": [1.0]}
BALL2 = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
BALL3 = {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}

# Every span the traced run wraps (see spans.py).  A workload lists the ones
# it is predicted never to reach; all the others must be hit.
SPAN_NAMES = (
    "rng.substream",
    "integrator.brownian_increments",
    "geometry.project",
    "model.from_points",
    "model.coefficients_batch",
    "model.model_from_config",
    "controls.policy_evaluate",
    "ensemble.simulate",
    "ensemble.marginal_flow",
    "ensemble.reference",
    "measures.bl",
    "ldp.optimize",
    "ldp.variational",
    "diagnostics.mf_process",
    "diagnostics.submartingale_test",
    "diagnostics.boundary_check",
    "cli.load_config",
    "cli.run_scenario",
)

_LDP = {"ldp.optimize", "ldp.variational"}
_DIAGNOSTICS = {"diagnostics.mf_process", "diagnostics.submartingale_test",
                "diagnostics.boundary_check"}


def _m2(domain, horizon):
    return {"model": "m2", "domain": domain, "theta": 1.0,
            "sigma_scale": 0.5, "horizon": horizon}


def _chaos(domain, n_ref, n_replicas, tiny):
    run = ({"n_ref": 256, "n_values": [16, 64], "n_replicas": 2} if tiny else
           {"n_ref": n_ref, "n_values": [64, 256, 1024],
            "n_replicas": n_replicas})
    return {"model": _m2(domain, 0.5),
            "grid": {"horizon": 0.5, "n_steps": 8 if tiny else 32},
            "run": run}


def _rate(tiny):
    # One penalty weight, not criterion 08's two, for the same reason as the
    # 4 chaos_1d replicas: ~3 s a run instead of ~5.5 s.
    run = {"target": {"kind": "terminal_point", "point": [0.75]},
           "lambdas": [16.0],
           "family": {"family": "constant", "bound": 3.0},
           "n_particles": 16, "n_replicas": 2 if tiny else 8,
           "opt_budget": 8 if tiny else 60, "radius": 0.16}
    return {"model": {"model": "m1", "domain": BOX1, "sigma_scale": 0.4,
                      "init": [[0.5]], "horizon": 0.25},
            "grid": {"horizon": 0.25, "n_steps": 16},
            "run": run}


def _submart(tiny):
    return {"model": _m2(BALL3, 0.25),
            "grid": {"horizon": 0.25, "n_steps": 16 if tiny else 128},
            "run": {"n_particles": 512 if tiny else 16384,
                    "function": "neg_x_sq",
                    "time_pairs": [[0.0, 0.125], [0.125, 0.25]]}}


def _chaos_ok(result):
    return result.get("strictly_decreasing") is True


def _rate_ok(result):
    return result.get("feasible") is True and isinstance(
        result.get("upper_bound"), float)


def _submart_ok(result):
    return result.get("passed") is True


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # the CLI kind it runs
    build: Callable          # build(tiny) -> config without seed
    default_seed: int
    digest: str              # sha256 of result.json at default_seed
    prop_name: str           # the kind-specific property checked
    prop_ok: Callable        # prop_ok(result) -> bool
    never_reached: frozenset  # spans predicted to make no call

    def config(self, seed: int, tiny: bool = False) -> dict:
        cfg = self.build(tiny)
        cfg["schema_version"] = 1
        cfg["seed"] = int(seed)
        return cfg


WORKLOADS = {w.name: w for w in (
    # A 1024-atom reference and 4 replicas, not criterion 04's 4096 and 16.
    # How long the HiGHS solves take depends on the seed, and on a few seeds
    # a 4096-atom reference makes every solve half again as slow; with
    # ~0.6 s runs a 30 s benchmark run holds about ten samples on eight
    # seeds, so its median moves little from one --seed to the next.
    Workload("chaos_1d", "chaos", lambda tiny: _chaos(BOX1, 1024, 4, tiny),
             101,
             "f026c28218f6b3d456be016d88d7a511303f02450fe56e02dda516d5a669b2b4",
             "strictly_decreasing", _chaos_ok,
             frozenset({"controls.policy_evaluate"} | _LDP | _DIAGNOSTICS)),
    # 8 replicas, not 16: with ~1 s runs a 30 s benchmark run holds about
    # ten samples, and the kernel timed after each run tracks a short run
    # better than a long one (see run.py).
    Workload("chaos_ball2d", "chaos",
             lambda tiny: _chaos(BALL2, 4096, 8, tiny), 101,
             "0cd92f25ed4c83f4ceaa8452c6c00593b717453f1107e7b19e5e3aa69a0f374c",
             "strictly_decreasing", _chaos_ok,
             frozenset({"controls.policy_evaluate"} | _LDP | _DIAGNOSTICS)),
    Workload("rate_dirac_1d", "rate", _rate, 808,
             "0c6e12e0d61b5592df8de6c01a8c263d79ecbc45725cc1c9d3944acd6399fad7",
             "feasible", _rate_ok,
             frozenset({"ensemble.reference"} | _DIAGNOSTICS)),
    Workload("submart_ball3d", "submartingale", _submart, 91,
             "18d603e7f2e61f604a7c199c18f9933bf72da6de47e01f4c57302691119cc0a7",
             "passed", _submart_ok,
             frozenset({"controls.policy_evaluate", "ensemble.reference",
                        "measures.bl"} | _LDP)),
)}
