"""Outside-in tracing of the rldp layers for the benchmark's traced runs.

``install`` wraps the public functions of every rldp module from outside the
package.  A module that did ``from .measures import bl_distance`` holds its
own reference, so each wrapper replaces the original in every ``rldp.*``
namespace that binds it, not only in the defining module.  Methods are
wrapped on their class.  Each wrapper counts calls and exceptions and
accumulates total and self time (its duration minus that of the wrapped
calls made inside it); a few also read counts off the value returned.
Nothing is written until the process reports its counters.
"""

from __future__ import annotations

import functools
import sys
import time
from statistics import median

from workloads import SPAN_NAMES


class Tracer:
    """Per-span counters for one process, filled by the installed wrappers."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.failed = dict.fromkeys(SPAN_NAMES, 0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.substream_keys = set()
        self.boundary_hits = 0
        self.particle_steps = 0
        self.array_bytes_max = 0
        self.bl_methods = {"exact_1d": 0, "dictionary": 0}
        self.bl_atoms = 0
        self.objective_evals = 0
        self._stack = []

    def wrap(self, name, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - inner[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "calls": self.calls, "failed": self.failed,
            "total_s": self.total_s, "self_s": self.self_s,
            "substream_distinct": len(self.substream_keys),
            "boundary_hits": self.boundary_hits,
            "particle_steps": self.particle_steps,
            "array_bytes_max": self.array_bytes_max,
            "bl_methods": self.bl_methods, "bl_atoms": self.bl_atoms,
            "objective_evals": self.objective_evals,
        }


# -- observers: counts read from arguments and returned values ----------------

def _see_substream(tr, args, kwargs, result):
    tr.substream_keys.add(tuple(int(a) for a in args))


def _see_ensemble(tr, args, kwargs, ens):
    tr.boundary_hits += int(ens.boundary_hits.sum())
    tr.particle_steps += int(ens.boundary_hits.size)
    arrays = (ens.states, ens.reflection, ens.local_time, ens.boundary_hits,
              ens.noises, ens.controls)
    tr.array_bytes_max = max(tr.array_bytes_max,
                             sum(a.nbytes for a in arrays))


def _see_bl(tr, args, kwargs, est):
    tr.bl_methods[est.method] += 1
    mu = args[0] if len(args) > 0 else kwargs["mu"]
    nu = args[1] if len(args) > 1 else kwargs["nu"]
    tr.bl_atoms += int(mu.points.shape[0] + nu.points.shape[0])


def _see_optimize(tr, args, kwargs, res):
    tr.objective_evals += int(res.n_evaluations)


# (span, defining module, attribute, observer)
FUNCTIONS = (
    ("rng.substream", "rldp.rng", "substream", _see_substream),
    ("integrator.brownian_increments", "rldp.integrator",
     "brownian_increments", None),
    ("model.coefficients_batch", "rldp.model", "coefficients_batch", None),
    ("model.model_from_config", "rldp.model", "model_from_config", None),
    ("ensemble.simulate", "rldp.ensemble", "simulate_particle_system",
     _see_ensemble),
    ("ensemble.marginal_flow", "rldp.ensemble", "marginal_flow", None),
    ("ensemble.reference", "rldp.ensemble", "solve_mckean_vlasov_reference",
     None),
    ("measures.bl", "rldp.measures", "bl_distance", _see_bl),
    ("ldp.optimize", "rldp.ldp", "optimize_controls", _see_optimize),
    ("ldp.variational", "rldp.ldp", "variational_objective", None),
    ("diagnostics.mf_process", "rldp.diagnostics", "mf_process", None),
    ("diagnostics.submartingale_test", "rldp.diagnostics",
     "submartingale_test", None),
    ("diagnostics.boundary_check", "rldp.diagnostics",
     "boundary_condition_check", None),
    ("cli.load_config", "rldp.cli", "load_config", None),
    ("cli.run_scenario", "rldp.cli", "run_scenario", None),
)


def _rldp_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rldp" or n.startswith("rldp."))]


def install(tracer: Tracer):
    """Wrap every span in ``SPAN_NAMES`` at each of its lookup sites.

    Raises if a target no longer exists, so that a renamed or moved function
    fails the traced run instead of silently reading zero.
    """
    modules = _rldp_modules()
    wrapped = set()
    for span, mod_name, attr, observe in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = tracer.wrap(span, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        wrapped.add(span)

    geometry = sys.modules["rldp.geometry"]
    cls = geometry.ConvexDomain
    cls.project = tracer.wrap("geometry.project", cls.project)
    wrapped.add("geometry.project")

    model = sys.modules["rldp.model"]
    cls = model.MeasureSummary
    cls.from_points = staticmethod(
        tracer.wrap("model.from_points", cls.__dict__["from_points"].__func__))
    wrapped.add("model.from_points")

    controls = sys.modules["rldp.controls"]
    pending = [controls.ControlPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "evaluate" in vars(cls):
            cls.evaluate = tracer.wrap("controls.policy_evaluate",
                                       vars(cls)["evaluate"])
    wrapped.add("controls.policy_evaluate")

    missing = set(SPAN_NAMES) - wrapped
    if missing:
        raise RuntimeError(f"spans declared but not wrapped: {sorted(missing)}")


# -- per-layer metrics --------------------------------------------------------

def count_metrics(snap: dict) -> dict:
    """Every exact count in one traced process, by metric name."""
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = snap["calls"][span]
        out[f"{span}.failed"] = snap["failed"][span]
    out["ensemble.particle_steps"] = snap["particle_steps"]
    out["ensemble.array_bytes_max"] = snap["array_bytes_max"]
    out["measures.bl.calls.exact_1d"] = snap["bl_methods"]["exact_1d"]
    out["measures.bl.calls.dictionary"] = snap["bl_methods"]["dictionary"]
    out["measures.bl.atoms"] = snap["bl_atoms"]
    out["ldp.objective_evals"] = snap["objective_evals"]
    return out


def layer_metrics(traced: list, untraced_run_s: list) -> dict:
    """Per-layer metrics from the traced samples of one benchmark run.

    ``traced`` holds the child reports of the traced samples (their counts
    are checked to repeat exactly before this is called); times are medians
    over them.  Returns ``{name: (value, unit)}``.
    """
    snaps = [r["trace"] for r in traced]
    first = snaps[0]
    metrics = {k: (v, "count") for k, v in count_metrics(first).items()}
    metrics["ensemble.array_bytes_max"] = (first["array_bytes_max"], "bytes")

    def med(key, span):
        return median([s[key][span] for s in snaps])

    for span in SPAN_NAMES:
        metrics[f"{span}.self_s"] = (med("self_s", span), "s")

    calls = first["calls"]
    metrics["rng.substream.distinct_ratio"] = (
        first["substream_distinct"] / calls["rng.substream"]
        if calls["rng.substream"] else 0.0, "ratio")
    steps = first["particle_steps"]
    metrics["geometry.boundary_hit_frac"] = (
        first["boundary_hits"] / steps if steps else 0.0, "ratio")
    sim_s = med("total_s", "ensemble.simulate")
    metrics["ensemble.particle_steps_per_s"] = (
        steps / sim_s if sim_s > 0 else 0.0, "1/s")

    metrics["cli.import_s"] = (median([r["import_s"] for r in traced]), "s")
    # Both sides rescaled to the reference host speed, as run_s is.
    traced_run_s = median([r["run_s"] * r["ref_scale"] for r in traced])
    base = median(untraced_run_s)
    metrics["trace.overhead_frac"] = ((traced_run_s - base) / base, "ratio")
    covered = [1.0 - s["self_s"]["cli.run_scenario"]
               / s["total_s"]["cli.run_scenario"] for s in snaps]
    metrics["trace.attributed_frac"] = (median(covered), "ratio")
    return metrics


def coverage_errors(snap: dict, never_reached) -> list:
    """Spans whose call count contradicts the workload's prediction."""
    errors = []
    for span in SPAN_NAMES:
        n = snap["calls"][span]
        if span in never_reached and n != 0:
            errors.append(f"span {span} predicted unreached but called {n} times")
        elif span not in never_reached and n == 0:
            errors.append(f"span {span} predicted reached but never called")
    return errors
