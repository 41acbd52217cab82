"""Scenario-driven command line entry point.

    rldp <kind> --config path [--seed u64] [--workers n] [--out dir]

Kinds: simulate, chaos, laplace, variational, rate, submartingale.
Configs are JSON; flags override config fields (flag > file > default).
``CONFIG``, ``GRID`` and ``KINDS`` declare each key with its default and
check.  ``load_config`` checks the whole config by them in one pass and
builds the model, the grid and the run's objects; ``run_scenario`` only
runs them.  The grid holds the run's one horizon: a model block may
restate it as ``horizon``, equal to ``grid.horizon``, and the model is
built without it.  Each run writes a manifest
(resolved config + seed + content hash) and a result JSON whose bytes
depend only on (config, seed).  The laplace, variational, rate and
submartingale results are their ``ldp`` or ``diagnostics`` result dataclass
as ``dataclasses.asdict`` writes it (laplace and variational add the
functional id, variational the policy id, rate a description of its
target): each key is its field's name.
The chaos kind simulates every replica, one at a time, keeping only its
terminal measure, then computes their BL distances.  ``--workers`` (>= 1;
default 2) caps the threads on which it solves the exact 1D BL linear
programs, at most one per CPU (``pool_size``); no output byte depends on
it, and with 1, or in d >= 2, no thread starts.  Exit codes: 0 ok, 2
config error, 3 budget or guard flag.
Importing this module loads no scipy: scipy serves only the exact 1D BL
linear program, and ``load_config`` loads it for a run that can reach it
(chaos, or rate against a reference flow, on a one-dimensional domain), so
that ``run_scenario`` imports no module.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import diagnostics, ldp
from .controls import (ConstantPolicy, FeedbackPolicy, PiecewiseConstantPolicy,
                       ZeroPolicy, constant_family, feedback_family)
from .ensemble import (empirical_measure_at, simulate_particle_system,
                       solve_mckean_vlasov_reference, write_paths_csv)
from .errors import BudgetError, ConfigError, InputError
from .geometry import _MAGNITUDE_MAX, _is_count, _is_positive, _json_reals
from .integrator import TimeGrid
from .measures import _lp, bl_distance
from .model import MeasureSummary, model_from_config

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)  # JSON has no NaN or infinity: write them as strings
        return v if math.isfinite(v) else str(v)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(_to_jsonable(cfg), sort_keys=True).encode()).hexdigest()


def load_config(path: str, kind: str, seed_override=None) -> tuple[dict, dict]:
    """The config at ``path`` for a run of ``kind``, checked whole: the
    resolved config, as the manifest records it, and its values parsed by
    ``CONFIG``, the run block's under "run"."""
    try:  # ValueError: not UTF-8, not JSON, or an int past the digit limit
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = {"schema_version": SCHEMA_VERSION, "seed": 0, "run": {}, **cfg,
           "kind": kind}
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    p = _parse(CONFIG, cfg, "", {})
    if p["model"].d == 1 and (kind == "chaos" or kind == "rate" and not
                              isinstance(p["run"]["target"], MeasureSummary)):
        _lp()  # the run can reach the exact 1D BL LP: load its solver now
    return cfg, p


# -- config schema ---------------------------------------------------------------
# A table maps each key, in parse order, to (default, cast).  A cast takes
# the raw value and the values parsed so far, those of the enclosing blocks
# included, as does a callable default.  A (table, build) pair in place of
# a cast is a nested JSON object; build turns its parsed values into one.
# A callable table is called with the block and returns the table to parse
# it by.  A cast raises one of _BAD_VALUE on a bad value: a RecursionError
# on a list nested some hundred deep, which json still reads.

_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def _checked(what, ok):
    """The value as given, if ``ok`` holds for it and the parsed values."""
    def cast(v, p=None):
        if not ok(v, p):
            raise ValueError(f"expected {what}, got {v!r}")
        return v
    return cast


def _num(what, ok=lambda x, p: True, integer=False, keep=False):
    """A finite JSON number, an integer if asked, for which ``ok`` holds;
    a float unless ``integer`` or ``keep`` (the value as given)."""
    cast = _checked(what, lambda v, p: not isinstance(v, bool)
                    and isinstance(v, int if integer else (int, float))
                    and math.isfinite(v) and ok(v, p))
    return cast if integer or keep else lambda v, p=None: float(cast(v, p))


def _count(lo=1, why=""):
    return _num(f"an integer >= {lo}{why}", lambda x, p: x >= lo, True)


def _choice(*options):
    """One of ``options``, of the same JSON type (so 0 is not false)."""
    return _checked(f"one of {json.dumps(options)}", lambda v, p: any(
        type(v) is type(o) and v == o for o in options))


def _ascending(elem):
    """A nonempty, strictly increasing JSON list of ``elem`` values."""
    def cast(v, p):
        if not isinstance(v, list) or not v:
            raise ValueError(f"expected a nonempty list, got {v!r}")
        vals = [elem(x, p) for x in v]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"expected strictly increasing values, got {v!r}")
        return vals
    return cast


def _array(what, ok):
    """JSON numbers, in nested lists, as given, if their array has ``ok``."""
    return _checked(what, lambda v, p: _json_reals(v)
                    and ok(np.asarray(v, dtype=float), p))


def _coordinate(v, p):
    d = p["model"].d
    return _num(f"an integer in [0, {d})", lambda x, p: 0 <= x < d, True)(v, p)


def _variant(field, variants, default=None):
    """A nested block whose ``field`` names one of ``variants``, each a
    (table, build) pair: that table parses the block and that build builds it."""
    pick = {field: (default, _choice(*variants))}
    tables = {name: {**pick, **t} for name, (t, _) in variants.items()}

    def table(block):
        name = block.get(field, default)
        return tables[name] if isinstance(name, str) and name in tables else pick
    table.tables = tables  # every variant's table, for the README check
    return table, lambda p: variants[p[field]][1](p)


def _model(v, p):
    """The model ``model_from_config`` builds from the block less its
    optional ``horizon``, a number equal to the grid's if given."""
    try:
        if not isinstance(v, dict):
            raise TypeError(f"expected a JSON object, got {v!r}")
        model = model_from_config({k: v[k] for k in v if k != "horizon"})
    except _BAD_VALUE as exc:
        raise ConfigError(f"invalid model block: {exc}") from exc
    horizon = v.get("horizon", p["grid"].horizon)
    if not (type(horizon) in (int, float) and abs(horizon) <= _MAGNITUDE_MAX
            and math.isclose(p["grid"].horizon, horizon, rel_tol=1e-12)):
        raise ValueError(f"its horizon {horizon!r} differs from "
                         f"grid.horizon {p['grid'].horizon}")
    return model


def _time_pairs(v, p):
    if not isinstance(v, list) or not v:
        raise ValueError(f"expected a nonempty list of [t0, t1], got {v!r}")
    pairs = [(_REAL(a), _REAL(b)) for a, b in v]
    if any(p["grid"].node_index(a) >= p["grid"].node_index(b) for a, b in pairs):
        raise ValueError("time pairs must satisfy t0 < t1")
    return pairs


def _test_function(v, p):
    """A registered function; unless skip_boundary_check is set, one that
    passes the boundary check, made here once, before anything simulates."""
    model = p["model"]
    funcs = diagnostics.standard_test_functions(model.d, model.d1)
    f = funcs[_choice(*funcs)(v, p)]
    if not p["skip_boundary_check"]:
        check = diagnostics.boundary_condition_check(
            f, model.domain, horizon=p["grid"].horizon)
        if not check.passed:
            raise ValueError(f"test function {f.id} violates the boundary "
                             f"condition (worst value {check.worst_value:.3g})")
    return f


def _calibrate(v, p):
    """The flag; calibration coarsens the grid 4x, so n_steps % 4 == 0."""
    if _FLAG(v, p) and p["grid"].n_steps % 4:
        raise ValueError(f"calibration needs grid.n_steps divisible by 4, "
                         f"got {p['grid'].n_steps}")
    return v


def _parse(table, block, where: str, env: dict) -> dict:
    """Cast every key of ``table`` from ``block``, named ``where`` ("" for
    the top level), then reject unknown keys."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if callable(table):
        table = table(block)
    p = dict(env)
    for key, (default, cast) in table.items():
        name = f"{where}.{key}" if where else key
        value = block.get(key, default(p) if callable(default) else default)
        try:
            p[key] = (cast[1](_parse(cast[0], value, name, p))
                      if isinstance(cast, tuple) else cast(value, p))
        except ConfigError:
            raise
        except _BAD_VALUE as exc:
            raise ConfigError(f"invalid {name}: {exc}") from exc
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where or 'top-level'} keys: "
                          f"{', '.join(unknown)}")
    return p


# -- run kinds -------------------------------------------------------------------
# A runner takes the parsed run block, with the top level's values ("seed",
# "budget", "model", "grid", ...) and the chaos kind's thread count
# ("workers"), and the output directory; it returns its result fields and
# the files it wrote.

def _run_simulate(p, out: Path):
    grid = p["grid"]
    ens = simulate_particle_system(p["model"], p["n_particles"], grid,
                                   policy=p["policy"], seed=p["seed"],
                                   budget=p["budget"])
    write_paths_csv(ens, str(out / "paths.csv"))
    terminal = empirical_measure_at(ens, grid.horizon)
    return {
        "n_particles": p["n_particles"],
        "n_steps": grid.n_steps,
        "terminal_mean": terminal.mean,
        "terminal_cov_trace": terminal.cov_trace(),
        "total_local_time_mean": float(np.mean(ens.local_time[-1])),
        "policy": p["policy"].policy_id,
    }, ["paths.csv"]


def _run_chaos(p, out: Path):
    model, grid, n_values = p["model"], p["grid"], p["n_values"]
    ref = solve_mckean_vlasov_reference(model, grid, n_ref=p["n_ref"],
                                        seed=p["seed"], budget=p["budget"])
    # replica 0 feeds the reference
    keys = [(n, rep) for n in n_values for rep in range(1, p["n_replicas"] + 1)]

    def terminal(n, rep):  # points copied: no path array outlives the call
        ens = simulate_particle_system(model, n, grid, seed=p["seed"],
                                       replica=rep, budget=p["budget"])
        mu = empirical_measure_at(ens, grid.horizon)
        return replace(mu, points=mu.points.copy())

    terminals = [terminal(n, rep) for n, rep in keys]
    # HiGHS releases the GIL, so in 1D the linear programs solve on a pool;
    # a d >= 2 distance (numpy holds the GIL), or a pool of one, runs here.
    size = p["workers"] if model.d == 1 else 1
    with ThreadPoolExecutor(size) as pool:
        dists = list((pool.map if size > 1 else map)(
            bl_distance, terminals, itertools.repeat(ref[-1])))
    rows = [(n, rep, d.value) for (n, rep), d in zip(keys, dists)]
    medians = {str(n): statistics.median([d for m, _, d in rows if m == n])
               for n in n_values}
    with open(out / "distances.csv", "w", newline="") as fh:
        fh.write("n_particles,replica,bl_distance\r\n")
        for n, rep, dist in rows:
            fh.write(f"{n},{rep},{dist!r}\r\n")
    return {
        "n_ref": p["n_ref"],
        "n_replicas": p["n_replicas"],
        "median_distance_by_n": medians,
        "strictly_decreasing": all(
            medians[str(a)] > medians[str(b)]
            for a, b in zip(n_values, n_values[1:])),
    }, ["distances.csv"]


def _run_laplace(p, out: Path):
    est = ldp.laplace_functional_mc(
        p["model"], p["functional"], p["n_particles"], p["grid"],
        p["n_replicas"], seed=p["seed"], budget=p["budget"])
    return {"functional": p["functional"].id, **asdict(est)}, []


def _run_variational(p, out: Path):
    est = ldp.variational_objective(
        p["model"], p["functional"], p["policy"], p["n_particles"], p["grid"],
        p["n_replicas"], seed=p["seed"], budget=p["budget"])
    return {"functional": p["functional"].id,
            "policy": p["policy"].policy_id, **asdict(est)}, []


def _run_rate(p, out: Path):
    model, grid, target = p["model"], p["grid"], p["target"]
    if isinstance(target, MeasureSummary):
        desc = f"terminal summary, mean={np.array2string(target.mean, precision=4)}"
    else:
        desc = "measure flow (large_N)"
        target = solve_mckean_vlasov_reference(
            model, grid, n_ref=target["n_ref"],
            seed=p["seed"] + target["seed_offset"], budget=p["budget"])
    est = ldp.estimate_rate(
        model, target, p["lambdas"], p["family"], p["n_particles"], grid,
        p["n_replicas"], p["opt_budget"], seed=p["seed"],
        radius=p["radius"], distance_mode=p["distance_mode"],
        sim_budget=p["budget"])
    return {"target": desc, **asdict(est)}, []


def _run_submartingale(p, out: Path):
    model, grid, f, n = p["model"], p["grid"], p["function"], p["n_particles"]
    ens = simulate_particle_system(model, n, grid, seed=p["seed"],
                                   budget=p["budget"])
    c_bias = p["c_bias"]
    if p["calibrate"]:
        c_bias = diagnostics.calibrate_bias_allowance(
            model, f, grid, n_paths=min(n, 512), seed=p["seed"],
            budget=p["budget"])
    report = diagnostics.submartingale_test(  # the run table checked f
        ens, f, model, p["time_pairs"], confidence=p["confidence"],
        c_bias=c_bias, skip_boundary_check=True)
    return asdict(report), []


_REAL = _num("a finite number")
_POSITIVE = _num("a finite number > 0", lambda x, p: x > 0)
# the largest control a feedback policy or an optimizer family may give
_BOUND = _num(f"a number in (0, {_MAGNITUDE_MAX:g}]",
              lambda x, p: 0 < x <= _MAGNITUDE_MAX)
_FLAG = _choice(False, True)
_GIVEN = _num("a finite number", keep=True)
_FUNCTIONAL = ({}, _variant("functional", {
    "constant": ({"c": (None, _GIVEN)},
                 lambda f: ldp.constant_functional(f["c"])),
    "terminal_mean": ({
        "scale": (1.0, _GIVEN), "coord": (0, _coordinate), "center": (0.0, _GIVEN),
        "cap": (1.0, _num("a finite number > 0", lambda x, p: x > 0, keep=True)),
    }, lambda f: ldp.terminal_mean_functional(f["scale"], f["coord"],
                                              f["center"], f["cap"]))}))
_POLICY = ({}, _variant("policy", {
    "zero": ({}, lambda h: ZeroPolicy(h["model"].d1)),
    "constant": ({"v": (None, _array(
        "a vector of width d1 (the noise dimension)",
        lambda a, p: np.atleast_1d(a).shape == (p["model"].d1,)))},
        lambda h: ConstantPolicy(h["v"])),
    "piecewise_constant": ({"values": (None, _array(
        "cells of width d1 (the noise dimension), or (n_particles, d1) blocks",
        lambda a, p: 1 <= a.ndim <= 3
        and (a.shape[-1] if a.ndim > 1 else 1) == p["model"].d1
        and (a.ndim < 3 or a.shape[1] == p["n_particles"])))},
        lambda h: PiecewiseConstantPolicy(h["values"], h["grid"])),
    "feedback": ({"theta": (None, _array("numbers", lambda a, p: True)),
                  "bound": (3.0, _BOUND)},
                 lambda h: FeedbackPolicy(h["theta"], h["model"].d,
                                          h["model"].d1, h["bound"]))},
    "zero"))
_TARGET = ({}, _variant("kind", {
    "reference": ({"n_ref": (2048, _count()), "seed_offset": (1000, _count(0))},
                  lambda t: t),
    "terminal_point": ({"point": (None, _array(
        "a point of the model's dimension",
        lambda a, p: np.atleast_1d(a).shape == (p["model"].d,)))},
        lambda t: MeasureSummary.dirac(t["point"]))},
    "reference"))

GRID = {"horizon": (None, _POSITIVE), "n_steps": (None, _count())}

KINDS = {  # kind -> (runner, run-block table)
    "simulate": (_run_simulate, {
        "n_particles": (8, _count()),
        "policy": _POLICY}),
    "chaos": (_run_chaos, {
        "n_values": ([64, 256, 1024], _ascending(_count())),
        "n_replicas": (16, _count()),
        "n_ref": (4096, _count())}),
    "laplace": (_run_laplace, {
        "functional": _FUNCTIONAL,
        "n_particles": (32, _count()),
        "n_replicas": (64, _count(2))}),
    "variational": (_run_variational, {
        "functional": _FUNCTIONAL,
        "n_particles": (32, _count()),
        "policy": _POLICY,
        "n_replicas": (64, _count())}),
    "rate": (_run_rate, {
        "target": _TARGET,
        "family": ({}, ({
            "family": ("constant", _choice("constant", "feedback")),
            "bound": (3.0, _BOUND),
        }, lambda f: constant_family(f["model"].d1, bound=f["bound"])
            if f["family"] == "constant" else
            feedback_family(f["model"].d, f["model"].d1, bound=f["bound"]))),
        "lambdas": ([1.0, 4.0], _ascending(_REAL)),
        "n_particles": (64, _count()),
        "n_replicas": (16, _count()),
        "opt_budget": (40, _num("an integer >= dim(theta) + 2",
                                lambda x, p: x >= p["family"].dim + 2, True)),
        "radius": (0.1, _POSITIVE),
        "distance_mode": ("terminal", lambda v, p: ldp.check_distance_mode(
            p["target"], v))}),
    "submartingale": (_run_submartingale, {
        "skip_boundary_check": (False, _FLAG),
        "function": ("neg_x_sq", _test_function),
        "n_particles": (1024, _count(2, " (the test needs two paths)")),
        "time_pairs": (lambda p: [[0.0, p["grid"].horizon]], _time_pairs),
        "c_bias": (0.0, _num("a finite number >= 0", lambda x, p: x >= 0)),
        "confidence": (0.95, _num("a number in (0, 1)", lambda x, p: 0 < x < 1)),
        "calibrate": (False, _calibrate)}),
}

CONFIG = {  # the top level; "kind" is the command line's
    "schema_version": (SCHEMA_VERSION, _num(
        str(SCHEMA_VERSION), lambda x, p: x == SCHEMA_VERSION, keep=True)),
    "kind": (None, _choice(*KINDS)),
    "seed": (0, _checked("an integer >= 0",
                         lambda v, p: type(v) is int and v >= 0)),
    "budget": (None, _checked("a finite number > 0",
                              lambda v, p: v is None or _is_positive(v))),
    "grid": (None, (GRID, lambda g: TimeGrid(g["horizon"], g["n_steps"]))),
    "model": (None, _model),
    "run": ({}, lambda v, p: _parse(KINDS[p["kind"]][1], v, "run", p)),
}


def _cpus() -> int:
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int | None = None) -> int:
    """The most threads the chaos kind starts: ``workers`` (default 2), at
    most the CPUs this process may use.  Each thread that has run HiGHS
    keeps its own working set, so the default stays at the two measured."""
    if workers is not None and not _is_count(workers):
        raise InputError(f"workers must be an integer >= 1, got {workers!r}")
    return min(2 if workers is None else workers, _cpus())


def run_scenario(scenario: tuple[dict, dict], out_dir: str,
                 workers: int | None = None) -> int:
    """Run a config as ``load_config`` returns it: result.json,
    manifest.json, CSVs.

    ``workers`` caps the chaos kind's threads (``pool_size``); the output
    bytes do not depend on it.
    """
    cfg, p = scenario
    size = pool_size(workers)  # a bad cap fails before anything runs
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: "
                          f"{exc}") from exc
    digest = config_hash(cfg)
    try:
        result, extra_files = KINDS[cfg["kind"]][0](
            {**p["run"], "workers": size}, out)
        result.update(kind=cfg["kind"], seed=cfg["seed"], config_hash=digest)
        code = EXIT_BUDGET if result.get("guard", False) else EXIT_OK
    except BudgetError as exc:
        result, extra_files = {"kind": cfg["kind"], "error": "budget_exceeded",
                               "detail": str(exc)}, []
        code = EXIT_BUDGET
    (out / "result.json").write_text(canonical_json(result))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "resolved_config": cfg,
        "seed": cfg["seed"],
        "config_hash": digest,
        "outputs": sorted({"result.json", "manifest.json", *extra_files}),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(canonical_json(manifest))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rldp",
        description="Reflected interacting-particle simulation and "
                    "large-deviation estimation")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="threads for the exact 1D BL linear programs "
                            "of the chaos kind, at most one per CPU; "
                            "default 2; 1 starts no thread; results do not "
                            "change")
        p.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.kind, seed_override=args.seed)
        return run_scenario(cfg, args.out, args.workers)
    except (ConfigError, InputError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
