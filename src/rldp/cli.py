"""Scenario-driven command line entry point.

    rldp <kind> --config path [--seed u64] [--workers n] [--out dir]

Kinds: simulate, chaos, laplace, variational, rate, submartingale.
Configs are JSON; flags override config fields (flag > file > default).
Each run writes a manifest (resolved config + seed + content hash) and a
result JSON whose bytes depend only on (config, seed) - never on worker
count or wall-clock time.  Exit codes: 0 ok, 2 config error, 3 budget or
guard flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import diagnostics, ldp
from .controls import constant_family, feedback_family, policy_from_config
from .ensemble import (marginal_flow, empirical_measure_at,
                       simulate_particle_system, solve_mckean_vlasov_reference,
                       write_paths_csv)
from .errors import BudgetError, ConfigError, InputError
from .integrator import TimeGrid
from .ldp import functional_from_config
from .measures import bl_distance
from .model import MeasureSummary, model_from_config

SCHEMA_VERSION = 1
RUN_KINDS = ("simulate", "chaos", "laplace", "variational", "rate",
             "submartingale")

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
        v = float(obj)
        return "inf" if math.isinf(v) else v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(_to_jsonable(cfg), sort_keys=True).encode()).hexdigest()


def load_config(path: str, kind: str, seed_override=None) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unrecognized schema_version {version}")
    for key in ("model", "grid"):
        if key not in cfg:
            raise ConfigError(f"config missing required block {key!r}")
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    cfg.setdefault("seed", 0)
    cfg.setdefault("run", {})
    if not isinstance(cfg["run"], dict):
        raise ConfigError("run must be a JSON object")
    cfg["kind"] = kind
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    seed = cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    budget = cfg.get("budget")
    if budget is not None and (isinstance(budget, bool)
                               or not isinstance(budget, (int, float))
                               or not budget > 0):
        raise ConfigError(f"budget must be a positive number, got {budget!r}")
    return cfg


def _build_common(cfg: dict):
    try:
        model = model_from_config(cfg["model"])
        grid_cfg = cfg["grid"]
        grid = TimeGrid(float(grid_cfg["horizon"]), int(grid_cfg["n_steps"]))
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as exc:
        raise ConfigError(f"invalid model/grid block: {exc}") from exc
    if not math.isclose(grid.horizon, model.horizon, rel_tol=1e-12):
        raise ConfigError(f"grid horizon {grid.horizon} differs from model "
                          f"horizon {model.horizon}")
    return model, grid


def _field(block: dict, key: str, default, cast, where: str = "run"):
    """``cast(block.get(key, default))``, a ``ConfigError`` if that fails."""
    try:
        return cast(block.get(key, default))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {where}.{key}: {exc}") from exc


def _json_bool(value) -> bool:
    """A ``_field`` cast that accepts only a JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _block(parent: dict, key: str, default: dict, where: str = "run") -> dict:
    block = parent.get(key, default)
    if not isinstance(block, dict):
        raise ConfigError(f"{where}.{key} must be a JSON object")
    return block


def _functional(run: dict):
    if "functional" not in run:
        raise ConfigError("run.functional is required for this kind")
    try:
        return functional_from_config(run["functional"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid run.functional: {exc}") from exc


# -- run kinds -------------------------------------------------------------------

def _run_simulate(cfg, model, grid, out: Path):
    run = cfg["run"]
    n = _field(run, "n_particles", 8, int)
    policy = None
    if "policy" in run:
        policy = _field(run, "policy", None, lambda c: policy_from_config(
            c, grid, model.d, model.d1))
    ens = simulate_particle_system(model, n, grid, policy=policy,
                                   seed=cfg["seed"], budget=cfg.get("budget"))
    csv_path = out / "paths.csv"
    write_paths_csv(ens, str(csv_path))
    terminal = empirical_measure_at(ens, grid.horizon)
    result = {
        "kind": "simulate",
        "n_particles": n,
        "n_steps": grid.n_steps,
        "terminal_mean": terminal.mean,
        "terminal_cov_trace": terminal.cov_trace(),
        "total_local_time_mean": float(np.mean(ens.local_time[-1])),
        "policy": ens.policy_id,
    }
    return result, ["paths.csv"]


def _run_chaos(cfg, model, grid, out: Path):
    run = cfg["run"]
    n_values = _field(run, "n_values", [64, 256, 1024],
                      lambda vs: [int(v) for v in vs])
    n_replicas = _field(run, "n_replicas", 16, int)
    n_ref = _field(run, "n_ref", 4096, int)
    ref = solve_mckean_vlasov_reference(model, grid, method="large_N",
                                        n_ref=n_ref, seed=cfg["seed"],
                                        budget=cfg.get("budget"))
    rows = []
    medians = {}
    for n in n_values:
        dists = []
        for rep in range(1, n_replicas + 1):  # replica 0 feeds the reference
            ens = simulate_particle_system(model, n, grid, seed=cfg["seed"],
                                           replica=rep,
                                           budget=cfg.get("budget"))
            dist = bl_distance(empirical_measure_at(ens, grid.horizon),
                               ref.terminal).value
            dists.append(dist)
            rows.append((n, rep, dist))
        medians[str(n)] = float(np.median(dists))
    csv_path = out / "distances.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("n_particles,replica,bl_distance\r\n")
        for n, rep, dist in rows:
            fh.write(f"{n},{rep},{dist!r}\r\n")
    result = {
        "kind": "chaos",
        "n_ref": n_ref,
        "n_replicas": n_replicas,
        "median_distance_by_n": medians,
        "strictly_decreasing": all(
            medians[str(a)] > medians[str(b)]
            for a, b in zip(n_values, n_values[1:])),
    }
    return result, ["distances.csv"]


def _run_laplace(cfg, model, grid, out: Path):
    run = cfg["run"]
    functional = _functional(run)
    est = ldp.laplace_functional_mc(
        model, functional, _field(run, "n_particles", 32, int), grid,
        _field(run, "n_replicas", 64, int), seed=cfg["seed"],
        budget=cfg.get("budget"))
    result = {
        "kind": "laplace",
        "functional": functional.id,
        "value": est.value,
        "std_error": est.std_error,
        "n_particles": est.n_particles,
        "n_replicas": est.n_replicas,
        "effective_sample_size": est.effective_sample_size,
        "guard": est.log_sum_exp_guard,
    }
    return result, []


def _run_variational(cfg, model, grid, out: Path):
    run = cfg["run"]
    functional = _functional(run)
    policy = _field(run, "policy", {"policy": "zero"},
                    lambda c: policy_from_config(c, grid, model.d, model.d1))
    est = ldp.variational_objective(
        model, functional, policy, _field(run, "n_particles", 32, int), grid,
        _field(run, "n_replicas", 64, int), seed=cfg["seed"],
        budget=cfg.get("budget"))
    result = {
        "kind": "variational",
        "functional": functional.id,
        "policy": policy.policy_id,
        "objective": est.objective,
        "cost_part": est.cost_part,
        "f_part": est.f_part,
        "std_error": est.std_error,
    }
    return result, []


def _resolve_rate_target(run, model, grid, seed, budget):
    tgt = _block(run, "target", {"kind": "reference"})
    kind = tgt.get("kind", "reference")
    if kind == "reference":
        return solve_mckean_vlasov_reference(
            model, grid, method="large_N",
            n_ref=_field(tgt, "n_ref", 2048, int, "run.target"),
            seed=seed + _field(tgt, "seed_offset", 1000, int, "run.target"),
            budget=budget)
    if kind == "terminal_point":
        if "point" not in tgt:
            raise ConfigError("run.target.point is required")
        return _field(tgt, "point", None, MeasureSummary.dirac, "run.target")
    raise ConfigError(f"unknown rate target kind {kind!r}")


def _resolve_family(run, model, grid):
    fam = _block(run, "family", {"family": "constant"})
    name = fam.get("family", "constant")
    bound = _field(fam, "bound", 3.0, float, "run.family")
    if name == "constant":
        return constant_family(model.d1, bound=bound)
    if name == "feedback":
        return feedback_family(model.d, model.d1, bound=bound)
    raise ConfigError(f"unknown optimizer family {name!r}")


def _run_rate(cfg, model, grid, out: Path):
    run = cfg["run"]
    target = _resolve_rate_target(run, model, grid, cfg["seed"],
                                  cfg.get("budget"))
    family = _resolve_family(run, model, grid)
    est = ldp.estimate_rate(
        model, target,
        _field(run, "lambdas", [1.0, 4.0], lambda ls: [float(v) for v in ls]),
        family, _field(run, "n_particles", 64, int), grid,
        _field(run, "n_replicas", 16, int), _field(run, "opt_budget", 40, int),
        seed=cfg["seed"], radius=_field(run, "radius", 0.1, float),
        distance_mode=run.get("distance_mode", "terminal"),
        sim_budget=cfg.get("budget"))
    result = {
        "kind": "rate",
        "target": est.target_description,
        "radius": est.radius,
        "lambdas": est.lambdas,
        "achieved_distances": est.achieved_distances,
        "cost_values": est.cost_values,
        "feasible": est.feasible,
        "upper_bound": est.upper_bound,
        "selected_lambda": est.selected_lambda,
    }
    return result, []


def _run_submartingale(cfg, model, grid, out: Path):
    run = cfg["run"]
    funcs = diagnostics.standard_test_functions(model.d, model.d1)
    fid = run.get("function", "neg_x_sq")
    if not isinstance(fid, str) or fid not in funcs:
        raise ConfigError(f"unknown test function {fid!r}")
    f = funcs[fid]
    n = _field(run, "n_particles", 1024, int)
    pairs = _field(run, "time_pairs", None, lambda ps: [
        (float(a), float(b)) for a, b in ps or [(0.0, grid.horizon)]])
    c_bias = _field(run, "c_bias", 0.0, float)
    confidence = _field(run, "confidence", 0.95, float)
    calibrate = _field(run, "calibrate", False, _json_bool)
    skip_check = _field(run, "skip_boundary_check", False, _json_bool)
    ens = simulate_particle_system(model, n, grid, seed=cfg["seed"],
                                   budget=cfg.get("budget"))
    flow = marginal_flow(ens)
    if calibrate:
        c_bias = diagnostics.calibrate_bias_allowance(
            model, f, grid, n_paths=min(n, 512), seed=cfg["seed"])
    report = diagnostics.submartingale_test(
        ens, flow, f, model, pairs, confidence=confidence, c_bias=c_bias,
        skip_boundary_check=skip_check)
    return {"kind": "submartingale", **report.to_dict()}, []


_RUNNERS = {
    "simulate": _run_simulate,
    "chaos": _run_chaos,
    "laplace": _run_laplace,
    "variational": _run_variational,
    "rate": _run_rate,
    "submartingale": _run_submartingale,
}


def run_scenario(cfg: dict, out_dir: str) -> int:
    """Execute one scenario; writes result.json + manifest.json (+ CSVs)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, grid = _build_common(cfg)
    kind = cfg["kind"]
    try:
        result, extra_files = _RUNNERS[kind](cfg, model, grid, out)
    except BudgetError as exc:
        payload = {"kind": kind, "error": "budget_exceeded", "detail": str(exc)}
        (out / "result.json").write_text(canonical_json(payload))
        _write_manifest(cfg, out, ["result.json"])
        return EXIT_BUDGET
    result["seed"] = cfg["seed"]
    result["config_hash"] = config_hash(cfg)
    (out / "result.json").write_text(canonical_json(result))
    _write_manifest(cfg, out, ["result.json"] + extra_files)
    guard = bool(result.get("guard", False))
    return EXIT_BUDGET if guard else EXIT_OK


def _write_manifest(cfg: dict, out: Path, outputs: list[str]):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "resolved_config": _to_jsonable(cfg),
        "seed": cfg["seed"],
        "config_hash": config_hash(cfg),
        "outputs": sorted(set(outputs + ["manifest.json"])),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rldp",
        description="Reflected interacting-particle simulation and "
                    "large-deviation estimation")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in RUN_KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=1,
                       help="parallelism hint; never changes results")
        p.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(json.dumps({"error": "config", "detail": "workers must be >= 1"}),
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config, args.kind, seed_override=args.seed)
        return run_scenario(cfg, args.out)
    except (ConfigError, InputError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
