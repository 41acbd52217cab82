"""The CLI checks a whole config before it runs anything.

Every malformed config exits 2 with one JSON error line on stderr and
writes no ``result.json``; checks that need the model or the grid still run
before the first simulation.
"""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rldp
import rldp.ensemble as ensemble_mod
from rldp import cli, diagnostics
from rldp.integrator import TimeGrid
from rldp.model import model_from_config

MODEL = {"model": "m1", "domain": {"kind": "box", "lo": [0.0], "hi": [1.0]},
         "sigma_scale": 0.5, "horizon": 0.5}

# Tiny valid run blocks, every key set, so that each run takes milliseconds.
RUNS = {
    "simulate": {"n_particles": 2,
                 "policy": {"policy": "constant", "v": [0.5]}},
    "chaos": {"n_values": [2, 4], "n_replicas": 2, "n_ref": 8},
    "laplace": {"functional": {"functional": "constant", "c": 0.1},
                "n_particles": 2, "n_replicas": 2},
    "variational": {"functional": {"functional": "constant", "c": 0.0},
                    "policy": {"policy": "zero"},
                    "n_particles": 2, "n_replicas": 2},
    "rate": {"target": {"kind": "terminal_point", "point": [0.5]},
             "family": {"family": "constant", "bound": 1.0},
             "lambdas": [1.0], "n_particles": 2, "n_replicas": 2,
             "opt_budget": 3, "radius": 1.0, "distance_mode": "terminal"},
    "submartingale": {"function": "neg_x_sq", "n_particles": 4,
                      "time_pairs": [[0.0, 0.5]], "c_bias": 0.0,
                      "confidence": 0.95, "calibrate": False,
                      "skip_boundary_check": False},
}

DELETE = object()


def _config(kind, changes=()):
    """The tiny config of ``kind`` with each (path, value) of ``changes``."""
    cfg = {"schema_version": 1, "seed": 3, "model": copy.deepcopy(MODEL),
           "grid": {"horizon": 0.5, "n_steps": 4},
           "run": copy.deepcopy(RUNS[kind])}
    for path, value in changes:
        block = cfg
        for key in path[:-1]:
            block = block[key]
        if value is DELETE:
            block.pop(path[-1], None)
        else:
            block[path[-1]] = value
    return cfg


def _main(kind, cfg, out_dir):
    """(exit code, stderr) of ``rldp kind`` on ``cfg``, writing to out_dir."""
    path = Path(out_dir) / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([kind, "--config", str(path),
                         "--out", str(Path(out_dir) / "o")])
    return code, err.getvalue()


def _assert_config_error(code, err, out_dir):
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert not (Path(out_dir) / "o" / "result.json").exists()


NAN = float("nan")
MALFORMED = [
    ("chaos", [(("run", "n_replicas"), 0)]),
    ("chaos", [(("run", "n_values"), [])]),
    ("chaos", [(("run", "n_values"), [4, 2])]),
    ("simulate", [(("run", "n_particles"), 3.7)]),
    ("simulate", [(("run", "n_particles"), True)]),
    ("simulate", [(("run", "n_partcles"), 3)]),
    ("variational", [(("run", "n_replicas"), 0)]),
    ("rate", [(("run", "lambdas"), [])]),
    ("rate", [(("run", "radius"), NAN)]),
    ("rate", [(("run", "radius"), -1)]),
    ("rate", [(("run", "family", "bound"), NAN)]),
    ("rate", [(("run", "target"), {"kind": "reference", "seed_offset": -5000})]),
    ("rate", [(("run", "target", "point"), [0.5, 0.5])]),
    ("submartingale", [(("run", "time_pairs"), [])]),
    ("submartingale", [(("run", "c_bias"), NAN)]),
    ("simulate", [(("grid", "n_steps"), 1.5)]),
    ("simulate", [(("grid", "n_stepz"), 4)]),
    ("simulate", [(("run", "policy"), {"policy": "constant",
                                        "v": [1.0, 2.0]})]),
    ("simulate", [(("run", "policy"), {"policy": "piecewise_constant",
                                        "values": [[1.0, 2.0]] * 4})]),
    ("variational", [(("run", "policy"), {"policy": "feedback",
                                           "theta": [0.0] * 10,
                                           "bound": NAN})]),
    ("simulate", [(("model", "domain"), None)]),
    ("simulate", [(("model", "init"), [[5.0]])]),
    ("simulate", [(("run", "policy"), [])]),
    ("simulate", [(("run", "policy", "policy"), [])]),
    ("simulate", [(("run", "policy"), {"policy": "piecewise_constant",
                                        "values": 0.5})]),
    ("simulate", [(("run", "policy"), {"policy": "piecewise_constant",
                                        "values": [[[0.5]] * 3] * 4})]),
    ("variational", [(("run", "policy"), {"policy": "piecewise_constant",
                                           "values": [[[[0.5]] * 2]] * 4})]),
    ("rate", [(("run", "target"), {"kind": "reference", "point": [0.5]})]),
    ("rate", [(("run", "target"), {"kind": "terminal_point", "point": [0.5],
                                   "n_ref": 8})]),
    ("rate", [(("run", "family", "bound"), 1e200)]),
    ("variational", [(("run", "policy"), {"policy": "feedback",
                                           "theta": [0.0] * 10,
                                           "bound": 1e200})]),
]


@pytest.mark.parametrize("kind, changes", MALFORMED)
def test_malformed_config_exits_2_before_running(tmp_path, kind, changes):
    code, err = _main(kind, _config(kind, changes), tmp_path)
    _assert_config_error(code, err, tmp_path)
    key = changes[0][0][-1]
    assert key in json.loads(err)["detail"]


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_tiny_configs_run(tmp_path, kind):
    code, err = _main(kind, _config(kind), tmp_path)
    assert code == 0, err


# The grid holds the run's one horizon.  A model block may restate it, equal
# to grid.horizon, or leave it out, which exited 2 ("its horizon 1.0 differs
# from grid.horizon 0.5").  Either way the run writes the same bytes, but
# for the hash of the config as written.
@pytest.mark.parametrize("kind", sorted(RUNS))
def test_model_horizon_is_optional(tmp_path, kind):
    written = []
    for name, changes in (("with", []),
                          ("without", [(("model", "horizon"), DELETE)])):
        (tmp_path / name).mkdir()
        cfg = _config(kind, changes)
        code, err = _main(kind, cfg, tmp_path / name)
        assert code == 0, err
        text = (tmp_path / name / "o" / "result.json").read_text()
        digest = cli.config_hash({**cfg, "kind": kind})
        assert text.count(digest) == 1
        written.append(text.replace(digest, ""))
    assert written[0] == written[1]


@pytest.mark.parametrize("horizon", [True, False, "0.5", None, [0.5], {},
                                     NAN, 10**400, 0.5 * (1 + 1e-9), 1.0],
                         ids=["true", "false", "string", "null", "list",
                              "object", "nan", "int_401_digits", "near",
                              "default"])
def test_model_horizon_must_be_the_grids(tmp_path, horizon):
    cfg = _config("simulate", [(("model", "horizon"), horizon)])
    code, err = _main("simulate", cfg, tmp_path)
    _assert_config_error(code, err, tmp_path)
    assert "horizon" in json.loads(err)["detail"]


# A point rounded 1.16e-10 past a sphere of radius 1e6 is on it, as its
# image on the unit sphere is: a fixed 1e-12 band put it outside the
# closed domain, and the run exited 2.
def test_init_on_a_large_sphere_runs(tmp_path):
    model = {**MODEL, "domain": {"kind": "ball", "center": [0.0, 0.0],
                                 "radius": 1e6},
             "init": [[707106.7811865476, 707106.7811865476]]}
    cfg = _config("simulate", [(("model",), model),
                               (("run", "policy"), {"policy": "zero"})])
    code, err = _main("simulate", cfg, tmp_path)
    assert code == 0, err


@pytest.mark.parametrize("change, rejected", [
    ({}, False),
    ({"distance_mode": "bogus"}, True),
    ({"lambdas": []}, True),
    ({"lambdas": [4.0, 1.0]}, True),
    ({"opt_budget": 1}, True)])
def test_rate_reference_target_checked_before_the_reference(
        tmp_path, monkeypatch, change, rejected):
    calls = []
    solve = cli.solve_mckean_vlasov_reference
    monkeypatch.setattr(cli, "solve_mckean_vlasov_reference",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    changes = [(("run", "target"), {"kind": "reference", "n_ref": 16})]
    changes += [(("run", key), value) for key, value in change.items()]
    code, err = _main("rate", _config("rate", changes), tmp_path)
    if rejected:
        _assert_config_error(code, err, tmp_path)
        assert calls == []
    else:
        assert code == 0 and calls == [1], err


@pytest.mark.parametrize("pairs, rejected", [
    ([[0.0, 0.25]], False), ([[0.0, 0.3]], True), ([[0.25, 0.25]], True)])
def test_submartingale_time_pairs_checked_before_simulating(
        tmp_path, monkeypatch, pairs, rejected):
    calls = []
    simulate = cli.simulate_particle_system
    monkeypatch.setattr(cli, "simulate_particle_system",
                        lambda *a, **k: calls.append(1) or simulate(*a, **k))
    cfg = _config("submartingale", [(("run", "time_pairs"), pairs)])
    code, err = _main("submartingale", cfg, tmp_path)
    if rejected:
        _assert_config_error(code, err, tmp_path)
        assert calls == []
    else:
        assert code == 0 and calls == [1], err


@pytest.mark.parametrize("kind", ["laplace", "variational"])
@pytest.mark.parametrize("functional, key", [
    ({"functional": "terminal_mean", "coord": 5}, "coord"),
    ({"functional": "terminal_mean", "coord": 1.5}, "coord"),
    ({"functional": "constant", "c": NAN}, "c"),
    ({"functional": "terminal_mean", "cap": 0}, "cap")])
def test_functional_block_checked_before_simulating(
        tmp_path, monkeypatch, kind, functional, key):
    calls = []
    simulate = cli.ldp.simulate_particle_system
    monkeypatch.setattr(cli.ldp, "simulate_particle_system",
                        lambda *a, **k: calls.append(1) or simulate(*a, **k))
    cfg = _config(kind, [(("run", "functional"), functional)])
    code, err = _main(kind, cfg, tmp_path)
    _assert_config_error(code, err, tmp_path)
    assert f"run.functional.{key}" in json.loads(err)["detail"]
    assert calls == []


@pytest.mark.parametrize("changes", [
    [(("model", "model"), "m2"), (("model", "theta"), NAN)],
    [(("model", "model"), "m2"), (("model", "theta"), True)],
    [(("model", "sigma_scale"), "0.5")]], ids=["nan", "bool", "string"])
def test_model_parameters_checked_before_simulating(
        tmp_path, monkeypatch, changes):
    calls = []
    simulate = cli.simulate_particle_system
    monkeypatch.setattr(cli, "simulate_particle_system",
                        lambda *a, **k: calls.append(1) or simulate(*a, **k))
    code, err = _main("simulate", _config("simulate", changes), tmp_path)
    _assert_config_error(code, err, tmp_path)
    assert changes[-1][0][-1] in json.loads(err)["detail"]
    assert calls == []


BALL3 = {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}


@pytest.mark.parametrize("kind, changes", [
    ("submartingale", [(("model", "domain"), BALL3),
                       (("run", "function"), "linear_x1")]),
    ("submartingale", [(("grid", "n_steps"), 6), (("run", "calibrate"), True)]),
    ("simulate", [(("model", "model"), "drifted"), (("model", "b_const"), ["1"])]),
    ("simulate", [(("model", "model"), "drifted"), (("model", "b_const"), True)]),
    ("simulate", [(("model", "model"), "drifted"),
                  (("model", "b_const"), [True])]),
], ids=["boundary_condition", "calibrate_n_steps", "b_const_string",
        "b_const_bool", "b_const_bool_list"])
def test_checked_before_any_step(tmp_path, monkeypatch, kind, changes):
    calls = []  # every simulation, of particles or of a reference flow
    advance = ensemble_mod._advance
    monkeypatch.setattr(ensemble_mod, "_advance",
                        lambda *a, **k: calls.append(1) or advance(*a, **k))
    code, err = _main(kind, _config(kind, changes), tmp_path)
    _assert_config_error(code, err, tmp_path)
    assert changes[-1][0][-1] in json.loads(err)["detail"]
    assert calls == []


def test_calibrated_bias_is_the_calibration(tmp_path):
    cfg = _config("submartingale", [(("run", "calibrate"), True)])
    code, err = _main("submartingale", cfg, tmp_path)
    assert code == 0, err
    result = json.loads((tmp_path / "o" / "result.json").read_text())
    model = model_from_config({k: v for k, v in MODEL.items()
                               if k != "horizon"})
    f = diagnostics.standard_test_functions(1, 1)["neg_x_sq"]
    n = cfg["run"]["n_particles"]
    c_bias = diagnostics.calibrate_bias_allowance(
        model, f, TimeGrid(0.5, 4), n_paths=min(n, 512), seed=cfg["seed"])
    assert result["c_bias"] == c_bias > 0.0


# -- strict schema: every block rejects unknown keys and non-numbers -------------

def _numeric_leaves(node, path=()):
    """Paths of the numbers (not bools) in a JSON tree, list entries too."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(
            node, bool) else []
    return [leaf for key, child in items
            for leaf in _numeric_leaves(child, path + (key,))]


def _blocks(kind):
    """Paths of the JSON objects in the tiny config of ``kind``."""
    cfg = _config(kind)
    nested = [("run", key) for key, v in cfg["run"].items()
              if isinstance(v, dict)]
    return [(), ("model",), ("model", "domain"), ("grid",), ("run",)] + nested


STRICT = [(kind, path, value) for kind in sorted(RUNS)
          for path in _numeric_leaves(_config(kind)) for value in (True, "1")]
STRICT += [(kind, path + ("junk",), 1) for kind in sorted(RUNS)
           for path in _blocks(kind)]


def test_strict_cases_cover_every_block():
    blocks = {path[-1] for kind in RUNS for path in _blocks(kind) if path}
    assert blocks == {"model", "domain", "grid", "run", "policy",
                      "functional", "target", "family"}


@pytest.mark.parametrize("kind, path, value", STRICT)
def test_strict_schema_exits_2_before_simulating(
        tmp_path, monkeypatch, kind, path, value):
    calls = []  # every simulation, of particles or of a reference flow
    advance = ensemble_mod._advance
    monkeypatch.setattr(ensemble_mod, "_advance",
                        lambda *a, **k: calls.append(1) or advance(*a, **k))
    code, err = _main(kind, _config(kind, [(path, value)]), tmp_path)
    _assert_config_error(code, err, tmp_path)
    assert calls == []


def _readme_keys(heading):
    """The (kind, key) pairs of the table under README's ``heading``: each
    kind named in a row's first column ("all" for every kind), with each key
    in its second."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.split(r"\n##+ ", readme.split(heading, 1)[1])[0]
    listed = set()
    for row in re.findall(r"^\| (.+?) \| (.+?) \|", section, re.M):
        kinds = (sorted(cli.KINDS) if row[0] == "all"
                 else re.findall(r"`(\w+)`", row[0]))
        listed |= {(k, key) for k in kinds
                   for key in re.findall(r"`([\w.]+)`", row[1])}
    return listed


def test_readme_names_every_config_key():
    """README's config table lists each (kind, key) the tables declare."""
    def keys(table, prefix=""):
        """Dotted keys of a table, its nested blocks and variants expanded."""
        out = set()
        for t in table.tables.values() if callable(table) else [table]:
            for key, (_, cast) in t.items():
                out |= (keys(cast[0], f"{prefix}{key}.")
                        if isinstance(cast, tuple) else {prefix + key})
        return out

    declared = {(kind, key) for kind, (_, table) in cli.KINDS.items()
                for key in keys(cli.GRID, "grid.") | keys(table, "")}
    assert _readme_keys("### Config keys") == declared
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = readme.split("### Config keys", 1)[1].split("\n| ", 1)[0]
    assert set(cli.CONFIG) <= set(re.findall(r"`(\w+)`", prose))


def test_readme_names_every_result_key(tmp_path):
    """README's result table lists each (kind, key) a tiny run writes, a
    submartingale entry's keys as ``entries.<key>``."""
    written = set()
    for kind in sorted(RUNS):
        (tmp_path / kind).mkdir()
        code, err = _main(kind, _config(kind), tmp_path / kind)
        assert code == 0, err
        result = json.loads((tmp_path / kind / "o" / "result.json").read_text())
        written |= {(kind, key) for key in result}
        written |= {(kind, f"entries.{key}")
                    for entry in result.get("entries", []) for key in entry}
    assert _readme_keys("### Result keys") == written


def test_readme_simulate_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"Example config \(`simulate`\):\s*```json\n(.*?)```",
                        readme, re.S)
    code, err = _main("simulate", json.loads(example.group(1)), tmp_path)
    assert code == 0, err


# -- fuzz: one path of a tiny valid config changed --------------------------------

POOL = [None, True, "x", -1, 0, 1.5, NAN, float("inf"), [], {}, DELETE,
        1e200, -1e308, 5e-324]


def _paths(kind):
    cfg = _config(kind)
    paths = [("grid", k) for k in cfg["grid"]]
    paths += [("run", k) for k in cfg["run"]]
    for block in ("target", "family", "policy", "functional"):
        paths += [("run", block, k) for k in cfg["run"].get(block, {})]
    paths += [("model", "domain", k) for k in cfg["model"]["domain"]]
    return paths + [("model", "domain"), ("model", "init"),
                    ("model", "sigma_scale"), ("model", "horizon"), ("seed",),
                    ("budget",)]


CASES = [(kind, path) for kind in sorted(RUNS) for path in _paths(kind)]


# The one number README lets a run write as not finite: the rate upper
# bound, "inf" when no penalty weight reaches the radius.
DOCUMENTED_NON_FINITE = {("rate", "upper_bound")}


def _non_finite(node):
    """Whether a JSON tree holds a number written as "nan", "inf" or "-inf"."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return any(map(_non_finite, node))
    return node in ("nan", "inf", "-inf")


def _assert_exit_contract(kind, changes):
    """The run's result when it exits 0, else None."""
    with tempfile.TemporaryDirectory() as out_dir:
        code, err = _main(kind, _config(kind, changes), out_dir)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 2:
            _assert_config_error(code, err, out_dir)
        if code == 0:
            result = json.loads((Path(out_dir) / "o" / "result.json").read_text())
            assert [key for key, v in result.items() if _non_finite(v)
                    and (kind, key) not in DOCUMENTED_NON_FINITE] == []
            return result
    return None


# Huge counts stay out of the pool: ``budget`` bounds the particle-steps of
# one simulation, not how many replicas or optimizer evaluations a run makes.
@settings(derandomize=True, deadline=None, max_examples=300, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), value=st.sampled_from(POOL))
def test_exit_code_contract_under_one_changed_path(case, value):
    kind, path = case
    _assert_exit_contract(kind, [(path, value)])


# The fuzz draws about a fifth of the (case, value) pairs; these once
# overflowed (an escaping RuntimeWarning under -W error), so each is pinned.
OVERFLOWED = {f"{kind}-{'.'.join(path[1:])}-{value:g}": (kind, [(path, value)])
              for kind, path, value in [
    ("rate", ("run", "target", "point"), 1e200),
    ("rate", ("run", "target", "point"), -1e308),
    ("simulate", ("model", "sigma_scale"), 1e200),
    ("simulate", ("model", "sigma_scale"), -1e308),
    ("simulate", ("run", "policy", "v"), 1e200),
    ("simulate", ("run", "policy", "v"), -1e308),
    ("submartingale", ("model", "sigma_scale"), 1e200),
    ("submartingale", ("model", "sigma_scale"), -1e308),
    ("variational", ("run", "functional", "c"), -1e308),
]}
# Two more the fuzz cannot reach: it changes the two horizons one at a time,
# and its tiny configs hold no feedback policy.
OVERFLOWED["simulate-horizons-1e+308"] = ("simulate", [
    (("grid", "horizon"), 1e308), (("model", "horizon"), 1e308)])
OVERFLOWED["simulate-policy.theta-1e+308"] = ("simulate", [
    (("run", "policy"), {"policy": "feedback", "theta": [1e308] * 10})])
# The features of a feedback policy hold x^2 and x m, so on a domain wider
# than 1e50 weights within the cap overflowed the product phi theta.
WIDE_BOX = {"kind": "box", "lo": [-1e150], "hi": [1e150]}
OVERFLOWED["simulate-wide_box-policy.theta-1e+10"] = ("simulate", [
    (("model", "domain"), WIDE_BOX),
    (("run", "policy"), {"policy": "feedback", "theta": [1e10] * 10})])
OVERFLOWED["variational-wide_box-policy.theta-1e+50"] = ("variational", [
    (("model", "domain"), WIDE_BOX),
    (("run", "policy"), {"policy": "feedback", "theta": [1e50] * 10})])

# Joint extremes inside the 1e50 rule, every parameter and both horizons at
# 1e50.  m2's submartingale statistics squared values past 1e154; m3's scale,
# clipped from above only, went to about -1e183 (tr cov < 0 by cancellation
# far from the origin, before it was taken about the mean) and overflowed
# the projection.
HUGE_GRID = {"horizon": 1e50, "n_steps": 4}
OVERFLOWED["submartingale-m2-box_1e50"] = ("submartingale", [
    (("model",), {"model": "m2", "domain": {"kind": "box", "lo": [-1e50],
                                            "hi": [1e50]},
                  "theta": 1e50, "sigma_scale": 1e50, "horizon": 1e50}),
    (("grid",), HUGE_GRID), (("run",), {"n_particles": 4})])
OVERFLOWED["simulate-m3-ball_at_1e50-policy.theta-1e+50"] = ("simulate", [
    (("model",), {"model": "m3", "domain": {"kind": "ball",
                                            "center": [1e50, -1e50],
                                            "radius": 1e50},
                  "sigma_scale": 1e50, "alpha": 1e50, "clip_L": 1e50,
                  "horizon": 1e50}),
    (("grid",), HUGE_GRID),
    (("run",), {"n_particles": 8, "policy": {
        "policy": "feedback", "theta": [1e50] * 42, "bound": 1e50}})])


@pytest.mark.parametrize("kind, changes", OVERFLOWED.values(), ids=list(OVERFLOWED))
def test_exit_code_contract_at_huge_magnitudes(kind, changes):
    result = _assert_exit_contract(kind, changes) or {}
    # a covariance trace taken about the mean: m3 far from the origin wrote
    # -1.2e83 when it was the second moment minus |mean|^2
    assert result.get("terminal_cov_trace", 0.0) >= 0.0


# The horizon is the grid's last node however the steps divide it: with
# horizon 1e9 and 29 steps, 29 dt is 999999999.9999999.
@pytest.mark.parametrize("kind", ["simulate", "chaos", "submartingale"])
def test_large_horizon_is_a_grid_node(kind):
    changes = [(("grid",), {"horizon": 1e9, "n_steps": 29}),
               (("model", "horizon"), 1e9), (("run", "time_pairs"), DELETE)]
    with tempfile.TemporaryDirectory() as out_dir:
        code, err = _main(kind, _config(kind, changes), out_dir)
    assert code == 0, err


def _horizons(horizon, n_steps):
    """Both horizons and the grid's steps changed, default time pairs."""
    return [(("grid",), {"horizon": horizon, "n_steps": n_steps}),
            (("model", "horizon"), horizon), (("run", "time_pairs"), DELETE)]


def _fresh_env():
    """This process's environment, with the tested ``rldp`` first on the
    path, for a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rldp.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# 5e-324 / 2 rounds to a step of 0, which escaped as a ZeroDivisionError.
@pytest.mark.parametrize("kind", ["simulate", "submartingale"])
def test_grid_step_underflow_exits_2(tmp_path, kind):
    code, err = _main(kind, _config(kind, _horizons(5e-324, 2)), tmp_path)
    _assert_config_error(code, err, tmp_path)


# The grid horizon follows the 1e50 rule of the model's numbers, with or
# without a model horizon restating it.
@pytest.mark.parametrize("kind", ["simulate", "submartingale"])
@pytest.mark.parametrize("restated", [True, False], ids=["restated", "grid"])
def test_grid_horizon_past_the_magnitude_cap_exits_2(tmp_path, kind,
                                                      restated):
    changes = _horizons(1.01e50, 4)
    if not restated:
        changes.append((("model", "horizon"), DELETE))
    code, err = _main(kind, _config(kind, changes), tmp_path)
    _assert_config_error(code, err, tmp_path)
    assert "grid" in json.loads(err)["detail"]


@pytest.mark.parametrize("kind", ["simulate", "submartingale"])
@pytest.mark.parametrize("horizon, n_steps", [(5e-324, 1), (1e-320, 2)])
def test_subnormal_grid_step_keeps_the_exit_contract(kind, horizon, n_steps):
    _assert_exit_contract(kind, _horizons(horizon, n_steps))


# With 1e11 steps the time pairs were checked against the grid's nodes,
# built (745 GiB) before the step budget, and the run escaped as a
# MemoryError.  The address space is capped at 3 GiB so that a regression
# fails fast on a host that overcommits memory.
def test_huge_grid_exits_3_before_building_its_nodes(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config("submartingale",
                                       _horizons(0.5, 10**11))))
    script = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
              "from rldp import cli; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, "submartingale",
         "--config", str(path), "--out", str(tmp_path / "o")],
        env=_fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    result = json.loads((tmp_path / "o" / "result.json").read_text())
    assert result["error"] == "budget_exceeded"


# -- what a run loads ----------------------------------------------------------
# scipy serves the exact 1D BL linear program alone.  ``import rldp.cli``
# loads none of it; ``load_config`` loads it for a run that can reach that
# LP, and a run loads no module of its own, so that no import is timed as
# part of it.

BALL2 = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
REFERENCE = {"kind": "reference", "n_ref": 8}
# case -> (kind, changes, whether load_config loads scipy.optimize)
LOADS = {
    "simulate": ("simulate", [], False),
    "chaos-box1d": ("chaos", [], True),
    "chaos-ball2d": ("chaos", [(("model", "domain"), BALL2)], False),
    "laplace": ("laplace", [], False),
    "variational": ("variational", [], False),
    "rate-terminal_point": ("rate", [], False),
    "rate-reference-box1d": ("rate", [(("run", "target"), REFERENCE)], True),
    "rate-default-box1d": ("rate", [(("run", "target"), DELETE)], True),
    "rate-reference-ball2d": ("rate", [(("run", "target"), REFERENCE),
                                       (("model", "domain"), BALL2),
                                       (("run", "opt_budget"), 4)], False),
    "submartingale": ("submartingale", [], False),
}
_LOADS_SCRIPT = """
import json, sys
from rldp import cli
at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
cfg = cli.load_config(sys.argv[2], sys.argv[1])
ready = set(sys.modules)
code = cli.run_scenario(cfg, sys.argv[3])
print(json.dumps({"at_import": at_import, "lp": "scipy.optimize" in ready,
                  "code": code, "run": sorted(set(sys.modules) - ready)}))
"""


@pytest.mark.parametrize("case", sorted(LOADS))
def test_run_loads_no_module_after_load_config(tmp_path, case):
    kind, changes, lp = LOADS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(kind, changes)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _LOADS_SCRIPT, kind, str(path),
         str(tmp_path / "o")],
        env=_fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"at_import": [], "lp": lp, "code": 0,
                                       "run": []}


@pytest.mark.parametrize("kind", ["chaos", "submartingale"])
def test_run_scenario_parses_nothing(tmp_path, monkeypatch, kind):
    """``load_config`` checks the whole config once and builds its model,
    grid and run objects (the submartingale function's boundary check
    included); ``run_scenario`` only runs them."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(kind)))
    scenario = cli.load_config(str(path), kind)
    assert cli.run_scenario(scenario, str(tmp_path / "a")) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("run_scenario checked its config again")

    for module, name in [(cli, "_parse"), (cli, "model_from_config"),
                         (diagnostics, "boundary_condition_check")]:
        monkeypatch.setattr(module, name, refuse)
    assert cli.run_scenario(scenario, str(tmp_path / "b")) == 0
    assert ((tmp_path / "b" / "result.json").read_bytes()
            == (tmp_path / "a" / "result.json").read_bytes())


# Blocks of the wrong shape, among them those that load_config once read
# before it had parsed them, to decide whether to load the LP.
MALFORMED_BLOCKS = [
    ("chaos", [(("model",), 5)]),
    ("chaos", [(("run",), [1])]),
    ("chaos", [(("model", "domain"), "box")]),
    ("chaos", [(("model", "domain", "lo"), DELETE)]),
    ("chaos", [(("model", "domain", "lo"), [[0.0]])]),
    ("rate", [(("run", "target"), 5)]),
    ("rate", [(("run", "target"), {"kind": 7})]),
    ("rate", [(("run", "target"), REFERENCE),
              (("model", "domain", "center"), [0.0])]),
]
# Lists nested 600 deep, which json reads but whose checks recursed past
# the interpreter's limit; then files that json cannot read: not UTF-8,
# nested past that limit, and an integer past the 4300 digits Python
# converts.
DEEP = 0.5
for _ in range(600):
    DEEP = [DEEP]
NAMED_BLOCKS = {
    "policy_v_nested_600": ("simulate", [
        (("run", "policy"), {"policy": "constant", "v": DEEP})]),
    "target_point_nested_600": ("rate", [
        (("run", "target"), {"kind": "terminal_point", "point": DEEP})]),
    "domain_lo_nested_600": ("simulate", [(("model", "domain", "lo"), DEEP)]),
    "not_utf8": ("simulate", b"\xff\xfe{}"),
    "nested_100000": ("simulate", b"[" * 100000 + b"]" * 100000),
    "int_5000_digits": ("simulate", b'{"seed": ' + b"1" * 5000 + b"}"),
}


@pytest.mark.parametrize("kind, changes", MALFORMED_BLOCKS + [
    pytest.param(kind, changes, id=name)
    for name, (kind, changes) in NAMED_BLOCKS.items()])
def test_malformed_block_exits_2_in_a_fresh_process(tmp_path, kind, changes):
    path = tmp_path / "cfg.json"
    if isinstance(changes, bytes):
        path.write_bytes(changes)
    else:
        path.write_text(json.dumps(_config(kind, changes)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys; from rldp import cli; sys.exit(cli.main(sys.argv[1:]))",
         kind, "--config", str(path), "--out", str(tmp_path / "o")],
        env=_fresh_env(), capture_output=True, text=True, timeout=300)
    _assert_config_error(proc.returncode, proc.stderr, tmp_path)
