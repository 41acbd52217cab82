"""The CLI checks a whole config before it runs anything.

Every malformed config exits 2 with one JSON error line on stderr and
writes no ``result.json``; checks that need the model or the grid still run
before the first simulation.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    model = model_from_config(MODEL)
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
# far from the origin) and overflowed the projection.
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
    _assert_exit_contract(kind, changes)


# The horizon is the grid's last node however the steps divide it: with
# horizon 1e9 and 29 steps, 29 dt is 999999999.9999999.
@pytest.mark.parametrize("kind", ["simulate", "chaos", "submartingale"])
def test_large_horizon_is_a_grid_node(kind):
    changes = [(("grid",), {"horizon": 1e9, "n_steps": 29}),
               (("model", "horizon"), 1e9), (("run", "time_pairs"), DELETE)]
    with tempfile.TemporaryDirectory() as out_dir:
        code, err = _main(kind, _config(kind, changes), out_dir)
    assert code == 0, err
