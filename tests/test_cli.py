import csv
import hashlib
import itertools
import json
import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rldp.cli as cli_mod
import rldp.measures as measures_mod
from rldp.cli import canonical_json, load_config, main, pool_size, run_scenario
from rldp.errors import InputError

BASE_MODEL = {"model": "m1",
              "domain": {"kind": "box", "lo": [0.0], "hi": [1.0]},
              "sigma_scale": 0.5, "horizon": 0.5}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSimulate:
    def test_row_count_and_exit(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 1, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 16},
               "run": {"n_particles": 8}}
        cfg_path = _write(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        with open(out / "paths.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 8 * 17
        result = json.loads((out / "result.json").read_text())
        assert result["n_particles"] == 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == result["config_hash"]
        assert "paths.csv" in manifest["outputs"]
        # the manifest is written by the one JSON writer
        assert (out / "manifest.json").read_text() == canonical_json(manifest)

    def test_result_has_no_timestamps(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 1, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 8},
               "run": {"n_particles": 2}}
        cfg_path = _write(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg_path, "--out", str(out)])
        text = (out / "result.json").read_text()
        assert "created_at" not in text
        # timestamps live in the manifest only
        assert "created_at" in (out / "manifest.json").read_text()


class TestLaplace:
    def test_constant_functional_exact(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 2, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 8},
               "run": {"functional": {"functional": "constant", "c": 0.3},
                       "n_particles": 4, "n_replicas": 8}}
        cfg_path = _write(tmp_path, "lap.json", cfg)
        out = tmp_path / "out"
        assert main(["laplace", "--config", cfg_path, "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["value"] == 0.3
        assert result["std_error"] == 0.0

    def test_huge_constant_exits_0(self, tmp_path):
        # N c overflows, yet the estimate is c exactly, with no guard
        cfg = {"schema_version": 1, "seed": 2, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 4},
               "run": {"functional": {"functional": "constant", "c": 1e308},
                       "n_particles": 4, "n_replicas": 4}}
        out = tmp_path / "out"
        assert main(["laplace", "--config", _write(tmp_path, "lap.json", cfg),
                     "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text(),
                            parse_constant=pytest.fail)  # strict JSON
        assert result["value"] == 1e308 and result["std_error"] == 0.0
        assert result["guard"] is False


def test_non_finite_numbers_written_as_strings():
    text = canonical_json({"a": float("nan"), "b": -math.inf, "c": math.inf,
                           "d": np.array([-np.inf, 1.5])})
    assert json.loads(text, parse_constant=pytest.fail) == {
        "a": "nan", "b": "-inf", "c": "inf", "d": ["-inf", 1.5]}


# Output bytes of the kinds no benchmark digest covers, recorded on an
# x86-64 host (numpy 2.4.6): a change that keeps them keeps every number and
# key of these results.  Like perfbench's digests they depend on the CPU,
# whose BLAS kernels may round differently; re-record them only on purpose.
BALL_MODEL = {"model": "m2",
              "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
              "horizon": 0.5}
# id -> (config parts over BASE_MODEL's, digests); the kind is the id's
# first word.
PINNED = {
    "simulate": ({"run": {"n_particles": 4,
                          "policy": {"policy": "constant", "v": [0.5]}}}, {
        "result.json": "5f92db15583306ff8d4a2fe55f1ce223"
                       "259adcf9d477895cd6749db3b3812e35",
        "paths.csv": "e58a597c31367fb3a4decf2a57d1782f"
                     "dd32f65b59cdee056d096bef2b1354a7"}),
    "laplace": ({"run": {"functional": {"functional": "terminal_mean",
                                        "center": 0.5},
                         "n_particles": 4, "n_replicas": 4}}, {
        "result.json": "19983cc45bc8b140b1b22cdb6ed113cd"
                       "c2d07d149b8e93496446564a530ffff9"}),
    "variational": ({"run": {"functional": {"functional": "terminal_mean",
                                            "center": 0.5},
                             "policy": {"policy": "constant", "v": [0.5]},
                             "n_particles": 4, "n_replicas": 4}}, {
        "result.json": "997f0781f4d1c8ea708d419bb443dcd6"
                       "0f89031da49377d09e6472ec21c9d3b4"}),
    # the exact 1D LPs, on the pool when there are two CPUs
    "chaos-box1d": ({"run": {"n_values": [4, 8], "n_replicas": 2,
                             "n_ref": 32}}, {
        "result.json": "d4e6a6725d62b0c77fdb909a975b6e3d"
                       "8c2dacb098afc7d1a60acffbbeee18f5",
        "distances.csv": "5f4175928c72d69827744c46ff662264"
                         "6a23eea60c7f95d04741a1c1da7a2abc"}),
    # the d >= 2 dictionary bound
    "chaos-ball2d": ({"model": BALL_MODEL,
                      "run": {"n_values": [4, 8], "n_replicas": 2,
                              "n_ref": 32}}, {
        "result.json": "eb49e199a03c7703ad273ea86f73dcd8"
                       "6f7268fa3e6f906c1ad302072797bb2e",
        "distances.csv": "cc02198f6dce0761f7f0e05f0206ad36"
                         "bc19093416f6133926a75b21e1d65d6e"}),
    "rate-terminal_point": ({"run": {
        "target": {"kind": "terminal_point", "point": [0.8]},
        "lambdas": [1.0], "n_particles": 4, "n_replicas": 2,
        "opt_budget": 3, "radius": 0.5}}, {
        "result.json": "972fd087498bc0d2ff096616a0dc3393"
                       "9e8847951777d449d8444a717400ba03"}),
    "rate-reference-integrated": ({"run": {
        "target": {"kind": "reference", "n_ref": 16},
        "distance_mode": "integrated", "lambdas": [16.0], "n_particles": 4,
        "n_replicas": 2, "opt_budget": 5, "radius": 0.2}}, {
        "result.json": "de5154e35638213a6703f9c0c5a6e622"
                       "25fd73ebe749b63ac55e8a08a52091f0"}),
    "submartingale-calibrate": ({"run": {"n_particles": 8,
                                         "calibrate": True}}, {
        "result.json": "9cd8a47689175afdfb5a7a952d311828"
                       "b059cfe9f615afde749d3ec46b12d57c"}),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_output_bytes_pinned(tmp_path, case):
    parts, digests = PINNED[case]
    kind = case.split("-")[0]
    cfg_path = _write(tmp_path, "cfg.json", {
        "schema_version": 1, "seed": 3, "model": BASE_MODEL,
        "grid": {"horizon": 0.5, "n_steps": 8}, **parts})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg_path, "--out", str(out)]) == 0
    assert {name: _digest(out / name) for name in digests} == digests


def test_chaos_ball2d_bytes_with_a_cold_memo(tmp_path, monkeypatch):
    # the pinned chaos-ball2d shape, at seeds where a replica lies inside the
    # reference's box, so that the first run reads integrals from the memo;
    # the second clears the memo before every distance
    parts, _ = PINNED["chaos-ball2d"]
    memo, real = measures_mod._own_box_integrals, cli_mod.bl_distance

    def cold_bl_distance(mu, nu):
        memo.cache_clear()
        return real(mu, nu)
    for seed in (7, 10, 11):
        cfg_path = _write(tmp_path, f"cfg{seed}.json", {
            "schema_version": 1, "seed": seed, "model": BASE_MODEL,
            "grid": {"horizon": 0.5, "n_steps": 8}, **parts})
        outs = []
        for cold in (False, True):
            memo.cache_clear()
            out = tmp_path / f"out{seed}-{cold}"
            with monkeypatch.context() as patch:
                if cold:
                    patch.setattr(cli_mod, "bl_distance", cold_bl_distance)
                assert main(["chaos", "--config", cfg_path, "--out", str(out)]) == 0
            assert (memo.cache_info().hits > 0) != cold, seed
            outs.append(out)
        for name in ("result.json", "distances.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestDeterminism:
    def test_same_config_identical_bytes(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 4, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 16},
               "run": {"n_particles": 4}}
        cfg_path = _write(tmp_path, "sim.json", cfg)
        outs = []
        for i, workers in enumerate((1, 4)):
            out = tmp_path / f"out{i}"
            assert main(["simulate", "--config", cfg_path, "--out", str(out),
                         "--workers", str(workers)]) == 0
            outs.append(out)
        assert _digest(outs[0] / "result.json") == _digest(outs[1] / "result.json")
        assert _digest(outs[0] / "paths.csv") == _digest(outs[1] / "paths.csv")

    def test_chaos_1d_identical_bytes_across_workers(self, tmp_path,
                                                     monkeypatch):
        # four CPUs whatever the host, so that 2 and the default (2) use the
        # pool
        monkeypatch.setattr(cli_mod, "_cpus", lambda: 4)
        cfg = {"schema_version": 1, "seed": 5, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 16},
               "run": {"n_values": [8, 32], "n_replicas": 3, "n_ref": 128}}
        cfg_path = _write(tmp_path, "chaos.json", cfg)
        outs = []
        for i, flag in enumerate((["--workers", "1"], ["--workers", "2"], [])):
            out = tmp_path / f"out{i}"
            assert main(["chaos", "--config", cfg_path, "--out", str(out),
                         *flag]) == 0
            outs.append(out)
        for name in ("result.json", "distances.csv"):
            assert len({_digest(out / name) for out in outs}) == 1, name

    def test_huge_workers_accepted(self, tmp_path):
        cfg_path = _write(tmp_path, "sim.json",
                          {"schema_version": 1, "model": BASE_MODEL,
                           "grid": {"horizon": 0.5, "n_steps": 8},
                           "run": {"n_particles": 2}})
        # simulate computes no BL distance, so this starts no thread
        assert main(["simulate", "--config", cfg_path, "--workers", "100000",
                     "--out", str(tmp_path / "o")]) == 0

    def test_run_scenario_rejects_bad_workers_first(self, tmp_path):
        cfg_path = _write(tmp_path, "sim.json",
                          {"schema_version": 1, "model": BASE_MODEL,
                           "grid": {"horizon": 0.5, "n_steps": 8},
                           "run": {"n_particles": 2}})
        cfg = load_config(cfg_path, "simulate")
        with pytest.raises(InputError):
            run_scenario(cfg, str(tmp_path / "o"), workers=0)
        assert not (tmp_path / "o").exists()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 4, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 8},
               "run": {"n_particles": 2}}
        cfg_path = _write(tmp_path, "sim.json", cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg_path, "--out", str(out1)])
        main(["simulate", "--config", cfg_path, "--out", str(out2),
              "--seed", "99"])
        r1 = json.loads((out1 / "result.json").read_text())
        r2 = json.loads((out2 / "result.json").read_text())
        assert r1["seed"] == 4 and r2["seed"] == 99
        assert r1["config_hash"] != r2["config_hash"]


class TestNoThreadOffTheLP:
    """Only the chaos kind's exact 1D LP goes to a thread: a d >= 2 chaos
    run and a rate run, against a Dirac or with the integrated 1D distance,
    start none, whatever ``--workers`` says."""

    @pytest.fixture(autouse=True)
    def no_threads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        class NoSubmit(ThreadPoolExecutor):
            submit = refuse
        monkeypatch.setattr(cli_mod, "_cpus", lambda: 4)
        monkeypatch.setattr(cli_mod, "ThreadPoolExecutor", NoSubmit)
        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_chaos_ball2d(self, tmp_path):
        model = {"model": "m2", "theta": 1.0, "sigma_scale": 0.5,
                 "horizon": 0.5, "domain": {"kind": "ball",
                                            "center": [0.0, 0.0],
                                            "radius": 1.0}}
        cfg_path = _write(tmp_path, "chaos.json", {
            "schema_version": 1, "seed": 2, "model": model,
            "grid": {"horizon": 0.5, "n_steps": 8},
            "run": {"n_values": [8, 16], "n_replicas": 2, "n_ref": 64}})
        assert main(["chaos", "--config", cfg_path, "--workers", "4",
                     "--out", str(tmp_path / "o")]) == 0

    def test_rate_against_dirac(self, tmp_path):
        cfg_path = _write(tmp_path, "rate.json", {
            "schema_version": 1, "seed": 3, "model": BASE_MODEL,
            "grid": {"horizon": 0.5, "n_steps": 8},
            "run": {"target": {"kind": "terminal_point", "point": [0.5]},
                    "lambdas": [1.0], "n_particles": 4, "n_replicas": 2,
                    "opt_budget": 4, "radius": 1.0}})
        assert main(["rate", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 0

    def test_rate_integrated_1d(self, tmp_path):
        cfg_path = _write(tmp_path, "rate.json", {
            "schema_version": 1, "seed": 3, "model": BASE_MODEL,
            "grid": {"horizon": 0.5, "n_steps": 4},
            "run": {"target": {"kind": "reference", "n_ref": 32},
                    "distance_mode": "integrated", "lambdas": [1.0],
                    "n_particles": 4, "n_replicas": 2, "opt_budget": 4,
                    "radius": 1.0}})
        assert main(["rate", "--config", cfg_path, "--workers", "4",
                     "--out", str(tmp_path / "o")]) == 0


CHAOS_1D = {"schema_version": 1, "seed": 5, "model": BASE_MODEL,
            "grid": {"horizon": 0.5, "n_steps": 16},
            "run": {"n_values": [8, 32], "n_replicas": 3, "n_ref": 128}}


class TestChaosPool:
    """The chaos kind's 1D distances on a pool of ``pool_size(workers)``
    threads, once every replica is simulated: the bytes of the one-worker
    run, at most that many threads, and no thread left when
    ``run_scenario`` returns or raises."""

    @pytest.fixture(autouse=True)
    def four_cpus_switching_often(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a race
        yield
        sys.setswitchinterval(interval)

    @staticmethod
    def _run(tmp_path, monkeypatch, workers, cfg=CHAOS_1D):
        """(exit code, output directory, threads started) of a chaos run."""
        started, real_start = [], threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        out = tmp_path / f"out{workers}"
        cfg_path = _write(tmp_path, f"chaos{workers}.json", cfg)
        code = run_scenario(load_config(cfg_path, "chaos"), str(out), workers)
        monkeypatch.setattr(threading.Thread, "start", real_start)
        assert not any(t.is_alive() for t in started)
        return code, out, started

    @pytest.mark.parametrize("workers", [2, 4, 100000])
    def test_bytes_and_threads(self, tmp_path, monkeypatch, workers):
        code, one, started = self._run(tmp_path, monkeypatch, 1)
        assert code == 0 and started == []
        code, out, started = self._run(tmp_path, monkeypatch, workers)
        assert code == 0 and 1 <= len(started) <= min(workers, 4)
        for name in ("result.json", "distances.csv"):
            assert (out / name).read_bytes() == (one / name).read_bytes(), name

    @pytest.mark.parametrize("workers", [2, 3])
    def test_budget_error_before_any_distance(self, tmp_path, monkeypatch,
                                              workers):
        # every replica is simulated before any distance is computed, so the
        # first 512-particle replica exceeds the budget (16 steps x 512 >
        # 4096) before a distance is submitted or a thread starts
        submitted = []

        class Counting(ThreadPoolExecutor):
            def submit(self, *args):
                submitted.append(args)
                return super().submit(*args)

        def refuse(mu, nu):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(cli_mod, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(measures_mod, "_bl_exact_1d", refuse)
        cfg = {**CHAOS_1D, "budget": 4096,
               "run": {"n_values": [8, 32, 512], "n_replicas": 3, "n_ref": 128}}
        code, out, started = self._run(tmp_path, monkeypatch, workers, cfg)
        assert code == 3
        assert json.loads((out / "result.json").read_text())["error"] == \
            "budget_exceeded"
        assert submitted == [] and started == []

    def test_distance_error_with_threads_in_flight(self, tmp_path,
                                                   monkeypatch):
        # the third of six slowed linear programs fails while the other
        # thread solves: the error leaves run_scenario, and the pool's
        # threads have finished when it does
        calls, real_lp = itertools.count(), measures_mod._bl_exact_1d
        started, real_start = [], threading.Thread.start

        def failing_lp(mu, nu):
            if next(calls) == 2:
                raise RuntimeError("third linear program")
            time.sleep(0.05)
            return real_lp(mu, nu)

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(measures_mod, "_bl_exact_1d", failing_lp)
        monkeypatch.setattr(threading.Thread, "start", start)
        cfg = load_config(_write(tmp_path, "chaos.json", CHAOS_1D), "chaos")
        with pytest.raises(RuntimeError, match="third linear program"):
            run_scenario(cfg, str(tmp_path / "o"), 2)
        assert 1 <= len(started) <= 2
        assert not any(t.is_alive() for t in started)
        assert not (tmp_path / "o" / "result.json").exists()

    def test_pool_size(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "_cpus", lambda: 2)
        assert pool_size(100000) == 2
        assert pool_size(None) == pool_size() == 2
        assert pool_size(1) == 1
        monkeypatch.setattr(cli_mod, "_cpus", lambda: 8)
        assert pool_size(3) == 3
        assert pool_size(100000) == 8
        assert pool_size() == 2  # the default stays at two on a larger host
        monkeypatch.setattr(cli_mod, "_cpus", lambda: 1)
        assert pool_size() == pool_size(4) == 1
        for bad in (0, -1, True, 2.0, "2"):
            with pytest.raises(InputError):
                pool_size(bad)


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_schema_version(self, tmp_path):
        cfg_path = _write(tmp_path, "bad.json",
                          {"schema_version": 99, "model": {}, "grid": {}})
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_block(self, tmp_path):
        cfg_path = _write(tmp_path, "bad.json",
                          {"schema_version": 1, "model": BASE_MODEL})
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    def test_invalid_model_name(self, tmp_path):
        cfg_path = _write(tmp_path, "bad.json",
                          {"schema_version": 1,
                           "model": {"model": "nope",
                                     "domain": BASE_MODEL["domain"]},
                           "grid": {"horizon": 0.5, "n_steps": 8}})
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    def test_budget_exceeded(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 1, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 16}, "budget": 10,
               "run": {"n_particles": 100}}
        cfg_path = _write(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("d1, code", [(1, 0), (1000, 3)])
    def test_budget_counts_noise_width(self, tmp_path, d1, code):
        # 8 particles x 4 steps = 32 particle-steps, of d1 noise values each
        cfg = {"schema_version": 1, "seed": 1,
               "model": {**BASE_MODEL, "d1": d1},
               "grid": {"horizon": 0.5, "n_steps": 4}, "budget": 100,
               "run": {"n_particles": 8}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", _write(tmp_path, "sim.json", cfg),
                     "--out", str(out)]) == code
        result = json.loads((out / "result.json").read_text())
        assert ("error" in result) == (code == 3)

    def test_bad_workers(self, tmp_path):
        cfg_path = _write(tmp_path, "sim.json",
                          {"schema_version": 1, "model": BASE_MODEL,
                           "grid": {"horizon": 0.5, "n_steps": 8},
                           "run": {"n_particles": 2}})
        assert main(["simulate", "--config", cfg_path, "--workers", "0",
                     "--out", str(tmp_path / "o")]) == 2


class TestConfigErrorsExit2:
    """Malformed configs exit 2 with one JSON error line on stderr."""

    def _run(self, tmp_path, capsys, kind, cfg):
        code = main([kind, "--config", _write(tmp_path, "bad.json", cfg),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"] == "config"
        return json.loads(err)["detail"]

    def _cfg(self, **changes):
        cfg = {"schema_version": 1, "seed": 1, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 8},
               "run": {"n_particles": 2, "n_replicas": 2}}
        cfg.update(changes)
        return cfg

    @pytest.mark.parametrize("kind", ["laplace", "variational"])
    def test_missing_functional(self, tmp_path, capsys, kind):
        detail = self._run(tmp_path, capsys, kind, self._cfg())
        assert "functional" in detail

    def test_malformed_functional(self, tmp_path, capsys):
        cfg = self._cfg(run={"functional": "constant", "n_replicas": 2})
        self._run(tmp_path, capsys, "laplace", cfg)

    def test_non_numeric_budget(self, tmp_path, capsys):
        detail = self._run(tmp_path, capsys, "simulate", self._cfg(budget="big"))
        assert "budget" in detail

    @pytest.mark.parametrize("token", ["Infinity", "1e999", "-Infinity",
                                       "NaN"])
    def test_non_finite_budget(self, tmp_path, capsys, token):
        path = tmp_path / "bad.json"  # JSON has no infinity; Python reads it
        path.write_text(json.dumps(self._cfg())[:-1] + f', "budget": {token}}}')
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and "budget" in json.loads(err)["detail"]

    @pytest.mark.parametrize("kind, run", [
        ("simulate", {"n_particles": 2}),
        ("chaos", {"n_values": [2, 4], "n_replicas": 2, "n_ref": 8})])
    @pytest.mark.parametrize("domain", [
        {"kind": "box", "lo": [], "hi": []},
        {"kind": "ball", "center": [], "radius": 1.0},
        {"kind": "box", "lo": [-1e308], "hi": [1e308]},
        {"kind": "ball", "center": [1e308], "radius": 1e308},
        {"kind": "box", "lo": [-8e307], "hi": [8e307]},
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1e200}],
        ids=["empty_box", "empty_ball", "wide_box", "wide_ball",
             "overflowing_box", "overflowing_ball"])
    def test_domain_that_cannot_be_sampled(self, tmp_path, capsys, kind, run,
                                           domain):
        model = {**BASE_MODEL, "domain": domain, "d1": 1}
        detail = self._run(tmp_path, capsys, kind,
                           self._cfg(model=model, run=run))
        assert "invalid model block" in detail

    @pytest.mark.parametrize("seed", [-3, "7", 1.5, True])
    def test_bad_seed(self, tmp_path, capsys, seed):
        detail = self._run(tmp_path, capsys, "simulate", self._cfg(seed=seed))
        assert "seed" in detail

    def test_negative_seed_flag(self, tmp_path, capsys):
        code = main(["simulate", "--config",
                     _write(tmp_path, "ok.json", self._cfg()),
                     "--seed", "-3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("horizon", [2.0, 0.25])
    def test_grid_horizon_differs_from_model(self, tmp_path, capsys, horizon):
        cfg = self._cfg(grid={"horizon": horizon, "n_steps": 8})
        detail = self._run(tmp_path, capsys, "simulate", cfg)
        assert "horizon" in detail
        assert not (tmp_path / "o" / "result.json").exists()

    def _submart_cfg(self, **run):
        ball = {"model": "m2", "domain": {"kind": "ball", "center": [0.0, 0.0],
                                          "radius": 1.0},
                "theta": 1.0, "sigma_scale": 0.5, "horizon": 0.5}
        return self._cfg(model=ball, run={"function": "neg_x_sq",
                                          "n_particles": 16, **run})

    @pytest.mark.parametrize("confidence", [1.5, 0.0])
    def test_submartingale_confidence_outside_unit_interval(
            self, tmp_path, capsys, confidence):
        cfg = self._submart_cfg(confidence=confidence)
        detail = self._run(tmp_path, capsys, "submartingale", cfg)
        assert "confidence" in detail
        assert not (tmp_path / "o" / "result.json").exists()

    def test_submartingale_single_path(self, tmp_path, capsys):
        cfg = self._submart_cfg(n_particles=1)
        detail = self._run(tmp_path, capsys, "submartingale", cfg)
        assert "two paths" in detail
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("key", ["calibrate", "skip_boundary_check"])
    def test_submartingale_flag_not_a_json_bool(self, tmp_path, capsys, key):
        cfg = self._submart_cfg(**{key: "false"})
        detail = self._run(tmp_path, capsys, "submartingale", cfg)
        assert key in detail
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("mode", ["bogus", "integrated"])
    def test_rate_distance_mode_against_point_target(self, tmp_path, capsys,
                                                     mode):
        run = {"target": {"kind": "terminal_point", "point": [0.5]},
               "distance_mode": mode, "lambdas": [1.0], "opt_budget": 4,
               "n_particles": 2, "n_replicas": 2}
        detail = self._run(tmp_path, capsys, "rate", self._cfg(run=run))
        assert "distance" in detail
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("kind, key", [
        ("chaos", "n_ref"), ("rate", "radius"),
        ("submartingale", "n_particles"), ("submartingale", "confidence"),
        ("variational", "n_replicas")])
    def test_non_numeric_run_field(self, tmp_path, capsys, kind, key):
        run = {"functional": {"functional": "constant", "c": 0.0},
               "target": {"kind": "terminal_point", "point": [0.5]},
               "n_particles": 2, "n_replicas": 2, key: "many"}
        code = main([kind, "--config",
                     _write(tmp_path, "bad.json", self._cfg(run=run)),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert key in json.loads(err)["detail"]
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("kind, run", [
        ("rate", {"target": "dirac"}),
        ("rate", {"target": {"kind": "terminal_point"}}),
        ("rate", {"family": {"family": "constant", "bound": "wide"}}),
        ("simulate", {"policy": {"policy": "constant"}}),
        ("submartingale", {"time_pairs": [[0.0, "end"]]})])
    def test_malformed_run_block(self, tmp_path, capsys, kind, run):
        self._run(tmp_path, capsys, kind, self._cfg(run=run))

    @pytest.mark.parametrize("changes", [
        {"run": [8]}, {"grid": {"horizon": "half", "n_steps": 8}}])
    def test_malformed_top_level_block(self, tmp_path, capsys, changes):
        self._run(tmp_path, capsys, "simulate", self._cfg(**changes))


    @pytest.mark.parametrize("below", [False, True],
                             ids=["file", "under_file"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys,
                                            monkeypatch, below):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        simulated = []
        monkeypatch.setattr(cli_mod, "simulate_particle_system",
                            lambda *a, **k: simulated.append(a))
        cfg = _write(tmp_path, "c.json", self._cfg(run={"n_particles": 2}))
        code = main(["simulate", "--config", cfg,
                     "--out", str(taken / "sub" if below else taken)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "output directory" in json.loads(err)["detail"]
        assert simulated == [] and taken.read_text() == "kept"
        assert list(tmp_path.rglob("result.json")) == []

    def test_drifted_b_const_of_wrong_length(self, tmp_path, capsys):
        model = {**BASE_MODEL, "model": "drifted", "b_const": [1.0, 2.0]}
        cfg = self._cfg(model=model, run={"n_particles": 2})
        assert "b_const" in self._run(tmp_path, capsys, "simulate", cfg)
        assert not (tmp_path / "o" / "result.json").exists()

    def test_feedback_theta_of_wrong_length(self, tmp_path, capsys):
        # a 1D model with d1 = 1 has 10 features: the detail names that
        # count, not numpy's reshape message
        cfg = self._cfg(run={"n_particles": 2, "policy": {
            "policy": "feedback", "theta": [0.1, 0.2, 0.3]}})
        detail = self._run(tmp_path, capsys, "simulate", cfg)
        assert "10" in detail and "reshape" not in detail


class TestOtherKinds:
    def test_variational_and_rate_and_submartingale(self, tmp_path):
        common = {"schema_version": 1, "seed": 6, "model": BASE_MODEL,
                  "grid": {"horizon": 0.5, "n_steps": 8}}
        var_cfg = dict(common, run={
            "functional": {"functional": "constant", "c": 0.0},
            "policy": {"policy": "constant", "v": [1.0]},
            "n_particles": 4, "n_replicas": 4})
        out = tmp_path / "var"
        assert main(["variational", "--config",
                     _write(tmp_path, "var.json", var_cfg),
                     "--out", str(out)]) == 0
        res = json.loads((out / "result.json").read_text())
        assert res["cost_part"] == pytest.approx(0.25)  # 1/2 v^2 T

        rate_cfg = dict(common, run={
            "target": {"kind": "terminal_point", "point": [0.5]},
            "lambdas": [1.0], "family": {"family": "constant", "bound": 1.0},
            "n_particles": 4, "n_replicas": 4, "opt_budget": 10,
            "radius": 1.0})
        out = tmp_path / "rate"
        assert main(["rate", "--config", _write(tmp_path, "rate.json", rate_cfg),
                     "--out", str(out)]) == 0
        res = json.loads((out / "result.json").read_text())
        assert res["feasible"] is True

        sub_cfg = dict(common, run={"function": "neg_x_sq", "n_particles": 64,
                                    "time_pairs": [[0.0, 0.5]]})
        out = tmp_path / "sub"
        assert main(["submartingale", "--config",
                     _write(tmp_path, "sub.json", sub_cfg),
                     "--out", str(out)]) == 0

    def test_submartingale_calibration_honours_the_run_budget(
            self, tmp_path, capsys, monkeypatch):
        """The calibration's simulations run under the configured budget,
        as the main simulation does, not under the default."""
        monkeypatch.setattr("rldp.ensemble.DEFAULT_STEP_BUDGET", 1000)
        cfg = {"schema_version": 1, "seed": 5, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 16}, "budget": 1e9,
               "run": {"function": "neg_x_sq", "n_particles": 64,
                       "calibrate": True}}
        out = tmp_path / "sub"
        assert main(["submartingale", "--config",
                     _write(tmp_path, "sub.json", cfg),
                     "--out", str(out)]) == 0, capsys.readouterr().err
        assert json.loads((out / "result.json").read_text())["c_bias"] > 0.0

    def test_chaos_kind_small(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 6, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 8},
               "run": {"n_values": [8, 16], "n_replicas": 3, "n_ref": 64}}
        out = tmp_path / "chaos"
        assert main(["chaos", "--config", _write(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
        res = json.loads((out / "result.json").read_text())
        assert set(res["median_distance_by_n"]) == {"8", "16"}
        with open(out / "distances.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 3

    @pytest.mark.parametrize("point", [1e200, -1e308])
    def test_rate_far_dirac_target(self, tmp_path, point):
        cfg = {"schema_version": 1, "seed": 3, "model": BASE_MODEL,
               "grid": {"horizon": 0.5, "n_steps": 4},
               "run": {"target": {"kind": "terminal_point", "point": [point]},
                       "lambdas": [1.0, 4.0], "n_particles": 4,
                       "n_replicas": 2, "opt_budget": 4, "radius": 1.0}}
        out = tmp_path / "rate"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rate", "--config", _write(tmp_path, "r.json", cfg),
                         "--out", str(out)]) == 0
        res = json.loads((out / "result.json").read_text())
        assert res["achieved_distances"] == [2.0, 2.0]


# A tiny run of each policy variant the run tables build: (kind, policy
# family the result names or None, run block), on BASE_MODEL (d = d1 = 1)
# over 4 steps; a feedback policy has FeedbackPolicy.n_features(1) = 10
# weights.
POLICY_RUNS = {
    "simulate_piecewise_shared": ("simulate", "piecewise_constant", {
        "n_particles": 2, "policy": {"policy": "piecewise_constant",
                                     "values": [[0.5], [-0.5], [0.25], [0.0]]}}),
    "simulate_piecewise_per_particle": ("simulate", "piecewise_constant", {
        "n_particles": 2, "policy": {"policy": "piecewise_constant",
                                     "values": [[[0.5], [-1.0]]] * 4}}),
    "simulate_feedback": ("simulate", "feedback", {
        "n_particles": 2, "policy": {"policy": "feedback",
                                     "theta": [0.1] * 10, "bound": 2.0}}),
    "variational_piecewise_per_particle": ("variational", "piecewise_constant", {
        "functional": {"functional": "terminal_mean"}, "n_particles": 2,
        "n_replicas": 2, "policy": {"policy": "piecewise_constant",
                                    "values": [[[0.5], [-1.0]]] * 4}}),
    "variational_feedback": ("variational", "feedback", {
        "functional": {"functional": "terminal_mean"}, "n_particles": 2,
        "n_replicas": 2, "policy": {"policy": "feedback",
                                    "theta": [-0.2] * 10}}),
    "rate_feedback_family": ("rate", None, {
        "target": {"kind": "terminal_point", "point": [0.5]},
        "family": {"family": "feedback", "bound": 1.0}, "lambdas": [1.0],
        "n_particles": 2, "n_replicas": 2, "opt_budget": 12, "radius": 1.0}),
}


@pytest.mark.parametrize("name", sorted(POLICY_RUNS))
def test_policy_variants_run_end_to_end(tmp_path, name):
    kind, family, run = POLICY_RUNS[name]
    cfg_path = _write(tmp_path, "cfg.json", {
        "schema_version": 1, "seed": 7, "model": BASE_MODEL,
        "grid": {"horizon": 0.5, "n_steps": 4}, "run": run})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([kind, "--config", cfg_path, "--out", str(out)]) == 0
    assert _digest(outs[0] / "result.json") == _digest(outs[1] / "result.json")
    result = json.loads((outs[0] / "result.json").read_text())
    assert result.get("policy") == family
