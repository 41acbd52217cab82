"""The rldp benchmark: run one workload as a user runs the CLI, and check it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the program is imported from its ``src``.
Each sample is one fresh process (``child.py``) that imports rldp, loads a
config and runs ``run_scenario``, one process at a time.  At least two
samples are taken, and more until the next one would end after
``--seconds``.

With ``--trace 0`` the samples cycle through ``CONFIGS_PER_RUN`` configs of
the workload, at ``--seed`` and at seeds derived from it, because how long a
run takes depends on its seed (the HiGHS solves of ``chaos_1d`` do); a
median over several seeds moves less from one ``--seed`` to the next.  The
``--seed`` config runs twice first, so that every run checks determinism.
The result holds the end-to-end metrics: ``setup_s`` (process start until
ready to run), ``run_s`` (wall time of ``run_scenario``, output writing
included) and ``peak_rss_mb``, each the median over the samples.

On a shared host the speed of the machine changes by a third or more from
one minute, even one second, to the next, so ``setup_s`` and ``run_s`` are
wall times rescaled to a reference host speed: right after
``run_scenario`` returns, the sample's process times the fixed kernel of
``calibrate.py``, and the sample's times are multiplied by ``REFERENCE_S``
over that kernel time.  The kernel must run in the sample's own process: the
two vCPUs of a small VM can run at different speeds, and a kernel timed in
this process tracked the samples worse than no rescaling at all.  It runs
after ``run_scenario`` so that it changes neither the run nor its peak
memory.  The unscaled wall medians are printed too.

With ``--trace 1`` every sample runs the ``--seed`` config, untraced and
traced samples alternate, and the result holds the per-layer metrics of
``spans.py``; the untraced samples give ``trace.overhead_frac``.

Every sample's output is checked: the exit code is 0, ``result.json`` is
byte-identical across the samples of one config, and at a workload's
default seed its digest matches the one recorded in ``workloads.py`` and
the kind-specific property holds.  At other seeds the property is printed as
a value.  A sample that fails a check counts in ``failed``.  The last line
of standard output is the JSON result; the lines before it give the
environment, every metric by name and unit, and each failure by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import coverage_errors, count_metrics, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
CONFIGS_PER_RUN = 8
SEED_STRIDE = 1000
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    """Facts about the host that the timings depend on."""
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), "unknown")
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        size = _read(index / "size").strip()
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
    }


@dataclass
class Sample:
    """One child process: its report, its output digest, its failures."""

    config: int
    traced: bool
    report: dict | None
    wall_s: float
    digest: str | None
    result: dict | None
    failures: list


def run_sample(root: Path, work: Path, index: int, kind: str, config: int,
               traced: bool) -> Sample:
    out = work / f"out{index}"
    report_path = work / f"report{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"),
           "--config", str(work / f"config{config}.json"), "--kind", kind,
           "--out", str(out), "--report", str(report_path)]
    if traced:
        cmd.append("--trace")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Sample(config, traced, None, time.monotonic() - start, None,
                      None, [f"timeout after {CHILD_TIMEOUT_S} s"])
    wall_s = time.monotonic() - start
    if proc.returncode != 0 or not report_path.is_file():
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        return Sample(config, traced, None, wall_s, None, None,
                      [f"child exit code {proc.returncode}: {tail[0]}"])
    report = json.loads(report_path.read_text())
    report["setup_s"] = report["ready_monotonic"] - start
    failures = []
    if report["exit_code"] != 0:
        failures.append(f"run_scenario exit code {report['exit_code']}")
    digest = result = None
    result_path = out / "result.json"
    if result_path.is_file():
        data = result_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        result = json.loads(data)
    else:
        failures.append("no result.json")
    shutil.rmtree(out, ignore_errors=True)
    report_path.unlink()
    return Sample(config, traced, report, wall_s, digest, result, failures)


def check_outputs(samples, workload, known: bool):
    """Add to each sample's failures what the run-level checks find.

    ``known``: config 0 uses the workload's default seed and full size,
    where the digest and the kind-specific property are known.
    """
    reference = {}
    for s in samples:
        if s.digest is None:
            continue
        if reference.setdefault(s.config, s.digest) != s.digest:
            s.failures.append(f"result.json differs between runs of one "
                              f"commit on {workload.name}")
        if known and s.config == 0:
            if s.digest != workload.digest:
                s.failures.append(
                    f"result.json digest mismatch on {workload.name}: "
                    f"{s.digest} != recorded {workload.digest}")
            if not workload.prop_ok(s.result):
                s.failures.append(f"{workload.prop_name} does not hold on "
                                  f"{workload.name} at its default seed")


def _tail(values):
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    k = n - 10
    if k < 1:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small configs, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rldp" / "__init__.py").is_file():
        print(f"no rldp sources under {root / 'src'}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    n_configs = 1 if args.trace else CONFIGS_PER_RUN
    for j in range(n_configs):
        cfg = workload.config(seed + j * SEED_STRIDE, tiny=args.tiny)
        (work / f"config{j}.json").write_text(json.dumps(cfg))

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    samples = []
    start = time.monotonic()
    while True:
        i = len(samples)
        # Config 0 runs twice first, so every run checks determinism.
        sample = run_sample(root, work, i, workload.kind,
                            max(0, i - 1) % n_configs,
                            bool(args.trace) and i % 2 == 1)
        samples.append(sample)
        if sample.report is None:
            break
        elapsed = time.monotonic() - start
        next_s = median([s.wall_s for s in samples])
        if len(samples) >= 2 and elapsed + next_s > args.seconds:
            break
    env["loadavg_after"] = os.getloadavg()
    shutil.rmtree(work, ignore_errors=True)
    if not any(work.parent.iterdir()):
        work.parent.rmdir()

    check_outputs(samples, workload,
                  seed == workload.default_seed and not args.tiny)
    ran = [s for s in samples if s.report is not None]
    if ran:
        env["versions"] = ran[0].report["versions"]
    print("env " + json.dumps(env, sort_keys=True))
    untraced = [s for s in ran if not s.traced]
    traced = [s for s in ran if s.traced]
    print(f"workload {workload.name} kind {workload.kind} seed {seed} "
          f"samples {len(samples)} (untraced {len(untraced)}, "
          f"traced {len(traced)})")

    problems = sorted({f for s in samples for f in s.failures})
    failed = sum(1 for s in samples if s.failures)
    metrics = {}
    if args.trace:
        if traced and untraced:
            metrics = layer_metrics([s.report for s in traced],
                                    [s.report["run_s"] * s.report["ref_scale"]
                                     for s in untraced])
            counts = [count_metrics(s.report["trace"]) for s in traced]
            if any(c != counts[0] for c in counts[1:]):
                problems.append("per-layer counts differ between traced runs")
            problems += coverage_errors(traced[0].report["trace"],
                                        workload.never_reached)
    elif untraced:
        calib = [s.report["calib_s"] for s in untraced]
        wall_run = [s.report["run_s"] for s in untraced]
        wall_setup = [s.report["setup_s"] for s in untraced]
        scale = [s.report["ref_scale"] for s in untraced]
        run_s = [t * k for t, k in zip(wall_run, scale)]
        setup_s = [t * k for t, k in zip(wall_setup, scale)]
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "run_s": (median(run_s), "s"),
            "peak_rss_mb": (median([s.report["peak_rss_mib"]
                                     for s in untraced]), "MiB"),
        }
        print(f"wall medians: run {median(wall_run)!r} s, setup "
              f"{median(wall_setup)!r} s, calibration kernel "
              f"{median(calib)!r} s")
        tail = _tail(run_s)
        print(f"run_s.samples {len(run_s)}: "
              + " ".join(f"{v:.4f}" for v in run_s) + "; " + (
                  f"p{tail[0]:.0f} {tail[1]!r} s" if tail else
                  "no percentile has ten samples above it"))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value!r} {unit}")
    print(f"failed_ratio {failed / len(samples)!r} ratio "
          f"({failed} of {len(samples)})")
    seen = set()
    for s in ran:
        if s.result is not None and s.config not in seen:
            seen.add(s.config)
            print(f"property {workload.prop_name} at seed "
                  f"{seed + s.config * SEED_STRIDE} "
                  f"{json.dumps(s.result.get(workload.prop_name))}")
    for p in problems:
        print(f"FAILED {p}")

    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
