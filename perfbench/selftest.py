"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it runs the benchmark
once untraced and twice traced on the tiny configs and checks that:
every metric ``BENCHMARK.json`` declares is printed, by name with its unit,
both in the result and on its own line; every count is an integer that
repeats exactly across the two traced runs; the runs are correct with
nothing failed; and ``measures.bl.calls`` is 0 on ``submart_ball3d``.  It
also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only ``BENCHMARK.json`` and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "bytes")


def bench(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--tiny", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def check_run(spec, workload, trace, errors):
    proc = bench(Path.cwd(), workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit code {proc.returncode}: {proc.stderr}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{where}: not correct: "
                      + "; ".join(l for l in lines if l.startswith("FAILED")))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    printed = {l.split()[0]: l.split() for l in lines[:-1] if l.split()}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got['unit']}")
        line = printed.get(m["name"])
        if line is None or line[2] != m["unit"]:
            errors.append(f"{where}: {m['name']} not printed with its unit")
        if m["unit"] in EXACT_UNITS and not isinstance(got["value"], int):
            errors.append(f"{where}: {m['name']} is not an integer")
    return metrics


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    errors = []
    for name in WORKLOADS:
        check_run(spec, name, 0, errors)
        first, second = (check_run(spec, name, 1, errors) for _ in range(2))
        if first is None or second is None:
            continue
        for m in spec["per_layer"]:
            if (m["unit"] in EXACT_UNITS
                    and first[m["name"]] != second[m["name"]]):
                errors.append(f"{name}: {m['name']} differs between traced "
                              f"runs: {first[m['name']]} != {second[m['name']]}")
        if name == "submart_ball3d" and first["measures.bl.calls"]["value"]:
            errors.append("measures.bl.calls is not 0 on submart_ball3d")

    bare = Path(".bench_work") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
         "chaos_1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if not any(bare.parent.iterdir()):
        bare.parent.rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("benchmark ran without the program's sources")

    for e in errors:
        print(f"FAILED {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
