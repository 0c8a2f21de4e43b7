"""Smoke self-test of the benchmark: one checked pass of each workload, one
traced pass, and a run without the qwire sources, which must fail.

    python3 perfbench/smoke.py

Runs the command named in BENCHMARK.json with the arguments a comparison
run passes, and exits non-zero at the first broken expectation.  Takes
about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> None:
    done = run(workload, trace)
    if done.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    problems = [
        (set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}"),
        (result["correct"] is True, "outputs not correct"),
        (result["failed"] == 0, f"{result['failed']} problems failed"),
        (result["attempted"] >= 2, f"attempted {result['attempted']}"),
        (list(result["metrics"]) == [m["name"] for m in expected], "metric names"),
    ]
    for metric in expected:
        got = result["metrics"].get(metric["name"], {})
        problems.append((got.get("unit") == metric["unit"], f"{metric['name']} unit {got}"))
        value = got.get("value")
        problems.append((isinstance(value, (int, float)) and math.isfinite(value)
                         and (trace or value > 0), f"{metric['name']} value {value!r}"))
    for ok, message in problems:
        if not ok:
            sys.exit(f"{workload} trace={trace}: {message}")
    print(f"ok  {workload} trace={trace}: attempted {result['attempted']}")


def check_without_sources() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command must fail without printing a result."""
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run("spectral", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        sys.exit(f"run without sources: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok  without sources: exit {done.returncode}")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, trace=0)
    check_result("spectral", trace=1)
    check_without_sources()


if __name__ == "__main__":
    main()
