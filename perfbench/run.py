"""Run one qwire benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 30 --trace 0

The workload is a fixed list of problems made from --seed (see
problems.py), run back to back by one closed-loop client: this process,
with one BLAS thread.  One untimed warm-up pass is followed by timed passes
until --seconds have gone by; every pass runs every problem, and every
output is checked outside the timed region.  Slices of a numpy-only
reference kernel run between the problems of every pass, as many as there
are problems, spread in proportion to the problems' warm-up times.  Each
pass time is divided by the kernel time taken over the same stretch
(pass_rel), which cancels drift in the host's speed; pass_s and largest_s
are wall times rescaled by the same ratio to the speed of a reference host
(see README.md).  Raw wall times go to standard error.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from spans recorded around the calls into each qwire module (layertrace.py).
The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the exit code is 0 when every output was correct.  Progress goes to
standard error.  qwire is imported from src/ beside this directory; without
it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("spectral", "optimize", "sector")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed passes run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 prints per-layer metrics instead of end-to-end ones")
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads (default 1; 2 only for reference figures)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_times(args: argparse.Namespace) -> list[float]:
    """Interpreter start to inputs ready, in fresh processes: each probe
    imports qwire, builds the workload and prints the clock."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--blas-threads", str(args.blas_threads), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def spread_slices(times: list[float], n_slices: int) -> list[int]:
    """How many kernel slices to run before each problem, so that n_slices
    slices sample the host evenly over the time the problems take."""
    counts = [0] * len(times)
    total, i, end = sum(times), 0, times[0]
    for k in range(n_slices):
        at = (k + 0.5) / n_slices * total
        while at >= end and i < len(times) - 1:
            i += 1
            end += times[i]
        counts[i] += 1
    return counts


def run_pass(workload, kernel, slices: list[int], tracer=None):
    """Run every problem once, after slices[i] reference-kernel slices for
    problem i.  Returns (per-problem seconds, kernel seconds, outputs)."""
    times, outputs, kernel_s = [], [], 0.0
    if tracer is not None:
        tracer.reset()
    for problem, n_slices in zip(workload.problems, slices):
        start = time.perf_counter()
        for _ in range(n_slices):
            kernel()
        mid = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            output = problem.run()
        except Exception as exc:  # a library call that raises has failed; keep going
            output = exc
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        kernel_s += mid - start
        times.append(end - mid)
        outputs.append(output)
    return times, kernel_s, outputs


def check_pass(problems_mod, workload, outputs) -> tuple[int, list[str]]:
    """(number failed, messages for wrong outputs) of one pass."""
    failed, wrong = 0, []
    for problem, output in zip(workload.problems, outputs):
        if isinstance(output, Exception) or problems_mod.failed(output):
            failed += 1
            print(f"failed: {problem.name}: {output!r}", file=sys.stderr)
            continue
        try:
            message = problem.check(output)
        except Exception as exc:  # unreadable output is a wrong output
            message = f"{problem.name}: check raised {exc!r}"
        if message:
            wrong.append(message)
    return failed, wrong


def fingerprint(blas_threads: int) -> str:
    """Hash of everything the per-layer counts depend on."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qwire").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    import numpy

    digest.update(f"{numpy.__version__} {platform.machine()} {blas_threads}".encode())
    return digest.hexdigest()


def compare_with_earlier_run(args, counts: dict) -> str | None:
    """Counts must repeat from run to run: compare with the record an
    earlier traced run of the same code, workload and seed left, or leave one."""
    record = OUT / f"trace-counts-{args.workload}-{args.seed}.json"
    key = fingerprint(args.blas_threads)
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        if earlier.get("fingerprint") == key and earlier["counts"] != counts:
            diff = {k: (earlier["counts"].get(k), v) for k, v in counts.items()
                    if earlier["counts"].get(k) != v}
            return f"per-layer counts differ from an earlier run: {diff}"
    record.write_text(json.dumps({"fingerprint": key, "counts": counts}), encoding="utf-8")
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_ENV:
        os.environ[name] = str(args.blas_threads)
    if not (SRC / "qwire" / "__init__.py").is_file():
        print(f"error: qwire sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = [] if args.setup_probe or args.trace else setup_times(args)

    import problems
    import qwire

    if Path(qwire.__file__).resolve().parent != SRC / "qwire":
        print(f"error: imported qwire from {qwire.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        problems.build(args.workload, args.seed, OUT / "unused")
        print(repr(monotonic()))
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, problems, workdir, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, problems_mod, workdir: Path, setup: list[float]) -> int:
    workload = problems_mod.build(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()

    kernel = workload.make_kernel()
    attempted, failed, wrong = 0, 0, []
    wall_s, pass_s, pass_rel, largest_s, snapshots = [], [], [], [], []
    largest = [i for i, p in enumerate(workload.problems) if p.key == workload.largest]

    def one_pass(slices: list[int], timed: bool) -> list[float]:
        nonlocal attempted, failed
        times, kernel_s, outputs = run_pass(workload, kernel, slices, tracer)
        n_failed, messages = check_pass(problems_mod, workload, outputs)
        attempted += len(outputs)
        failed += n_failed
        wrong.extend(messages)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        if timed:
            speed = workload.kernel_ref_s / kernel_s
            wall_s.append(sum(times))
            pass_rel.append(sum(times) / kernel_s)
            pass_s.append(sum(times) * speed)
            largest_s.append(statistics.fmean(times[i] for i in largest) * speed)
        return times

    # warm-up: lazy set-up in numpy and BLAS, and the problem times that
    # place one kernel slice per problem evenly over the timed passes
    n = len(workload.problems)
    slices = spread_slices(one_pass([1] * n, timed=False), n)
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < args.seconds:
        one_pass(slices, timed=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(pass_s)} timed passes, "
          f"wall median {statistics.median(wall_s):.4f} s: {' '.join(f'{s:.4f}' for s in wall_s)}, "
          f"pass_rel {' '.join(f'{r:.3f}' for r in pass_rel)}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(pass_s), "s"),
            "pass_rel": (statistics.median(pass_rel), "ref"),
            "largest_s": (statistics.median(largest_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer.uninstall()
        counted = [m for m, (_, kind) in layertrace.METRICS.items() if kind == "count"]
        counts = {m: snapshots[0][m] for m in counted}
        for i, snap in enumerate(snapshots[1:], start=1):
            diff = {m: (counts[m], snap[m]) for m in counted if snap[m] != counts[m]}
            if diff:
                wrong.append(f"per-layer counts of pass {i} differ from the warm-up pass: {diff}")
        if not wrong:
            message = compare_with_earlier_run(args, counts)
            if message:
                wrong.append(message)
        timed = snapshots[1:]
        metrics = {
            m: (counts[m] if kind == "count" else statistics.median(s[m] for s in timed), unit)
            for m, (unit, kind) in layertrace.METRICS.items()
        }
    for message in wrong:
        print(f"error: {message}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
