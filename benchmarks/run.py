"""genomask benchmark: one workload per run, closed loop, one caller.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; genomask is imported from ./src.  The run
times a cold import and the workload's set-up several times each, before
and after the timed loop (setup_s is the sum of their medians).  The loop
calls the workload's operations one after another until S seconds have
passed.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it traces the same loop through `tracer.Tracer`,
replays the same operations untraced, and reports the per-layer metrics
and the tracing overhead.  Provenance, output digests and check results
are printed first; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 1 when
an output check failed and 2 when the run could not start.

BENCHMARK.json names the metrics; README.md in this directory describes
the workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Cold imports and set-ups before the timed loop, and again after it;
#: setup_s adds the medians of the two kinds of sample.
SETUP_REPEATS = 3


#: Times a cold import of numpy and genomask in a fresh interpreter.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import numpy, genomask; "
                "print(time.perf_counter() - start)")


def import_genomask() -> None:
    """Import genomask from ./src, or exit with code 2."""
    if not (SRC / "genomask" / "__init__.py").is_file():
        print(f"error: {SRC / 'genomask'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import genomask
    if Path(genomask.__file__).resolve().parent != SRC / "genomask":
        print(f"error: imported genomask from {genomask.__file__}",
              file=sys.stderr)
        sys.exit(2)


def sample_setup(workload, imports: list, setups: list) -> None:
    """Append SETUP_REPEATS cold-import times, each in a fresh interpreter,
    and as many set-up times of the workload."""
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        imports.append(float(probe.stdout))
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)


def provenance() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (AttributeError, TypeError):
        pass
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = {p.stem: len(p.read_text().splitlines()) for p in
             sorted((SRC / "genomask").glob("*.py"))}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": {"total": sum(lines.values()), **lines},
    }


def run_ops(workload, seconds: float | None = None, count: int | None = None):
    """Call ops 1, 2, ... (op 0 is the warm-up) until `seconds` have passed
    at the end of a pass of `workload.ops_per_pass` ops, or until `count`
    ops ran; returns per-op seconds, per-op work and the summed attempted
    and failed counts."""
    op_seconds, op_work, attempted, failed = [], [], 0, 0
    begin = time.perf_counter()
    i = 1
    while True:
        # the walkers leave reference cycles that only a full collection
        # frees; collecting between ops keeps peak_rss_mib a per-op figure
        # instead of one that grows with the number of ops a run completes
        gc.collect()
        start = time.perf_counter()
        result = workload.op(i)
        end = time.perf_counter()
        op_seconds.append(end - start)
        op_work.append(result.work)
        attempted += result.attempted
        failed += result.failed
        i += 1
        if count is not None and len(op_seconds) >= count:
            break
        if count is None and end - begin >= seconds \
                and len(op_seconds) % workload.ops_per_pass == 0:
            break
    return op_seconds, op_work, attempted, failed


def probe_digest(name: str) -> str | None:
    """Digest of the workload's first output at seed 0 and tiny size, a
    seed-independent witness that seeded outputs stayed bit-identical."""
    from workloads import TINY, WORKLOADS

    probe = WORKLOADS[name](0, **TINY[name])
    probe.setup()
    probe.op(0)
    return probe.digest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_genomask()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))
    workload = WORKLOADS[args.workload](args.seed)
    imports, setups = [], []
    sample_setup(workload, imports, setups)
    # op 0 warms caches and lazy initialisation up; it is checked, not timed
    warm = workload.op(0)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            for _ in range(SETUP_REPEATS):
                workload.setup()
            op_seconds, op_work, attempted, failed = run_ops(workload, args.seconds)
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        # the same set-ups and ops again, untraced, give the overhead
        start = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            workload.setup()
        run_ops(workload, count=len(op_seconds))
        plain_wall = time.perf_counter() - start
        metrics = tracer.layer_metrics()
        metrics["tracing.wall_s"] = (traced_wall, "s")
        metrics["tracing.overhead_s"] = (traced_wall - plain_wall, "s")
        print(json.dumps({"absent": tracer.absent}))
    else:
        op_seconds, op_work, attempted, failed = run_ops(workload, args.seconds)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # as many samples again after the loop, so that a slow spell of a
        # shared machine at the start of the run does not decide setup_s
        sample_setup(workload, imports, setups)
        setup_s = statistics.median(imports) + statistics.median(setups)
        k = workload.ops_per_pass
        pass_seconds = [sum(op_seconds[j:j + k]) for j in range(0, len(op_seconds), k)]
        pass_work = [sum(op_work[j:j + k]) for j in range(0, len(op_work), k)]
        metrics = {
            "setup_s": (setup_s, "s"),
            # medians over passes: a pass slowed by a neighbour on a shared
            # machine must not move the run's figure
            "throughput_per_s": (statistics.median(
                [w / t for w, t in zip(pass_work, pass_seconds)]), "1/s"),
            "time_to_result_s": (workload.time_to_result(pass_seconds), "s"),
            "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        }
    attempted += warm.attempted
    failed += warm.failed
    violations = workload.violations

    probe = probe_digest(args.workload)
    expected = json.loads(
        (HERE / "reference_digests.json").read_text()).get(args.workload)
    print(json.dumps({
        "work_unit": workload.work_unit,
        "ops": len(op_seconds),
        "op_seconds_median": statistics.median(op_seconds),
        "digest": workload.digest(),
        "probe_digest": probe,
        "probe_digest_changed": None if expected is None else probe != expected,
        "markov_check_false": getattr(workload, "markov_false", None),
        "violations": violations,
    }))
    correct = not violations
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
