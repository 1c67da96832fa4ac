"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Runs every workload at the sizes in `workloads.TINY`, untraced and traced,
and checks that the result line carries exactly the metrics BENCHMARK.json
names for that mode, each with its unit, and that the run passes its
output checks; a traced run must leave every patched object restored.
Then it corrupts outputs on purpose (a non-private joint
table, a released sensitive position, an LP optimum above the bound, a
Monte-Carlo rate far above the bound, an LP that is not optimal) and checks
that each one fails the run or counts as a failed operation.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from unittest import mock

import run

run.import_genomask()

import genomask  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from genomask import experiments, hmm  # noqa: E402
from genomask.mechanism import EnumeratedMechanism  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: int = 0):
    """run.main on tiny inputs; returns (exit code, result line)."""
    tiny = functools.partial(workloads.WORKLOADS[name], **workloads.TINY[name])
    out = io.StringIO()
    with mock.patch.dict(workloads.WORKLOADS, {name: tiny}), \
            contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.2",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


ORIGINAL_OUTPUT_DISTRIBUTION = EnumeratedMechanism.output_distribution
ORIGINAL_MASK = hmm.mask_hmm_batch
ORIGINAL_LP = genomask.lp_optimal_rate
ORIGINAL_EXPERIMENT = experiments.run_experiment


def corrupt_joint_table(self, *args, **kwargs):
    dist = ORIGINAL_OUTPUT_DISTRIBUTION(self, *args, **kwargs)
    if dist.matrix.shape[0] > 1 and dist.matrix.shape[1] > 1:
        dist.matrix[0] = dist.matrix[0, ::-1].copy()  # output now depends on u
    return dist


def release_sensitive(model, xs, K, rng, table=None):
    ys = ORIGINAL_MASK(model, xs, K, rng, table)
    ys[:, K[0]] = xs[:, K[0]]
    return ys


def lp_above_bound(*args, **kwargs):
    sol = ORIGINAL_LP(*args, **kwargs)
    sol.optimal_rate += 0.1
    return sol


def lp_not_optimal(*args, **kwargs):
    return genomask.LpSolution(float("nan"), "numerical")


def rate_above_bound(config):
    rows = ORIGINAL_EXPERIMENT(config)
    for row in rows:
        row["rate"] = min(1.0, row["bound"] + 0.2)
        row["stderr"] = 1e-4
    return rows


CORRUPTIONS = [
    ("exact_audit", mock.patch.object(EnumeratedMechanism, "output_distribution",
                                      corrupt_joint_table), "correct"),
    ("mask_wide", mock.patch.object(hmm, "mask_hmm_batch", release_sensitive),
     "correct"),
    ("fig5_lp", mock.patch.object(genomask, "lp_optimal_rate", lp_above_bound),
     "correct"),
    ("fig4_mc", mock.patch.object(experiments, "run_experiment",
                                  rate_above_bound), "correct"),
    ("fig5_lp", mock.patch.object(genomask, "lp_optimal_rate", lp_not_optimal),
     "failed"),
]


def traced_objects() -> dict:
    """Every object the tracer replaces, under each name it patches."""
    found = {"bounds.linear_program": genomask.bounds.linear_program}
    for name, module_name, path, _ in tracer.TARGETS:
        obj = sys.modules[module_name]
        for part in path.split("."):
            obj = getattr(obj, part)
        found[name] = obj
    return found


def main() -> int:
    problems = []
    expected = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    originals = traced_objects()
    for name in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            code, result = tiny_run(name, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: run failed {result}")
            if units != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics differ: "
                                f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            if trace:
                # bounds calls linear_program through its own binding
                lp_calls = result["metrics"]["simplex.linear_program.calls"]
                if (lp_calls["value"] > 0) != (name == "fig5_lp"):
                    problems.append(f"{name}: LP calls {lp_calls['value']}")
    if traced_objects() != originals:
        problems.append("the tracer left patched objects behind")
    for name, patch, outcome in CORRUPTIONS:
        with patch:
            code, result = tiny_run(name)
        if outcome == "correct" and (code == 0 or result["correct"]):
            problems.append(f"{name}: corrupted output passed the checks")
        if outcome == "failed" and result["failed"] == 0:
            problems.append(f"{name}: non-optimal LP not counted as failed")
    for line in problems:
        print("FAIL", line)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
