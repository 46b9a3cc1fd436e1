"""The benchmark's quick self-check (``python3 perfbench/run.py --self-check``).

Runs every workload at a tiny statistical scale, untraced and traced,
and asserts that:

- every run is correct and emits every named metric with a unit;
- the traced layer times plus ``flow.unattributed_s`` add up to the
  flow wall time, and only ``m3d-cache`` touches the stage cache;
- the QoR oracle accepts a run's own PPA as reference and counts a
  deliberately perturbed reference as a failure of every flow run.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from typing import List

import run as bench

TINY_SCALE = 0.004


def tiny(workload: bench.Workload) -> bench.Workload:
    return replace(workload, phases=tuple(
        replace(p, scale=TINY_SCALE, baseline=None) for p in workload.phases))


def check_metrics(name: str, record: dict, expected, problems: List[str]) -> None:
    metrics = record["metrics"]
    for metric, unit in expected:
        got = metrics.get(metric)
        if got is None or got.get("unit") != unit or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"{name}: metric {metric} missing or without unit")
    if set(metrics) != {m for m, _ in expected}:
        problems.append(f"{name}: unexpected metrics "
                        f"{sorted(set(metrics) - {m for m, _ in expected})}")
    if not record["correct"] or record["failed"]:
        problems.append(f"{name}: {record['failed']} of {record['attempted']} "
                        "flow runs failed")


def check_declared(problems: List[str]) -> None:
    """``BENCHMARK.json`` must declare exactly the workloads and metrics
    ``run.py`` emits."""
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        declared = json.load(handle)
    pairs = [("workloads", [(w, None) for w in bench.WORKLOADS]),
             ("end_to_end", list(bench.END_TO_END)),
             ("per_layer", list(bench.PER_LAYER))]
    for key, emitted in pairs:
        names = [(m["name"], m.get("unit")) for m in declared[key]]
        if names != emitted:
            problems.append(f"BENCHMARK.json {key} differ from run.py's")


def self_check() -> int:
    problems: List[str] = []
    check_declared(problems)
    seed = bench.REFERENCE_SEED
    for workload in bench.WORKLOADS.values():
        small = tiny(workload)
        state = bench.run_workload(small, seed, 0.0, False, seed, references={})
        check_metrics(f"{workload.name} untraced",
                      bench.result_record(state, False), bench.END_TO_END,
                      problems)
        seen = dict(state.oracle.seen)

        state = bench.run_workload(small, seed, 0.0, True, seed, references={})
        record = bench.result_record(state, True)
        check_metrics(f"{workload.name} traced", record, bench.PER_LAYER,
                      problems)
        values = {k: v["value"] for k, v in record["metrics"].items()}
        if values:
            rest = values["flow.unattributed_s"]
            parts = sum(values[m] for m in bench.WALL_GROUPS)
            if rest < 0.0 or abs(parts + rest - values["flow.wall_s"]) > 1e-6:
                problems.append(f"{workload.name}: layer times do not add up")
            uses_cache = any(p.cache for p in workload.phases)
            if (values["cache.lookup.calls"] > 0) != uses_cache:
                problems.append(f"{workload.name}: unexpected cache activity")

        if workload.name != "m3d-place":
            continue
        state = bench.run_workload(
            small, seed, 0.0, False, seed,
            references={q: [t] for q, t in seen.items()})
        if state.failed:
            problems.append("the oracle rejects a run's own PPA")
        perturbed = {}
        for qor, text in seen.items():
            ppa = json.loads(text)
            ppa["fclk_mhz"] *= 1.0 + 1e-12
            perturbed[qor] = [bench.canonical_ppa(ppa)]
        state = bench.run_workload(small, seed, 0.0, False, seed,
                                   references=perturbed)
        if not state.attempted or state.failed != state.attempted:
            problems.append("a perturbed reference was not counted as a "
                            f"failure ({state.failed} of {state.attempted})")

    for problem in problems:
        print(f"self-check FAILED: {problem}")
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(self_check())
