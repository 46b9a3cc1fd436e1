"""Write the benchmark's reference PPA records (``reference/<workload>.json``).

Usage (from the repository root)::

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each distinct QoR configuration of a workload once, cache off, for
every tile seed of the pool and records the PPA block.  The records are
made once, at the commit that defines the benchmark, and are never
rewritten to make a run pass: the script refuses to overwrite a record.
At the reference seed the record must equal the committed baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import List, Optional

import run as bench


def make_record(workload: bench.Workload, work_dir: str) -> dict:
    env = bench.child_env(work_dir)
    record = {}
    for offset in range(bench.SEED_POOL):
        tile_seed = bench.REFERENCE_SEED + offset
        by_qor = {}
        for phase in workload.phases:
            if phase.qor in by_qor:
                continue
            spec = phase.spec(tile_seed, cache_dir=None, trace=False)
            child = bench.spawn(spec, env, work_dir, timeout_s=900.0)
            if child.output is None:
                raise RuntimeError(f"{workload.name} seed {tile_seed}: "
                                   f"{child.error}")
            by_qor[phase.qor] = child.output["ppa"]
            print(f"{workload.name} tile seed {tile_seed} {phase.qor}: "
                  f"{child.wall_s:.1f} s", flush=True)
        distinct = {bench.canonical_ppa(ppa) for ppa in by_qor.values()}
        if len(distinct) != len(by_qor):
            # Then a stale checkpoint served across an edit would pass.
            raise RuntimeError(f"{workload.name} seed {tile_seed}: distinct "
                               "QoR configurations give the same PPA")
        record[str(tile_seed)] = by_qor
    for qor, text in bench.baseline_ppa(workload).items():
        if bench.canonical_ppa(record[str(bench.REFERENCE_SEED)][qor]) != text:
            raise RuntimeError(f"{workload.name}: the {qor!r} run does not "
                               "match its committed baseline")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(bench.WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(bench.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or sorted(bench.WORKLOADS):
        path = bench.reference_path(name)
        if os.path.exists(path):
            print(f"{path} exists; references are never rewritten",
                  file=sys.stderr)
            return 1
        work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=bench.ROOT)
        try:
            record = make_record(bench.WORKLOADS[name], work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "reference_seed": bench.REFERENCE_SEED,
                       "ppa": record}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
