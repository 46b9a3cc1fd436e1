"""The repository benchmark: whole-process flow timing plus per-layer calls.

Usage (from the repository root)::

    python3 perfbench/run.py --workload m3d-place --seed 2020 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced
    python3 perfbench/run.py --self-check

``run.py`` is a single process that imports nothing but the standard
library.  It runs one workload iteration at a time, each flow run in a
fresh child process (``child.py``): a closed loop with one client and
one design in flight.  BLAS/OpenMP threads are pinned to 1 in the
child's environment, before numpy loads, and no two children ever run
at once.  Each child is timed from outside, from spawn to exit, so
import time, cache I/O and teardown all count.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of
the traced ones (``layers.py``), plus the tracing overhead.

Every flow run's QoR is checked: ``drc_total`` must be 0 and its PPA
block must be byte-equal to the reference (see ``tile_seed_for``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
BASELINE_DIR = os.path.join(ROOT, "benchmarks", "baselines")

#: The tile seed of the committed baselines.
REFERENCE_SEED = 2020
#: ``--seed n`` selects tile seed ``REFERENCE_SEED + (n - REFERENCE_SEED)
#: % SEED_POOL``; every tile seed of the pool has a reference PPA record.
SEED_POOL = 10
#: Set-up-only child processes started at the beginning of every run.
SETUP_SAMPLES = 3
#: A run stops starting iterations, and kills a child, at this age.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


@dataclass(frozen=True)
class Phase:
    """One flow process of a workload iteration."""

    #: Label of the phase within the iteration ("flow", "cold", ...).
    name: str
    #: Reference key: phases with the same key must produce the same PPA.
    qor: str
    flow: str
    config: str
    scale: float
    sizing_iterations: int
    #: Sign off at this fixed frequency instead of fmax (iso-performance).
    target_mhz: Optional[float] = None
    #: Run against the iteration's fresh cache directory.
    cache: bool = False
    #: Registered scenario whose committed baseline PPA this phase must
    #: match at ``REFERENCE_SEED``.
    baseline: Optional[str] = None

    def spec(self, tile_seed: int, cache_dir: Optional[str],
             trace: bool) -> Dict[str, Any]:
        """The JSON job description ``child.py`` runs."""
        return {"flow": self.flow, "config": self.config, "scale": self.scale,
                "tile_seed": tile_seed,
                "sizing_iterations": self.sizing_iterations,
                "target_mhz": self.target_mhz,
                "cache_dir": cache_dir if self.cache else None,
                "trace": trace}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    phases: Tuple[Phase, ...]


def _m3d_cache_phases() -> Tuple[Phase, ...]:
    small = dict(flow="macro3d", config="largecache", scale=0.015)
    base = dict(small, qor="base", sizing_iterations=3,
                baseline="macro3d-largecache-small")
    # The edit changes the sign-off stage's target frequency: only
    # sta and verify rerun, and the PPA differs from the base run's.
    edited = dict(base, qor="edited", target_mhz=300.0, baseline=None)
    return (
        # The cache-off run computes the edited design from scratch, so
        # the edit phase, which reuses upstream checkpoints, must match it.
        Phase("off", **edited),
        Phase("cold", cache=True, **base),
        Phase("warm", cache=True, **base),
        Phase("edit", cache=True, **edited),
    )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "m3d-place",
        "Macro-3D at 22k cells: placement takes about 43% of the wall time "
        "(global_place 29%, detailed_place 12%), global_route about 25%",
        (Phase("flow", "flow", "macro3d", "largecache", 0.06, 3),),
    ),
    Workload(
        "2d-route",
        "2D small-cache tile: global_route takes about 72% of the wall time "
        "and placement about 6%, so a placer change should not move it",
        (Phase("flow", "flow", "2d", "smallcache", 0.015, 3,
               baseline="2d-smallcache-small"),),
    ),
    Workload(
        "m3d-cache",
        "the only workload where the stage cache works: cache-off, cold, "
        "warm and downstream-edit runs against a fresh cache directory",
        _m3d_cache_phases(),
    ),
)}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _per_layer_names() -> List[Tuple[str, str]]:
    names: List[Tuple[str, str]] = []
    for fn in ("global_place", "legalize", "detailed_place"):
        names += [(f"place.{fn}.wall_s", "s"), (f"place.{fn}.cpu_s", "s"),
                  (f"place.{fn}.calls", "count")]
    names += [("place.cg_iterations", "count"),
              ("place.legalize_forced_ratio", "ratio")]
    for fn in ("global_route", "layer_assign"):
        names += [(f"route.{fn}.wall_s", "s"), (f"route.{fn}.cpu_s", "s")]
    names += [("route.maze_expansions", "count"), ("route.maze_routes", "count"),
              ("route.ripup_ratio", "ratio")]
    names += [(n, "s") for n in (
        "netlist.build_tile.wall_s", "core.project_mol.wall_s",
        "core.separate_dies.wall_s", "extract.wall_s", "opt.wall_s",
        "timing.cts.wall_s", "timing.sta.wall_s", "power.wall_s",
        "drc.wall_s")]
    names += [("opt.sizing_iterations", "count"), ("timing.sta.calls", "count"),
              ("drc.nets_checked", "count")]
    for fn in ("lookup", "load", "store"):
        names += [(f"cache.{fn}.wall_s", "s"), (f"cache.{fn}.calls", "count")]
    names += [("cache.load_mb", "MB"), ("cache.store_mb", "MB"),
              ("cache.hit_ratio", "ratio"), ("flow.wall_s", "s"),
              ("flow.unattributed_s", "s"), ("trace.overhead_s", "s"),
              ("cold_wall_s", "s"), ("warm_wall_s", "s"), ("edit_wall_s", "s"),
              ("cache_disk_mb", "MB"), ("fail_frac", "ratio")]
    return names


PER_LAYER = tuple(_per_layer_names())

#: Per-layer wall metric -> the wrapped layer keys it sums.  Every key of
#: ``layers.ENTRY_POINTS`` appears exactly once, so these plus
#: ``flow.unattributed_s`` add up to ``flow.wall_s``.
WALL_GROUPS: Dict[str, Tuple[str, ...]] = {
    "place.global_place.wall_s": ("place.global_place",),
    "place.legalize.wall_s": ("place.legalize",),
    "place.detailed_place.wall_s": ("place.detailed_place",),
    "route.global_route.wall_s": ("route.global_route",),
    "route.layer_assign.wall_s": ("route.layer_assign",),
    "netlist.build_tile.wall_s": ("netlist.build_tile",),
    "core.project_mol.wall_s": ("core.project_mol",),
    "core.separate_dies.wall_s": ("core.separate_dies",),
    "extract.wall_s": ("extract.index", "extract.extract_design"),
    "opt.wall_s": ("opt.size_for_load", "opt.plan_buffers",
                   "opt.size_for_timing"),
    "timing.cts.wall_s": ("timing.cts",),
    "timing.sta.wall_s": ("timing.sta",),
    "power.wall_s": ("power.analyze_power",),
    "drc.wall_s": ("drc.run_drc",),
    "cache.lookup.wall_s": ("cache.lookup",),
    "cache.load.wall_s": ("cache.load",),
    "cache.store.wall_s": ("cache.store",),
}


# -- references ----------------------------------------------------------------------


def tile_seed_for(seed: int) -> int:
    """The tile seed a workload seed selects (``REFERENCE_SEED`` maps to
    itself)."""
    return REFERENCE_SEED + (seed - REFERENCE_SEED) % SEED_POOL


def canonical_ppa(ppa: Dict[str, float]) -> str:
    return json.dumps(ppa, sort_keys=True)


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def baseline_ppa(workload: Workload) -> Dict[str, str]:
    """Canonical committed-baseline PPA per qor key, for the phases that
    name a registered scenario (valid at ``REFERENCE_SEED`` only)."""
    out: Dict[str, str] = {}
    for phase in workload.phases:
        if phase.baseline is not None:
            name = f"BENCH_{phase.baseline}.json"
            with open(os.path.join(BASELINE_DIR, name), "r",
                      encoding="utf-8") as handle:
                out[phase.qor] = canonical_ppa(json.load(handle)["ppa"])
    return out


def load_references(workload: Workload, tile_seed: int) -> Dict[str, List[str]]:
    """Canonical reference PPA per qor key for one tile seed (may be empty).

    The benchmark's own record (``reference/<workload>.json``) holds every
    pool seed; at ``REFERENCE_SEED`` a phase naming a registered scenario
    must also match that scenario's committed baseline.
    """
    refs: Dict[str, List[str]] = {}
    path = reference_path(workload.name)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)["ppa"].get(str(tile_seed), {})
        for qor, ppa in record.items():
            refs[qor] = [canonical_ppa(ppa)]
    if tile_seed == REFERENCE_SEED:
        for qor, text in baseline_ppa(workload).items():
            if text not in refs.setdefault(qor, []):
                refs[qor].append(text)
    return refs


class QorOracle:
    """Judges each flow run's PPA; never writes a reference."""

    def __init__(self, references: Dict[str, List[str]]):
        self.references = references
        #: First PPA seen per qor key: later runs must repeat it exactly.
        self.seen: Dict[str, str] = {}

    @property
    def has_reference(self) -> bool:
        return bool(self.references)

    def check(self, qor: str, ppa: Dict[str, float]) -> Optional[str]:
        """None if the run is correct, else why it is not."""
        if ppa.get("drc_total") != 0:
            return f"drc_total = {ppa.get('drc_total')}"
        text = canonical_ppa(ppa)
        if self.has_reference:
            refs = self.references.get(qor)
            if not refs:
                return f"no reference PPA for {qor!r}"
            if any(text != ref for ref in refs):
                return f"PPA differs from the reference for {qor!r}"
        first = self.seen.setdefault(qor, text)
        if text != first:
            return f"PPA of {qor!r} differs between runs of this workload"
        return None


# -- child processes -----------------------------------------------------------------


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    output: Optional[Dict[str, Any]]
    error: Optional[str]

    @property
    def setup_s(self) -> Optional[float]:
        return self.output["setup_s"] if self.output else None


def child_env(work_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = work_dir
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(spec: Dict[str, Any], env: Dict[str, str], work_dir: str,
          timeout_s: float) -> ChildRun:
    """Run one child to completion and time it from outside."""
    err_path = os.path.join(work_dir, "child.stderr")
    with open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            with proc.stdout:
                raw = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    maxrss_mb = usage.ru_maxrss / 1024.0
    output, error = None, None
    lines = raw.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(err_path, "r", encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        error = f"child exited {proc.returncode}: {tail.strip()}"
    else:
        try:
            output = json.loads(lines[-1])
            output["setup_s"] = output["setup_done"] - started
        except (ValueError, KeyError) as exc:
            error = f"unreadable child output ({exc})"
            output = None
    return ChildRun(wall, cpu, maxrss_mb, output, error)


# -- workload iterations -------------------------------------------------------------


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    flow_wall_s: float = 0.0
    phase_wall_s: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache_disk_mb: float = 0.0


@dataclass
class RunState:
    """Everything one benchmark run has measured so far."""

    workload: Workload
    tile_seed: int
    oracle: QorOracle
    env: Dict[str, str]
    work_dir: str
    started: float
    setups: List[float] = field(default_factory=list)
    iterations: List[Iteration] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    versions: Dict[str, str] = field(default_factory=dict)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)


def _disk_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _merge_layers(into: Dict[str, Dict[str, float]],
                  layers: Dict[str, Dict[str, float]]) -> None:
    for layer, stats in layers.items():
        acc = into.setdefault(layer, {})
        for key, value in stats.items():
            acc[key] = acc.get(key, 0) + value


def run_iteration(state: RunState, traced: bool) -> Iteration:
    it = Iteration(traced=traced)
    workload = state.workload
    cache_dir = None
    if any(p.cache for p in workload.phases):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=state.work_dir)
    try:
        for phase in workload.phases:
            spec = phase.spec(state.tile_seed, cache_dir, traced)
            child = spawn(spec, state.env, state.work_dir, state.remaining())
            state.attempted += 1
            it.wall_s += child.wall_s
            it.cpu_s += child.cpu_s
            it.peak_rss_mb = max(it.peak_rss_mb, child.maxrss_mb)
            it.phase_wall_s[phase.name] = child.wall_s
            error = child.error
            if child.output is not None:
                state.setups.append(child.setup_s)
                it.flow_wall_s += child.output["flow_wall_s"]
                _merge_layers(it.layers, child.output.get("layers", {}))
                error = state.oracle.check(phase.qor, child.output["ppa"])
            if error is not None:
                state.failed += 1
                state.errors.append(f"{workload.name}/{phase.name}: {error}")
        if cache_dir is not None:
            it.cache_disk_mb = _disk_bytes(cache_dir) / 1e6
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return it


def sample_setup(state: RunState) -> None:
    child = spawn({"flow": None}, state.env, state.work_dir, state.remaining())
    if child.output is None:
        state.failed += 1
        state.attempted += 1
        state.errors.append(f"set-up child: {child.error}")
        return
    state.setups.append(child.setup_s)
    state.versions = child.output["versions"]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 tile_seed: Optional[int] = None,
                 references: Optional[Dict[str, List[str]]] = None) -> RunState:
    """Run iterations of one workload for ``seconds`` (at least one).

    Without a reference for the tile seed, correctness is determinism:
    the run makes at least two iterations and every repeat of a qor key
    must be byte-identical.  Traced runs alternate untraced and traced
    iterations, starting untraced, and make at least one of each.
    """
    if tile_seed is None:
        tile_seed = tile_seed_for(seed)
    if references is None:
        references = load_references(workload, tile_seed)
    oracle = QorOracle(references)
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    state = RunState(workload, tile_seed, oracle, child_env(work_dir),
                     work_dir, time.monotonic())
    # Phases sharing a qor key repeat each other within one iteration.
    repeats_inside = len({p.qor for p in workload.phases}) < len(workload.phases)
    one_is_enough = oracle.has_reference or repeats_inside
    min_iterations = 2 if trace or not one_is_enough else 1
    try:
        for _ in range(SETUP_SAMPLES):
            sample_setup(state)
        while True:
            done = len(state.iterations)
            elapsed = time.monotonic() - state.started
            if done >= min_iterations and elapsed >= seconds:
                break
            longest = max((i.wall_s for i in state.iterations), default=0.0)
            if done >= min_iterations and state.remaining() < longest:
                break
            if state.remaining() <= 0:
                state.failed += 1
                state.errors.append("run deadline reached")
                break
            state.iterations.append(
                run_iteration(state, traced=trace and done % 2 == 1))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return state


# -- metrics -------------------------------------------------------------------------


def end_to_end_metrics(state: RunState) -> Dict[str, float]:
    runs = [i for i in state.iterations if not i.traced]
    return {
        "wall_s": statistics.median(i.wall_s for i in runs),
        "cpu_s": statistics.median(i.cpu_s for i in runs),
        "setup_s": statistics.median(state.setups),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in runs),
    }


def _median_iteration(iterations: List[Iteration]) -> Iteration:
    ordered = sorted(iterations, key=lambda i: i.flow_wall_s)
    return ordered[(len(ordered) - 1) // 2]


def per_layer_metrics(state: RunState) -> Dict[str, float]:
    """Per-layer figures of the traced iteration with the median flow
    wall time, so that they add up within one flow run."""
    traced = [i for i in state.iterations if i.traced]
    untraced = [i for i in state.iterations if not i.traced]
    it = _median_iteration(traced)
    layers = it.layers

    def stat(layer: str, key: str) -> float:
        return float(layers.get(layer, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for metric, keys in WALL_GROUPS.items():
        out[metric] = sum(stat(k, "wall_s") for k in keys)
    for layer in ("place.global_place", "place.legalize",
                  "place.detailed_place", "route.global_route",
                  "route.layer_assign"):
        out[f"{layer}.cpu_s"] = stat(layer, "cpu_s")
    for layer in ("place.global_place", "place.legalize",
                  "place.detailed_place", "timing.sta", "cache.lookup",
                  "cache.load", "cache.store"):
        out[f"{layer}.calls"] = stat(layer, "calls")
    out["place.cg_iterations"] = stat("place.global_place", "cg_iterations")
    out["place.legalize_forced_ratio"] = ratio(
        stat("place.legalize", "forced"), stat("place.legalize", "cells"))
    out["route.maze_expansions"] = stat("route.global_route", "maze_expansions")
    out["route.maze_routes"] = stat("route.global_route", "maze_routes")
    out["route.ripup_ratio"] = ratio(stat("route.global_route", "ripup_nets"),
                                     stat("route.global_route", "nets_routed"))
    out["opt.sizing_iterations"] = stat("opt.size_for_timing",
                                        "sizing_iterations")
    out["drc.nets_checked"] = stat("drc.run_drc", "drc_nets_checked")
    out["cache.load_mb"] = stat("cache.load", "bytes") / 1e6
    out["cache.store_mb"] = stat("cache.store", "bytes") / 1e6
    out["cache.hit_ratio"] = ratio(stat("cache.lookup", "hits"),
                                   stat("cache.lookup", "calls"))
    out["flow.wall_s"] = it.flow_wall_s
    out["flow.unattributed_s"] = it.flow_wall_s - sum(
        out[m] for m in WALL_GROUPS)
    out["trace.overhead_s"] = (statistics.median(i.wall_s for i in traced)
                               - statistics.median(i.wall_s for i in untraced))
    for phase in ("cold", "warm", "edit"):
        walls = [i.phase_wall_s[phase] for i in untraced
                 if phase in i.phase_wall_s]
        out[f"{phase}_wall_s"] = statistics.median(walls) if walls else 0.0
    out["cache_disk_mb"] = statistics.median(i.cache_disk_mb for i in untraced)
    out["fail_frac"] = ratio(state.failed, state.attempted)
    return out


def result_record(state: RunState, trace: bool) -> Dict[str, Any]:
    """The benchmark's result object (the last line of its output)."""
    names = PER_LAYER if trace else END_TO_END
    metrics: Dict[str, Any] = {}
    if state.iterations:
        values = per_layer_metrics(state) if trace else end_to_end_metrics(state)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in names}
    failed = state.failed if state.iterations else max(state.failed, 1)
    return {"correct": failed == 0, "attempted": max(state.attempted, 1),
            "failed": failed, "metrics": metrics}


def git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(state: RunState, load_before: Tuple[float, ...]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "thread_vars": {v: state.env.get(v) for v in THREAD_VARS},
        "versions": state.versions,
        "git_rev": git_rev(),
        "tile_seed": state.tile_seed,
        "reference": state.oracle.has_reference,
    }


def report(state: RunState, trace: bool,
           load_before: Tuple[float, ...]) -> Dict[str, Any]:
    """Print the human-readable lines and return the result record."""
    record = result_record(state, trace)
    runs = [i for i in state.iterations if i.traced == trace]
    samples = len(state.setups) if not trace else len(runs)
    print(f"# workload {state.workload.name}: tile seed {state.tile_seed}, "
          f"{len(state.iterations)} iterations "
          f"({sum(i.traced for i in state.iterations)} traced), "
          f"{state.attempted} flow runs, {state.failed} failed")
    for name, metric in record["metrics"].items():
        n = samples if name == "setup_s" else len(runs)
        print(f"{state.workload.name:10s} {name:32s} {metric['value']:14.4f} "
              f"{metric['unit']:6s} (n={n})")
    for error in state.errors:
        print(f"# FAILED {error}")
    print(json.dumps({"env": environment(state, load_before)}))
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload, "
                        "untraced then traced)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--tile-seed", type=int, default=None,
                        help="use this tile seed directly; a seed outside "
                        "the reference pool is checked for determinism")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.self_check:
        from selfcheck import self_check
        return self_check()

    if args.workload is not None:
        load_before = os.getloadavg()
        state = run_workload(WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), args.tile_seed)
        record = report(state, bool(args.trace), load_before)
        print(json.dumps(record))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (False, True):
        for workload in WORKLOADS.values():
            load_before = os.getloadavg()
            state = run_workload(workload, args.seed, args.seconds, trace,
                                 args.tile_seed)
            record = report(state, trace, load_before)
            combined["correct"] &= record["correct"]
            combined["attempted"] += record["attempted"]
            combined["failed"] += record["failed"]
            for name, metric in record["metrics"].items():
                combined["metrics"][f"{workload.name}:{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
