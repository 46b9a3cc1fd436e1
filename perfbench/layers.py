"""Per-layer call timing for traced benchmark runs.

Each layer's public entry point is replaced, where the flows look it
up, by a wrapper that records wall time, CPU time, call count and work
counts.  Times are *self* times: a wrapped call nested inside another
(``StaEngine.run`` inside ``size_for_timing``) is charged to its own
layer and subtracted from its caller, so the layer times of one flow
plus the unattributed rest add up to the flow's wall time.

Work counts are the deltas of the program's own obs counters across
the wrapped call, so counters that a cache hit replays from its journal
outside any layer call are not counted as work.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any, Callable, Dict, List, NoReturn, Tuple

#: (layer key, module, attribute) for every wrapped entry point.  The
#: module is the one the flows import the name from, so the wrapper is
#: what the flows call.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("netlist.build_tile", "repro.netlist.openpiton", "build_tile"),
    ("core.project_mol", "repro.core.macro3d", "project_mol"),
    ("core.separate_dies", "repro.core.macro3d", "separate_dies"),
    ("place.global_place", "repro.flows.base", "global_place"),
    ("place.legalize", "repro.flows.base", "legalize"),
    ("place.detailed_place", "repro.flows.base", "refine_placement"),
    ("route.global_route", "repro.route.global_route", "GlobalRouter.run"),
    ("route.layer_assign", "repro.route.layer_assign", "LayerAssigner.run"),
    ("timing.cts", "repro.flows.base", "synthesize_clock_tree"),
    # Every flow's STA goes through the engine: the sizing loop holds
    # one, and ``run_sta`` is a one-shot wrapper over it.
    ("timing.sta", "repro.timing.sta", "StaEngine.run"),
    ("opt.size_for_load", "repro.flows.base", "size_for_load"),
    ("opt.plan_buffers", "repro.flows.base", "plan_buffers"),
    ("opt.size_for_timing", "repro.flows.base", "size_for_timing"),
    ("extract.index", "repro.flows.base", "ExtractionIndex"),
    ("extract.extract_design", "repro.flows.base", "extract_design"),
    ("power.analyze_power", "repro.flows.base", "analyze_power"),
    ("drc.run_drc", "repro.flows.base", "run_drc"),
    ("cache.lookup", "repro.cache.store", "StageCache.lookup"),
    ("cache.load", "repro.cache.store", "StageCache.load_state"),
    ("cache.store", "repro.cache.store", "StageCache.store"),
)

#: Program counters read as work counts, per layer.
WORK_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "place.global_place": ("cg_iterations",),
    "route.global_route": ("maze_expansions", "maze_routes", "ripup_nets"),
    "drc.run_drc": ("drc_nets_checked",),
}


def _work_from_result(layer: str, args: tuple, result: Any) -> Dict[str, float]:
    """Work counts read off a layer call's arguments and result."""
    if layer == "place.legalize":
        return {"forced": result.forced,
                "cells": args[0].netlist.num_instances}
    if layer == "route.global_route":
        return {"nets_routed": len(result)}
    if layer == "opt.size_for_timing":
        return {"sizing_iterations": result.iterations}
    if layer == "cache.lookup":
        return {"hits": int(result is not None)}
    if layer == "cache.load":
        cache, key = args[0], args[1]
        return {"bytes": os.path.getsize(cache.state_path(key))}
    if layer == "cache.store":
        return {"bytes": result["state_bytes"]}
    return {}


class LayerTimer:
    """Accumulates self wall/CPU time, calls and work per layer."""

    def __init__(self, counters: Callable[[], Dict[str, float]]):
        self._counters = counters
        self.stats: Dict[str, Dict[str, float]] = {}
        #: One [wall, cpu] accumulator per open wrapped call, for the
        #: time its nested wrapped calls took.
        self._open: List[List[float]] = []

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        names = WORK_COUNTERS.get(layer, ())

        def timed(*args: Any, **kwargs: Any) -> Any:
            before = self._counters() if names else {}
            self._open.append([0.0, 0.0])
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
                nested_wall, nested_cpu = self._open.pop()
                if self._open:
                    self._open[-1][0] += wall
                    self._open[-1][1] += cpu
                stats = self.stats.setdefault(
                    layer, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0})
                stats["wall_s"] += wall - nested_wall
                stats["cpu_s"] += cpu - nested_cpu
                stats["calls"] += 1
            after = self._counters() if names else {}
            work = {n: after.get(n, 0.0) - before.get(n, 0.0) for n in names}
            work.update(_work_from_result(layer, args, result))
            for name, value in work.items():
                stats[name] = stats.get(name, 0) + value
            return result

        return timed

    def install(self) -> None:
        """Replace every entry point in :data:`ENTRY_POINTS`."""
        for layer, module_name, attr in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, self.wrap(layer, getattr(owner, name)))


def forbid_cache() -> None:
    """Make any stage-cache call fail the run.

    Installed in the cache-off workloads so that a stray cache can
    never make them look warm.
    """
    from repro.cache.store import StageCache

    def tripwire(*_args: Any, **_kwargs: Any) -> NoReturn:
        raise RuntimeError("stage cache used in a cache-off workload")

    for name in ("lookup", "load_state", "store"):
        setattr(StageCache, name, tripwire)
