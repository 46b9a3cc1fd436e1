"""One flow process of the benchmark.

Usage: ``python3 perfbench/child.py '<phase spec JSON>'``, with ``src``
on ``PYTHONPATH``.  ``run.py`` starts this script once per
flow run and times it from outside.  With ``{"flow": null}`` the script
only sets up and exits, which samples set-up time on its own.

The last line of standard output is one JSON object: the monotonic time
at which set-up finished, library versions, the flow's in-process wall
time, its PPA block and, when traced, the per-layer call statistics.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def main(argv: list) -> int:
    spec = json.loads(argv[1])

    import numpy
    import scipy

    import repro
    from repro.bench.artifact import ppa_block
    from repro.cache import StageCache, active_cache, caching
    from repro.core.macro3d import run_flow_macro3d
    from repro.flows.base import FlowOptions
    from repro.flows.flow2d import run_flow_2d
    from repro.netlist.openpiton import large_cache_config, small_cache_config
    from repro.obs import recording
    from repro.tech.presets import hk28, hk28_macro_die

    logic, macro = hk28(), hk28_macro_die()
    source = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(repro.__file__).startswith(source + os.sep):
        raise RuntimeError(f"repro imported from {repro.__file__}, "
                           f"not from {source}")
    out = {
        "setup_done": time.monotonic(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "repro": getattr(repro, "__version__", "unknown"),
        },
    }
    if spec["flow"] is None:
        print(json.dumps(out))
        return 0

    import dataclasses

    from layers import LayerTimer, forbid_cache

    if active_cache() is not None:
        raise RuntimeError("a stage cache is active before the flow starts")
    cache_dir = spec.get("cache_dir")
    if cache_dir is None:
        forbid_cache()
    configs = {"largecache": large_cache_config,
               "smallcache": small_cache_config}
    config = dataclasses.replace(configs[spec["config"]](),
                                 seed=spec["tile_seed"])
    options = FlowOptions(sizing_iterations=spec["sizing_iterations"],
                          target_frequency_mhz=spec["target_mhz"])
    if spec["flow"] == "macro3d":
        def run():
            return run_flow_macro3d(config, scale=spec["scale"],
                                    options=options, logic_tech=logic,
                                    macro_tech=macro)
    else:
        def run():
            return run_flow_2d(config, scale=spec["scale"], options=options,
                               technology=logic)

    cache = StageCache(cache_dir) if cache_dir is not None else None
    with contextlib.ExitStack() as stack:
        if spec["trace"]:
            recorder = stack.enter_context(recording())
            timer = LayerTimer(recorder.metrics.counters_snapshot)
            timer.install()
        stack.enter_context(caching(cache))
        started = time.perf_counter()
        result = run()
        out["flow_wall_s"] = time.perf_counter() - started
    if spec["trace"]:
        out["layers"] = timer.stats
    out["ppa"] = ppa_block(result.summary)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
