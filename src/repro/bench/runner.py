"""Execute bench scenarios and write their artifacts.

``run_scenario`` runs one scenario under a fresh ``repro.obs``
recording and returns the in-memory results; ``write_benchmark`` adds
the on-disk products: the ``BENCH_<scenario>.json`` artifact plus the
two QoR signoff SVGs next to it (``BENCH_<scenario>.congestion.svg``,
``BENCH_<scenario>.slack.svg``) and, with ``profile=True``, the
cProfile report ``BENCH_<scenario>.profile.txt``.

``run_benchmarks`` drives a whole scenario list, optionally across a
process pool (``jobs > 1``).  Scenarios are deterministic and fully
independent, so parallel runs produce byte-identical QoR artifacts —
only wall times and RSS samples may differ.  Every run also writes
``BENCH_schedule.json``: per-scenario start/end stamps on the shared
monotonic clock, which is how a parallel run *demonstrates* overlap
even on a single-core host (interleaved intervals, not wall-clock
speedup, are the evidence).

Live observability rides along on request: ``events_path``/``on_event``
attach a ``repro.obs.events/v1`` stream (heartbeats, span open/close,
marks) — in parallel runs each worker forwards its events over a
multiprocessing queue, so the parent's single JSONL file shows
per-scenario, per-stage progress *while* scenarios overlap;
``history_path`` appends one ``repro.obs.history/v1`` record per
completed scenario; ``perfetto=True`` writes a Chrome trace-event
export (``BENCH_<scenario>.perfetto``) next to each artifact.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.artifact import (
    BenchArtifact,
    artifact_filename,
    load_artifact,
    perfetto_filename,
    run_environment,
)
from repro.bench.scenarios import Scenario, get_scenario
from repro.bench.svg import render_signoff_visuals
from repro.cache import activate_cache, caching, get_cache
from repro.flows.base import FlowResult
from repro.obs import FlowTrace, profile_call, recording
from repro.obs.events import DEFAULT_HEARTBEAT_S, jsonl_writer, streaming
from repro.obs.export import chrome_trace_from_flowtrace, write_chrome_trace
from repro.obs.history import (
    append_history,
    git_revision,
    record_from_artifact,
)

#: Filename of the per-run schedule record (skipped by artifact discovery).
SCHEDULE_FILENAME = "BENCH_schedule.json"

#: Filename of the per-run cache statistics (the ``CACHE_`` prefix keeps
#: it out of the ``BENCH_*.json`` artifact discovery glob).
CACHE_STATS_FILENAME = "CACHE_stats.json"

#: Warning issued when ``--jobs`` is requested on a platform without the
#: fork start method (satisfying the parallel path's fork assumptions:
#: inherited event queues and runtime-registered scenarios).
FORK_FALLBACK_MESSAGE = (
    "parallel bench runs require the 'fork' multiprocessing start method "
    "(workers inherit the event queue and runtime-registered scenarios); "
    "this platform only offers spawn-style starts, so scenarios will run "
    "serially instead"
)


def fork_context() -> Optional[Any]:
    """The fork multiprocessing context, or None where unavailable."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - defensive
        return None


@dataclass
class BenchFailure:
    """One scenario that did not produce a passing artifact.

    A failure is either a crash (``traceback`` carries the worker's
    formatted stack, whether it raised in-process or in a pool worker)
    or a wall-budget overrun (``traceback`` empty, ``error`` says by
    how much).  Failures never abort the remaining scenarios — a
    raising scenario fails alone.
    """

    scenario: str
    error: str
    traceback: str = ""


def run_scenario(
    scenario: Scenario,
) -> Tuple[BenchArtifact, FlowResult, FlowTrace]:
    """Run one scenario traced and package the artifact."""
    environment = run_environment()
    with recording() as recorder:
        result = scenario.run()
    trace = FlowTrace.from_recorder(
        recorder, flow=result.flow, design=result.design
    )
    artifact = BenchArtifact.from_run(
        scenario_name=scenario.name,
        flow=scenario.flow,
        config=scenario.config,
        size=scenario.size,
        scale=scenario.scale,
        result=result,
        trace=trace,
        environment=environment,
    )
    return artifact, result, trace


def write_benchmark(
    scenario: Scenario,
    out_dir: str,
    svg: bool = True,
    profile: bool = False,
    perfetto: bool = False,
) -> Tuple[BenchArtifact, List[str]]:
    """Run a scenario and write its artifact (+ visuals) into ``out_dir``.

    Returns the artifact and the list of files written, artifact first.
    ``profile=True`` additionally runs the scenario under cProfile and
    writes the cumulative-time report next to the artifact;
    ``perfetto=True`` writes the FlowTrace as a Chrome trace-event file
    loadable in Perfetto/chrome://tracing.
    """
    if profile:
        (artifact, result, trace), report = profile_call(
            run_scenario, scenario
        )
    else:
        artifact, result, trace = run_scenario(scenario)
        report = None
    os.makedirs(out_dir, exist_ok=True)
    paths: List[str] = []
    artifact_path = os.path.join(out_dir, artifact_filename(scenario.name))
    with open(artifact_path, "w", encoding="utf-8") as handle:
        handle.write(artifact.to_json())
    paths.append(artifact_path)
    if report is not None:
        profile_path = os.path.join(
            out_dir, f"BENCH_{scenario.name}.profile.txt"
        )
        with open(profile_path, "w", encoding="utf-8") as handle:
            handle.write(report)
        paths.append(profile_path)
    if perfetto:
        perfetto_path = os.path.join(out_dir, perfetto_filename(scenario.name))
        write_chrome_trace(perfetto_path, chrome_trace_from_flowtrace(trace))
        paths.append(perfetto_path)
    if svg:
        visuals: Dict[str, str] = render_signoff_visuals(result)
        for suffix, document in sorted(visuals.items()):
            svg_path = os.path.join(
                out_dir, f"BENCH_{scenario.name}.{suffix}.svg"
            )
            with open(svg_path, "w", encoding="utf-8") as handle:
                handle.write(document)
            paths.append(svg_path)
    return artifact, paths


# -- parallel execution ---------------------------------------------------------------

#: Worker-side event forwarding state, set by the pool initializer.
#: Events cross the process boundary as plain dicts on this queue; the
#: parent's drainer thread serializes them into the one JSONL file.
_WORKER_EVENT_QUEUE: Optional[Any] = None
_WORKER_HEARTBEAT_S: float = DEFAULT_HEARTBEAT_S


def _init_worker_events(
    queue: Any, heartbeat_s: float, cache_dir: Optional[str] = None
) -> None:
    """Pool initializer: adopt the parent's event queue (fork-inherited)
    and, when caching, activate the worker's ambient stage cache."""
    global _WORKER_EVENT_QUEUE, _WORKER_HEARTBEAT_S
    _WORKER_EVENT_QUEUE = queue
    _WORKER_HEARTBEAT_S = heartbeat_s
    if cache_dir is not None:
        activate_cache(get_cache(cache_dir))


def _bench_worker(
    name: str, out_dir: str, svg: bool, profile: bool, perfetto: bool = False
) -> Tuple[
    str, Optional[BenchArtifact], List[str], float, float, Optional[str]
]:
    """Top-level (picklable) pool entry: run one scenario by name.

    Workers are forked, so scenarios registered at runtime via
    ``register_scenario`` are visible here too.  Start/end stamps come
    from the shared monotonic clock and are comparable across the pool.
    When the pool was initialized with an event queue, the whole
    scenario runs under a live stream whose writer is ``queue.put`` —
    every event tagged with the scenario name, so the parent's combined
    stream shows per-scenario, per-stage progress while runs overlap.

    A raising scenario is reported, not raised: the last element is the
    worker-side formatted traceback (exception objects may not pickle
    across the process boundary — and a raise here would surface in the
    parent as an opaque ``future.result()`` error that kills the whole
    run instead of failing one scenario).
    """
    start = time.monotonic()
    queue = _WORKER_EVENT_QUEUE
    stream_cm = (
        streaming(
            queue.put,
            heartbeat_s=_WORKER_HEARTBEAT_S,
            base={"scenario": name},
        )
        if queue is not None
        else nullcontext()
    )
    try:
        with stream_cm:
            artifact, paths = write_benchmark(
                get_scenario(name), out_dir, svg=svg, profile=profile,
                perfetto=perfetto,
            )
    except Exception:
        return name, None, [], start, time.monotonic(), traceback.format_exc()
    return name, artifact, paths, start, time.monotonic(), None


def _schedule_dict(
    jobs: int, rows: List[Tuple[str, float, float]]
) -> Dict[str, Any]:
    t0 = min(start for _name, start, _end in rows) if rows else 0.0
    return {
        "jobs": jobs,
        "scenarios": [
            {
                "name": name,
                "start_s": round(start - t0, 6),
                "end_s": round(end - t0, 6),
            }
            for name, start, end in rows
        ],
    }


def write_schedule(out_dir: str, schedule: Dict[str, Any]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SCHEDULE_FILENAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(schedule, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_benchmarks(
    scenarios: List[Scenario],
    out_dir: str,
    svg: bool = True,
    jobs: int = 1,
    profile: bool = False,
    on_done: Optional[Callable[[Scenario, BenchArtifact, List[str]], None]] = None,
    events_path: Optional[str] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    history_path: Optional[str] = None,
    perfetto: bool = False,
    cache_dir: Optional[str] = None,
) -> Tuple[
    List[Tuple[Scenario, BenchArtifact, List[str]]],
    Dict[str, Any],
    List[BenchFailure],
]:
    """Run scenarios, optionally ``jobs``-wide across processes.

    Returns (per-scenario results in input order, the schedule dict,
    the failures); the schedule is also written to
    ``BENCH_schedule.json`` in ``out_dir``.  ``on_done`` fires as each
    scenario finishes — in completion order when parallel.

    Live observability: when ``events_path`` and/or ``on_event`` is
    given, every scenario runs under a ``repro.obs.events/v1`` stream —
    serial runs write/forward inline, parallel runs forward worker
    events over a queue into the single ``events_path`` file and the
    ``on_event`` callback (called from the drainer thread).
    ``history_path`` appends one history record per completed scenario
    (stamped with the current git revision); ``perfetto`` adds a Chrome
    trace-event export next to each artifact.

    A scenario that raises (or whose artifact overruns the scenario's
    ``wall_budget_s``) lands in the failures list instead of aborting
    the run; its results entry is dropped (budget overruns keep
    theirs — the artifact is valid, just slow).

    ``cache_dir`` activates the content-addressed stage cache for every
    scenario (serial runs via the scoped context manager, parallel runs
    via the pool initializer) and writes the run's aggregate cache
    footprint to ``CACHE_stats.json`` in ``out_dir``.
    """
    by_name = {scenario.name: scenario for scenario in scenarios}
    artifacts: Dict[str, Tuple[BenchArtifact, List[str]]] = {}
    rows: List[Tuple[str, float, float]] = []
    failures: List[BenchFailure] = []
    events_enabled = events_path is not None or on_event is not None
    git_rev = git_revision() if history_path is not None else ""

    events_handle = None
    events_file_write = None
    if events_path is not None:
        directory = os.path.dirname(events_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        events_handle = open(events_path, "w", encoding="utf-8")
        events_file_write = jsonl_writer(events_handle)

    def dispatch_event(event: Dict[str, Any]) -> None:
        if events_file_write is not None:
            events_file_write(event)
        if on_event is not None:
            on_event(event)

    def finish(name: str, artifact: BenchArtifact, paths: List[str]) -> None:
        artifacts[name] = (artifact, paths)
        scenario = by_name[name]
        budget = scenario.wall_budget_s
        if budget is not None and artifact.wall_s_total > budget:
            failures.append(BenchFailure(
                name,
                f"wall time {artifact.wall_s_total:.1f} s exceeded the "
                f"{budget:.0f} s budget",
            ))
        if history_path is not None:
            append_history(history_path, record_from_artifact(
                artifact, git_rev=git_rev, ts_unix=time.time()
            ))
        if on_done is not None:
            on_done(scenario, artifact, paths)

    def crashed(name: str, formatted: str) -> None:
        last = formatted.strip().splitlines()[-1] if formatted else "crashed"
        failures.append(BenchFailure(name, last, formatted))

    parallel = jobs > 1 and len(scenarios) > 1
    context: Optional[Any] = None
    if parallel:
        # The parallel path assumes fork: workers inherit the event queue
        # and any runtime-registered scenarios.  Without it, degrade to a
        # serial run loudly rather than spawn workers that silently miss
        # registrations.
        context = fork_context()
        if context is None:
            warnings.warn(FORK_FALLBACK_MESSAGE, RuntimeWarning, stacklevel=2)
            parallel = False
    try:
        if not parallel:
            cache_cm = (
                caching(get_cache(cache_dir))
                if cache_dir is not None
                else nullcontext()
            )
            with cache_cm:
                for scenario in scenarios:
                    stream_cm = (
                        streaming(
                            dispatch_event,
                            heartbeat_s=heartbeat_s,
                            base={"scenario": scenario.name},
                        )
                        if events_enabled
                        else nullcontext()
                    )
                    start = time.monotonic()
                    try:
                        with stream_cm:
                            artifact, paths = write_benchmark(
                                scenario, out_dir, svg=svg, profile=profile,
                                perfetto=perfetto,
                            )
                    except Exception:
                        rows.append((scenario.name, start, time.monotonic()))
                        crashed(scenario.name, traceback.format_exc())
                        continue
                    rows.append((scenario.name, start, time.monotonic()))
                    finish(scenario.name, artifact, paths)
        else:
            queue = context.Queue() if events_enabled else None
            drainer: Optional[threading.Thread] = None
            if queue is not None:
                # The queue outlives the pool: workers put, this thread
                # serializes into the one JSONL file until the parent
                # drops the sentinel after pool shutdown.
                def drain() -> None:
                    while True:
                        event = queue.get()
                        if event is None:
                            return
                        dispatch_event(event)

                drainer = threading.Thread(
                    target=drain, name="bench-event-drain", daemon=True
                )
                drainer.start()
            pool_kwargs: Dict[str, Any] = {}
            if queue is not None or cache_dir is not None:
                # initargs travel through the worker Process constructor,
                # so the fork-context queue is inherited, not pickled.
                pool_kwargs = {
                    "initializer": _init_worker_events,
                    "initargs": (queue, heartbeat_s, cache_dir),
                }
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(scenarios)), mp_context=context,
                **pool_kwargs,
            ) as pool:
                submitted = {
                    pool.submit(
                        _bench_worker, scenario.name, out_dir, svg, profile,
                        perfetto,
                    ): scenario.name
                    for scenario in scenarios
                }
                pending = set(submitted)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            name, artifact, paths, start, end, tb = (
                                future.result()
                            )
                        except Exception:
                            # The worker process died without reporting
                            # (OOM-kill, interpreter abort) — the worker-side
                            # catch never ran, so format parent-side.
                            crashed(submitted[future], traceback.format_exc())
                            continue
                        rows.append((name, start, end))
                        if tb is not None:
                            crashed(name, tb)
                            continue
                        finish(name, artifact, paths)
            if queue is not None:
                queue.put(None)
                if drainer is not None:
                    drainer.join()
    finally:
        if events_handle is not None:
            events_handle.close()
    rows.sort(key=lambda row: row[1])
    schedule = _schedule_dict(jobs, rows)
    write_schedule(out_dir, schedule)
    if cache_dir is not None:
        write_cache_stats(out_dir, cache_dir)
    results = [
        (scenario, *artifacts[scenario.name])
        for scenario in scenarios
        if scenario.name in artifacts
    ]
    return results, schedule, failures


def write_cache_stats(out_dir: str, cache_dir: str) -> str:
    """Write the cache root's aggregate footprint next to the artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, CACHE_STATS_FILENAME)
    stats = get_cache(cache_dir).stats()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def scenarios_overlapped(schedule: Dict[str, Any]) -> bool:
    """True when any two scenario intervals in a schedule overlap."""
    spans = [
        (entry["start_s"], entry["end_s"])
        for entry in schedule.get("scenarios", [])
    ]
    spans.sort()
    return any(
        second_start < first_end
        for (_s0, first_end), (second_start, _e1) in zip(spans, spans[1:])
    )


def discover_artifacts(out_dir: str) -> List[str]:
    """All ``BENCH_*.json`` files in a directory, sorted by name."""
    if not os.path.isdir(out_dir):
        return []
    return sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.startswith("BENCH_")
        and name.endswith(".json")
        and name != SCHEDULE_FILENAME
    )


def load_artifacts(out_dir: str) -> List[BenchArtifact]:
    return [load_artifact(path) for path in discover_artifacts(out_dir)]
