"""Content-addressed incremental stage cache (``repro.cache``).

Every root stage of a flow is one cacheable unit: build_tile →
floorplan → place → route → cts → signoff → verify for 2D (7 stages);
Macro-3D has project_mol in place of floorplan and adds separate_dies
before verify (8); S2D and C2D run build_tile → floorplan →
pseudo_place → pseudo_route → pseudo_extract → tier_partition →
overlap_fix → f2f_plan → reroute → cts → signoff → verify (12).  A
stage's key hashes the canonical inputs — package source, netlist
content, tech preset, flow name, the stage's own knobs, and the
upstream stage key — and its value is the cumulative flow state
checkpoint at that boundary.  The same stage names are the trace's
root spans, a bench artifact's ``stages`` and ``repro cache stats``
``by_stage`` keys.

A repeat run becomes a chain of cache hits that collapses to one
unpickle of the deepest checkpoint; a partially-edited request (say,
new ``sizing_iterations`` with the same placement knobs) reuses every
stage upstream of the edit.  Hits/misses/stores surface as ``cache_*``
obs counters and ``cache="hit"|"miss"`` span tags, and each hit
replays the stage's metric journal so warm artifacts are QoR
byte-identical to cold ones.

Three layers:

- :mod:`repro.cache.keys` — canonical fingerprints (byte-stable across
  processes and ``PYTHONHASHSEED``, order-insensitive, type-tagged);
- :mod:`repro.cache.store` — the ``~/.cache/repro`` filesystem store
  with atomic writes, sidecar journals, and ambient activation;
- :mod:`repro.cache.chain` — the :class:`StageChain` protocol the
  flows speak.
"""

from repro.cache.keys import (
    UnhashableInputError,
    canonical_fingerprint,
    chain_key,
    netlist_fingerprint,
    stage_key,
)
from repro.cache.store import (
    CACHE_SCHEMA,
    CacheError,
    CacheStats,
    DEFAULT_CACHE_DIR,
    StageCache,
    activate_cache,
    active_cache,
    caching,
    get_cache,
    resolve_cache_dir,
)
from repro.cache.chain import StageChain

__all__ = [
    "CACHE_SCHEMA",
    "CacheError",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "StageCache",
    "StageChain",
    "UnhashableInputError",
    "activate_cache",
    "active_cache",
    "caching",
    "canonical_fingerprint",
    "chain_key",
    "get_cache",
    "netlist_fingerprint",
    "resolve_cache_dir",
    "stage_key",
]
