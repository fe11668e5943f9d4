"""repro.serve — the multi-process serving subsystem.

Layers, each usable on its own:

* :mod:`repro.serve.shm` — :class:`ShmSegmentFleet` partitions a frozen
  compact index (undirected or directed) into vertex-range shards, each
  hot shard one named shared-memory block (:class:`ShmIndexSegment`);
  workers attach read-only views **without copying** the label arrays.
* :mod:`repro.serve.pool` — :class:`WorkerPool` publishes the index as a
  fleet (one shard by default), routes each query batch by home shard
  across N spawn-based worker processes, reassembles answers in order,
  detects crashes and respawns slots (the budget bounds consecutive
  crashes, not uptime).
* :mod:`repro.serve.admission` — the admission core both query services
  share: validation, the point cache, overload and deadline checks,
  trace bookkeeping.
* :mod:`repro.serve.async_service` — :class:`AsyncQueryService`, the
  asyncio twin of :class:`repro.api.QueryService`: admission batching for
  thousands of concurrent awaiters, flushing one kernel call per batch
  onto the pool (or a counter directly when ``workers=0``).

:mod:`repro.serve.http` puts a stdlib-only HTTP endpoint on top, exposed
as ``python -m repro serve <index.npz> --workers N --port P``.

Exports resolve lazily (PEP 562): ``import repro`` must not pay for
asyncio/multiprocessing machinery that only servers use — the submodule
loads on first attribute access.
"""

from __future__ import annotations

import importlib

#: export name -> defining submodule (resolved on first access)
_LAZY_EXPORTS = {
    "AsyncQueryService": "repro.serve.async_service",
    "HttpFrontend": "repro.serve.http",
    "run_server": "repro.serve.http",
    "LRUCache": "repro.serve.cache",
    "FaultPlan": "repro.serve.faults",
    "NO_FAULTS": "repro.serve.faults",
    "FlushStats": "repro.serve.metrics",
    "LatencyHistogram": "repro.serve.metrics",
    "render_prometheus": "repro.serve.metrics",
    "SEGMENT_PREFIX": "repro.serve.shm",
    "ShmArrayBlock": "repro.serve.shm",
    "ShmIndexSegment": "repro.serve.shm",
    "ShmSegmentFleet": "repro.serve.shm",
    "GatherEvaluator": "repro.serve.router",
    "home_shards": "repro.serve.router",
    "split_by_home_shard": "repro.serve.router",
    "WorkerPool": "repro.serve.pool",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
