"""Core PSPC machinery, organised as a store/engine architecture.

Three layers serve every SPC query:

* **Builders** (:mod:`~repro.core.pspc`, :mod:`~repro.core.hpspc`) produce
  the canonical ESPC label set as a tuple-based
  :class:`~repro.core.labels.LabelIndex`.
* **Stores** hold the finished labels behind the
  :class:`~repro.core.store.LabelStore` protocol: the tuple index for
  construction and the overflow regime, and the numpy-packed
  :class:`~repro.core.compact.CompactLabelIndex` as the default serving
  representation.  One versioned ``.npz`` container (see
  :mod:`repro.core.store`) persists every store kind.
* **The engine** (:class:`~repro.core.engine.QueryEngine`) dispatches each
  query to the kernel matching the store — the two-pointer tuple merge or
  the vectorized array kernels, including a batch kernel that evaluates
  thousands of pairs without per-pair Python overhead.

:class:`~repro.core.index.PSPCIndex` is the facade gluing the layers
together; landmarks, scheduling, parallel simulation and the auditors
round out the subsystem.
"""

from repro.core.compact import CompactLabelIndex
from repro.core.dynamic import DynamicSPCIndex
from repro.core.engine import QueryEngine, query_batch_compact
from repro.core.hpspc import HPSPCIndex
from repro.core.index import BuildConfig, PSPCIndex
from repro.core.labels import ENTRY_BYTES, LabelEntry, LabelIndex
from repro.core.landmarks import LandmarkIndex, build_landmark_index, select_landmarks
from repro.core.parallel import (
    SerialBackend,
    ThreadBackend,
    build_speedup_curve,
    query_speedup_curve,
    simulated_build_units,
    simulated_query_units,
)
from repro.core.pspc import PARADIGMS, build_pspc
from repro.core.queries import (
    SPCResult,
    batch_query,
    merge_labels,
    query_costs,
    spc_query,
    spc_query_with_cost,
)
from repro.core.scheduling import (
    SCHEDULES,
    DynamicCostSchedule,
    StaticNodeOrderSchedule,
    cost_function_estimate,
    get_schedule,
)
from repro.core.stats import BuildStats, PhaseTimer
from repro.core.store import (
    FORMAT_VERSION,
    LabelStore,
    freeze_labels,
    load_labels,
    peek_meta,
)
from repro.core.verify import (
    audit_canonical,
    audit_full,
    audit_queries,
    audit_structure,
    verify_counter,
)

__all__ = [
    "PSPCIndex",
    "HPSPCIndex",
    "CompactLabelIndex",
    "DynamicSPCIndex",
    "QueryEngine",
    "query_batch_compact",
    "LabelStore",
    "FORMAT_VERSION",
    "freeze_labels",
    "load_labels",
    "peek_meta",
    "audit_structure",
    "audit_canonical",
    "audit_queries",
    "audit_full",
    "verify_counter",
    "BuildConfig",
    "LabelIndex",
    "LabelEntry",
    "ENTRY_BYTES",
    "build_pspc",
    "PARADIGMS",
    "SPCResult",
    "merge_labels",
    "spc_query",
    "spc_query_with_cost",
    "batch_query",
    "query_costs",
    "LandmarkIndex",
    "build_landmark_index",
    "select_landmarks",
    "SerialBackend",
    "ThreadBackend",
    "simulated_build_units",
    "simulated_query_units",
    "build_speedup_curve",
    "query_speedup_curve",
    "StaticNodeOrderSchedule",
    "DynamicCostSchedule",
    "cost_function_estimate",
    "get_schedule",
    "SCHEDULES",
    "BuildStats",
    "PhaseTimer",
]
