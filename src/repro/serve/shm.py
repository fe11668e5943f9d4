"""Shared-memory array blocks: publish numpy arrays to worker processes.

Flat numpy buffers are exactly the shape ``multiprocessing.shared_memory``
can expose **zero-copy** across process boundaries.  Three layers live here:

* :class:`ShmArrayBlock` — the general substrate: a dict of named arrays
  copied once into a single named shared-memory block, described by a
  small JSON-serialisable manifest.  Any process holding the manifest
  attaches ``np.ndarray`` views over the same pages (read-only by
  default; the parallel build backend attaches writable scratch blocks).
* :class:`ShmIndexSegment` — one frozen *index* published as a block:
  array naming and metadata reuse the unified persistence schema of
  :mod:`repro.core.store` (``pack_store``/``unpack_store``), so a segment
  manifest is essentially the existing ``.npz`` layout pointed at a
  shared-memory buffer instead of a zip member, and :attr:`~ShmIndexSegment.store`
  rebuilds a queryable :class:`~repro.core.compact.CompactLabelIndex`
  (or the directed variant) over the attached views.

* :class:`ShmSegmentFleet` — one index partitioned into vertex-range
  shards, each hot shard one :class:`ShmIndexSegment`; the unit the
  serving pool publishes (an unsharded index is a 1-shard fleet).

Lifecycle is explicit — :meth:`ShmArrayBlock.close` detaches,
:meth:`ShmArrayBlock.unlink` removes the block from the system — with a
context manager and an ``atexit`` safety net so published blocks never
outlive the process that created them.
"""

from __future__ import annotations

import atexit
import json
import secrets
import shutil
import tempfile
import weakref
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core import store as store_module
from repro.core.compact import CompactLabelIndex
from repro.digraph.labels import CompactDirectedLabelIndex, DirectedLabelIndex
from repro.errors import ServeError

__all__ = ["SEGMENT_PREFIX", "ShmArrayBlock", "ShmIndexSegment", "ShmSegmentFleet"]

#: Prefix of every shared-memory block this module creates; lets smoke
#: tests assert that a clean shutdown left nothing behind in ``/dev/shm``.
SEGMENT_PREFIX = "repro-seg-"

#: Manifest schema version (shared by blocks and segments).
_MANIFEST_VERSION = 1

#: Each array starts on a 64-byte boundary (cache-line aligned).
_ALIGN = 64

#: Blocks alive in this process; the atexit hook sweeps whatever the
#: owner forgot so /dev/shm never accumulates orphans.
_LIVE_SEGMENTS: "weakref.WeakSet[ShmArrayBlock]" = weakref.WeakSet()

#: Fleets alive in this process; swept before the blocks so a forgotten
#: owner also loses its spill directory, not just its shm blocks.
_LIVE_FLEETS: "weakref.WeakSet[ShmSegmentFleet]" = weakref.WeakSet()


def _cleanup_live_segments() -> None:  # pragma: no cover - exercised at exit
    for fleet in list(_LIVE_FLEETS):
        fleet._cleanup_silently()
    for segment in list(_LIVE_SEGMENTS):
        segment._cleanup_silently()


atexit.register(_cleanup_live_segments)


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _flat_store(counter: object) -> "CompactLabelIndex | CompactDirectedLabelIndex":
    """Extract the flat-array store behind any counter-ish object."""
    from repro.core.labels import LabelIndex

    if isinstance(counter, (CompactLabelIndex, CompactDirectedLabelIndex)):
        return counter
    if isinstance(counter, DirectedLabelIndex):
        return CompactDirectedLabelIndex.from_index(counter)
    if isinstance(counter, LabelIndex):
        frozen = store_module.freeze_labels(counter)
        if isinstance(frozen, CompactLabelIndex):
            return frozen
        raise ServeError(
            "tuple store holds path counts beyond int64; such an index "
            "cannot be packed into a shared-memory segment"
        )
    # index facades: PSPCIndex/HPSPCIndex expose .store, DirectedSPCIndex .labels
    inner = getattr(counter, "store", None)
    if inner is not None and inner is not counter:
        return _flat_store(inner)
    labels = getattr(counter, "labels", None)
    if isinstance(labels, (DirectedLabelIndex, CompactDirectedLabelIndex)):
        return _flat_store(labels)
    raise ServeError(
        f"cannot publish {type(counter).__name__} to shared memory; expected "
        "a compact/tuple label store, a directed label index, or an index "
        "facade wrapping one"
    )


def _restore_store(
    arrays: dict[str, np.ndarray], meta: dict
) -> "CompactLabelIndex | CompactDirectedLabelIndex":
    """Rebuild the manifest's store over attached (read-only) views.

    Delegates to the store layer's :func:`~repro.core.store.unpack_store`
    — the manifest really is the ``.npz`` schema pointed at shm buffers,
    so there is exactly one decoder for both.
    """
    store_kind = meta.get("store_kind")
    if store_kind not in ("compact", "directed-compact"):
        raise ServeError(f"unknown store kind {store_kind!r} in shm manifest")
    return store_module.unpack_store(arrays, meta)


class ShmArrayBlock:
    """Arbitrary named numpy arrays published once into one shared block.

    Create with :meth:`publish` (the owning side, which copies each array
    exactly once) or :meth:`attach` (any process holding the manifest —
    no array data is copied again).  :attr:`arrays` maps each name to an
    ``np.ndarray`` view over the shared pages; views are read-only on
    attach unless ``writable=True`` is requested (the parallel build
    backend's workers write disjoint shards of shared scratch arrays).

    Examples
    --------
    >>> import numpy as np
    >>> with ShmArrayBlock.publish({"xs": np.arange(4)}) as block:
    ...     twin = ShmArrayBlock.attach(block.manifest)
    ...     total = int(twin.arrays["xs"].sum())
    ...     twin.close()
    >>> total
    6
    """

    #: manifest ``format`` field; subclasses override to fence their schema.
    _MANIFEST_FORMAT = "repro-shm-block"

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: dict,
        owner: bool,
        writable: bool,
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self._manifest = manifest
        self._owner = owner
        self._unlinked = False
        self._arrays: dict[str, np.ndarray] | None = self._build_views(writable)
        _LIVE_SEGMENTS.add(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls,
        arrays: dict[str, np.ndarray],
        meta: dict | None = None,
        name: str | None = None,
    ) -> "ShmArrayBlock":
        """Copy ``arrays`` into a new named shared-memory block.

        ``meta`` is any JSON-serialisable dict carried verbatim in the
        manifest (the segment subclass stores the label-store metadata
        there).  The one copy happens here; every attach is zero-copy.
        """
        shm, manifest = cls._publish_block(arrays, meta, name)
        return cls(shm, manifest, owner=True, writable=True)

    @classmethod
    def _publish_block(
        cls,
        arrays: dict[str, np.ndarray],
        meta: dict | None,
        name: str | None,
    ) -> tuple[shared_memory.SharedMemory, dict]:
        """Lay out and copy ``arrays``; returns ``(shm, manifest)``."""
        layout: dict[str, dict] = {}
        offset = 0
        packed: list[tuple[int, np.ndarray]] = []
        for key, value in arrays.items():
            value = np.ascontiguousarray(value)
            layout[key] = {
                "dtype": value.dtype.str,
                "shape": list(value.shape),
                "offset": offset,
            }
            packed.append((offset, value))
            offset += _aligned(value.nbytes)
        total = max(offset, _ALIGN)
        shm_name = name or SEGMENT_PREFIX + secrets.token_hex(8)
        try:
            shm = shared_memory.SharedMemory(name=shm_name, create=True, size=total)
        except (OSError, ValueError) as exc:
            raise ServeError(f"cannot create shared-memory segment: {exc}") from exc
        for array_offset, value in packed:
            if value.nbytes == 0:
                continue
            target = np.ndarray(
                value.shape,
                dtype=value.dtype,
                buffer=shm.buf[array_offset : array_offset + value.nbytes],
            )
            target[...] = value
            del target
        manifest = {
            "format": cls._MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "shm_name": shm.name,
            "meta": dict(meta or {}),
            "arrays": layout,
            "nbytes": total,
        }
        return shm, manifest

    @classmethod
    def attach(cls, manifest: dict | str, writable: bool = False) -> "ShmArrayBlock":
        """Map an existing block and rebuild its array views.

        ``manifest`` is the dict (or its JSON encoding) produced by
        :meth:`publish` — typically shipped to a spawned worker as part of
        its start-up arguments.  No array data is copied.  Views are
        read-only unless ``writable=True``.
        """
        shm, manifest = cls._open_block(manifest)
        return cls(shm, manifest, owner=False, writable=writable)

    @classmethod
    def _open_block(
        cls, manifest: dict | str
    ) -> tuple[shared_memory.SharedMemory, dict]:
        """Validate a manifest and open its shared-memory block."""
        if isinstance(manifest, str):
            try:
                manifest = json.loads(manifest)
            except json.JSONDecodeError as exc:
                raise ServeError(f"corrupt shm manifest: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != cls._MANIFEST_FORMAT:
            raise ServeError(f"not a {cls._MANIFEST_FORMAT} manifest")
        if manifest.get("version", 0) > _MANIFEST_VERSION:
            raise ServeError(
                f"shm manifest version {manifest.get('version')!r} is newer "
                f"than this build understands ({_MANIFEST_VERSION})"
            )
        try:
            shm = shared_memory.SharedMemory(name=manifest["shm_name"])
        except (OSError, ValueError, KeyError) as exc:
            raise ServeError(
                f"cannot attach shm segment {manifest.get('shm_name')!r}: {exc}"
            ) from exc
        # no resource_tracker.unregister here: spawned attachers share the
        # publisher's tracker, whose registry is a set, so the attach-side
        # register is a no-op — while an attach-side unregister would drop
        # the publisher's entry and make its own unlink raise KeyError
        # inside the tracker process
        return shm, dict(manifest)

    def _build_views(self, writable: bool) -> dict[str, np.ndarray]:
        """Reconstruct the named ndarray views over the mapped block.

        Attached views default to read-only: one process scribbling on
        pages nobody expects to change would corrupt every other.  The
        build backend opts into ``writable`` for its scratch blocks, where
        workers write *disjoint* shards by construction.
        """
        assert self._shm is not None
        views: dict[str, np.ndarray] = {}
        for key, spec in self._manifest["arrays"].items():
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            start = int(spec["offset"])
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            view = np.ndarray(
                shape, dtype=dtype, buffer=self._shm.buf[start : start + nbytes]
            )
            view.flags.writeable = writable
            views[key] = view
        return views

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> ndarray views backed by the shared pages."""
        if self._arrays is None:
            raise ServeError("shm block is closed")
        return self._arrays

    @property
    def manifest(self) -> dict:
        """The JSON-serialisable block description workers attach from."""
        return self._manifest

    def manifest_json(self) -> str:
        """The manifest encoded as JSON (for environment/CLI hand-off)."""
        return json.dumps(self._manifest)

    @property
    def name(self) -> str:
        """Name of the underlying shared-memory block."""
        return str(self._manifest["shm_name"])

    @property
    def nbytes(self) -> int:
        """Size of the shared block in bytes."""
        return int(self._manifest["nbytes"])

    @property
    def owner(self) -> bool:
        """Whether this handle created (and must unlink) the block."""
        return self._owner

    @property
    def closed(self) -> bool:
        """Whether the local mapping has been released."""
        return self._shm is None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (idempotent).

        The array views become unusable; other attached processes are
        unaffected.  The system-wide block itself survives until the
        owner calls :meth:`unlink`.
        """
        if self._shm is None:
            return
        self._drop_views()
        try:
            self._shm.close()
        except BufferError as exc:  # pragma: no cover - caller kept a view
            raise ServeError(
                "cannot close shm segment: numpy views into it are still "
                "alive; drop all references to its arrays first"
            ) from exc
        self._shm = None

    def _drop_views(self) -> None:
        """Forget the ndarray views so the buffer can be released."""
        self._arrays = None

    def unlink(self) -> None:
        """Remove the block from the system (idempotent, owner-side).

        Attached processes keep working until they close; new attaches
        fail.  Safe to call after :meth:`close`.
        """
        if self._unlinked:
            return
        self._unlinked = True
        try:
            shared_memory.SharedMemory(name=self.name).unlink()
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as exc:  # pragma: no cover - platform specific
            raise ServeError(f"cannot unlink shm segment {self.name!r}: {exc}") from exc

    def _cleanup_silently(self) -> None:
        """Best-effort close (+ unlink when owning); never raises."""
        try:
            self._drop_views()
            if self._shm is not None:
                self._shm.close()
                self._shm = None
        except Exception:
            pass
        if self._owner:
            try:
                self.unlink()
            except Exception:
                pass

    def __enter__(self) -> "ShmArrayBlock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __del__(self) -> None:  # pragma: no cover - gc timing dependent
        self._cleanup_silently()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("owner" if self._owner else "attached")
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"{self.nbytes / 2**20:.2f}MB, {state})"
        )


class ShmIndexSegment(ShmArrayBlock):
    """One frozen index published in a named shared-memory block.

    The store-aware face of :class:`ShmArrayBlock`: :meth:`publish` packs
    any counter's flat label arrays through the store layer's
    :func:`~repro.core.store.pack_store`, and :attr:`store` rebuilds the
    queryable label store over the attached views — the publisher's
    arrays copied exactly once; every attached view reads the same pages.
    Store views are always read-only (queries never mutate labels).

    Serving publishes and attaches segments only through
    :class:`ShmSegmentFleet`, one segment per hot shard.
    """

    _MANIFEST_FORMAT = "repro-shm-segment"

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: dict,
        owner: bool,
        writable: bool = False,
    ) -> None:
        # stores are served read-only regardless of what the caller asked
        super().__init__(shm, manifest, owner, writable=False)
        self._store = _restore_store(self.arrays, manifest["meta"])

    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls, counter: object, name: str | None = None
    ) -> "ShmIndexSegment":
        """Copy a counter's flat label arrays into a new shared segment.

        ``counter`` may be a compact (or freezable tuple) label store, a
        directed label index, or any index facade wrapping one
        (:class:`~repro.core.index.PSPCIndex`,
        :class:`~repro.digraph.index.DirectedSPCIndex`, ...).  The one
        copy happens here; workers attach zero-copy.
        """
        store = _flat_store(counter)
        arrays, meta = store_module.pack_store(store)
        shm, manifest = cls._publish_block(arrays, meta, name)
        manifest["kind"] = meta.get("store_kind")
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(cls, manifest: dict | str, writable: bool = False) -> "ShmIndexSegment":
        """Map an existing segment read-only and rebuild its store view.

        Segments refuse ``writable=True`` rather than ignoring it: label
        stores are served immutable by contract (use a plain
        :class:`ShmArrayBlock` for mutable shared scratch).
        """
        if writable:
            raise ServeError(
                "index segments are always read-only; attach a ShmArrayBlock "
                "for writable shared arrays"
            )
        shm, manifest = cls._open_block(manifest)
        return cls(shm, manifest, owner=False)

    # ------------------------------------------------------------------
    @property
    def store(self) -> "CompactLabelIndex | CompactDirectedLabelIndex":
        """The queryable label store backed by the shared pages."""
        if self._store is None:
            raise ServeError("shm segment is closed")
        return self._store

    @property
    def directed(self) -> bool:
        """Whether the published store answers asymmetric (s -> t) queries."""
        return self._manifest.get("kind") == "directed-compact"

    def _drop_views(self) -> None:
        self._store = None
        super()._drop_views()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("owner" if self._owner else "attached")
        return (
            f"ShmIndexSegment(name={self.name!r}, kind={self._manifest.get('kind')!r}, "
            f"{self.nbytes / 2**20:.2f}MB, {state})"
        )


class ShmSegmentFleet:
    """One index partitioned into k shards: hot shards in shm, cold on disk.

    The multi-segment face of :class:`ShmIndexSegment`.  :meth:`publish`
    partitions a counter through the store layer's
    :func:`~repro.core.store.partition_store`, spills *every* shard as an
    uncompressed ``"shard"`` container (so any process can reach any shard
    through ``read_shard(mmap=True)`` at page-fault cost), and publishes
    the non-``cold`` shards as individual shared-memory segments.  The
    whole set is described by one versioned **fleet manifest** built by
    :func:`~repro.core.store.build_fleet_manifest` — the schema lives in
    the store layer, this class only carries it.

    :meth:`attach` maps a subset of the published segments hot (a worker
    typically attaches only the shard it owns) and opens everything else
    lazily from the spill files, so a worker's resident shm is one shard
    while the full index stays addressable.

    If publishing shard ``j`` of ``k`` fails, shards ``0..j-1`` are
    unlinked and the spill files removed before the error propagates — a
    half-published fleet never outlives its constructor.
    """

    def __init__(
        self,
        manifest: dict,
        segments: dict[int, ShmIndexSegment],
        owner: bool,
        spill_dir: Path | None,
        owns_spill: bool,
    ) -> None:
        self._manifest = manifest
        self._segments = segments
        self._owner = owner
        self._spill_dir = spill_dir
        self._owns_spill = owns_spill
        self._stores: dict[int, CompactLabelIndex | CompactDirectedLabelIndex] = {}
        self._cold_opened: dict[int, CompactLabelIndex | CompactDirectedLabelIndex] = {}
        self._closed = False
        self._unlinked = False
        _LIVE_FLEETS.add(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls,
        counter: object,
        shards: int,
        cold: Iterable[int] = (),
        spill_dir: str | Path | None = None,
    ) -> "ShmSegmentFleet":
        """Partition ``counter`` into ``shards`` pieces and publish the fleet.

        ``cold`` names shard indices that stay out of shared memory
        entirely (reachable only through their mmap spill files) — the
        switch that lets a fleet's total label bytes exceed what any one
        worker maps.  ``spill_dir`` overrides the temporary directory the
        per-shard ``.npz`` files land in (the fleet owns and removes a
        directory it created itself).
        """
        store = _flat_store(counter)
        parts, bounds = store_module.partition_store(store, shards)
        cold_set = {int(i) for i in cold}
        if not all(0 <= i < shards for i in cold_set):
            raise ServeError(
                f"cold shard indices {sorted(cold_set)} out of range for "
                f"{shards} shards"
            )
        if spill_dir is None:
            directory = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
            owns_spill = True
        else:
            directory = Path(spill_dir)
            directory.mkdir(parents=True, exist_ok=True)
            owns_spill = False
        token = secrets.token_hex(8)
        segments: dict[int, ShmIndexSegment] = {}
        entries: list[dict] = []
        try:
            for i, part in enumerate(parts):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                npz_path = directory / f"shard-{i:03d}.npz"
                entry = store_module.write_shard(
                    npz_path,
                    part,
                    vertex_lo=lo,
                    vertex_hi=hi,
                    shard_index=i,
                    shard_count=shards,
                    compress=False,
                )
                entry["npz"] = str(npz_path)
                if i in cold_set:
                    entry["shm"] = None
                    entry["hot"] = False
                else:
                    segment = ShmIndexSegment.publish(
                        part, name=f"{SEGMENT_PREFIX}{token}-s{i}"
                    )
                    segments[i] = segment
                    entry["shm"] = segment.manifest
                    entry["hot"] = True
                entries.append(entry)
            manifest = store_module.build_fleet_manifest(
                n=store.n,
                store_kind=store.kind,
                bounds=bounds,
                shards=entries,
            )
        except BaseException:
            # partial-publish rollback: shards 0..j-1 must not outlive a
            # failure at shard j — unlink the segments and drop the spill
            for segment in segments.values():
                segment._cleanup_silently()
            cls._remove_spill(directory, owns_spill)
            raise
        return cls(manifest, segments, owner=True, spill_dir=directory, owns_spill=owns_spill)

    @classmethod
    def attach(
        cls, manifest: dict | str, hot: Sequence[int] | None = None
    ) -> "ShmSegmentFleet":
        """Attach to a published fleet, mapping only selected shards hot.

        ``hot=None`` attaches every shard the publisher put in shared
        memory; an explicit list attaches only those (a worker passes its
        own shard).  Shards not attached hot — whether cold-published or
        simply not requested — are opened lazily from their spill files
        with ``mmap=True`` on first use.
        """
        manifest = store_module.check_fleet_manifest(manifest)
        if hot is None:
            wanted = manifest.get("hot")
            hot = [int(i) for i in wanted] if wanted is not None else None
        published = {
            int(entry["shard"])
            for entry in manifest["shards"]
            if entry.get("shm") is not None
        }
        selected = published if hot is None else (published & {int(i) for i in hot})
        segments: dict[int, ShmIndexSegment] = {}
        try:
            for entry in manifest["shards"]:
                i = int(entry["shard"])
                if i in selected:
                    segments[i] = ShmIndexSegment.attach(entry["shm"])
        except BaseException:
            for segment in segments.values():
                segment._cleanup_silently()
            raise
        return cls(manifest, segments, owner=False, spill_dir=None, owns_spill=False)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> dict:
        """The fleet manifest (see :func:`~repro.core.store.build_fleet_manifest`)."""
        return self._manifest

    def manifest_json(self) -> str:
        """The manifest encoded as JSON (for environment/CLI hand-off)."""
        return json.dumps(self._manifest)

    @property
    def bounds(self) -> np.ndarray:
        """Shard boundaries as an int64 array of length ``shard_count + 1``."""
        return np.asarray(self._manifest["bounds"], dtype=np.int64)

    @property
    def n(self) -> int:
        """Number of indexed vertices across the whole fleet."""
        return int(self._manifest["n"])

    @property
    def shard_count(self) -> int:
        return len(self._manifest["shards"])

    @property
    def directed(self) -> bool:
        """Whether the fleet answers asymmetric (s -> t) queries."""
        return self._manifest.get("store_kind") == "directed-compact"

    @property
    def owner(self) -> bool:
        """Whether this handle published (and must unlink) the fleet."""
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def hot_shards(self) -> tuple[int, ...]:
        """Shard indices this process has mapped in shared memory."""
        return tuple(sorted(self._segments))

    @property
    def total_label_bytes(self) -> int:
        """Label payload bytes across every shard (hot and cold)."""
        return sum(int(entry["nbytes"]) for entry in self._manifest["shards"])

    @property
    def attached_bytes(self) -> int:
        """Shared-memory bytes actually mapped by this handle."""
        return sum(segment.nbytes for segment in self._segments.values())

    def shard_entry(self, shard: int) -> dict:
        """The manifest entry of one shard (range, bytes, checksum, ...)."""
        entries = self._manifest["shards"]
        if not 0 <= shard < len(entries):
            raise ServeError(
                f"shard {shard} out of range for a {len(entries)}-shard fleet"
            )
        return entries[shard]

    def store_for(
        self, shard: int
    ) -> "CompactLabelIndex | CompactDirectedLabelIndex":
        """The queryable store of one shard.

        Hot shards resolve to their attached shm segment's store; every
        other shard is opened from its spill file on first use
        (``read_shard(mmap=True)``, so cold labels cost page faults) and
        cached for the fleet's lifetime.
        """
        if self._closed:
            raise ServeError("shm fleet is closed")
        cached = self._stores.get(shard)
        if cached is not None:
            return cached
        entry = self.shard_entry(shard)
        segment = self._segments.get(shard)
        if segment is not None:
            store = segment.store
        else:
            npz = entry.get("npz")
            if npz is None:
                raise ServeError(
                    f"shard {shard} is not attached and has no spill file"
                )
            store, _ = store_module.read_shard(npz, mmap=True)
            self._cold_opened[shard] = store
        self._stores[shard] = store
        return store

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every mapping this handle holds (idempotent).

        Hot segments detach, lazily-opened cold stores drop their memory
        maps.  The system-wide blocks and spill files survive until the
        owner calls :meth:`unlink`.
        """
        if self._closed:
            return
        self._closed = True
        self._stores.clear()
        for store in self._cold_opened.values():
            store_module.close_store(store)
        self._cold_opened.clear()
        for segment in self._segments.values():
            segment.close()

    def unlink(self) -> None:
        """Remove the fleet from the system (idempotent, owner-side).

        Unlinks every published shm segment and removes the spill
        directory when the fleet created it.
        """
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments.values():
            segment.unlink()
        if self._spill_dir is not None:
            self._remove_spill(self._spill_dir, self._owns_spill)

    @staticmethod
    def _remove_spill(directory: Path, owns_dir: bool) -> None:
        """Delete the per-shard spill files (and the directory if ours)."""
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)
            return
        for npz in directory.glob("shard-*.npz"):
            try:
                npz.unlink()
            except OSError:  # pragma: no cover - already gone / perms
                pass

    def _cleanup_silently(self) -> None:
        """Best-effort close (+ unlink when owning); never raises."""
        try:
            self._closed = True
            self._stores.clear()
            for store in self._cold_opened.values():
                store_module.close_store(store)
            self._cold_opened.clear()
            for segment in self._segments.values():
                segment._cleanup_silently()
        except Exception:
            pass
        if self._owner:
            try:
                self.unlink()
            except Exception:
                pass

    def __enter__(self) -> "ShmSegmentFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __del__(self) -> None:  # pragma: no cover - gc timing dependent
        self._cleanup_silently()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("owner" if self._owner else "attached")
        return (
            f"ShmSegmentFleet(shards={self.shard_count}, "
            f"hot={list(self.hot_shards)}, "
            f"{self.total_label_bytes / 2**20:.2f}MB total, {state})"
        )
