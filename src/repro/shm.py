"""Zero-copy publication of compiled arrays through POSIX shared memory.

The warm worker pool (:mod:`repro.pool`, ROADMAP item 3) ships each job
group's :class:`~repro.platform.compiled.CompiledPlatform` arrays to the
workers *once*, as a named ``multiprocessing.shared_memory`` segment, so a
worker attaches read-only views instead of recompiling the platform (or
deserializing a JSON edge list) per batch.  This module holds the generic
machinery, independent of what the arrays mean:

* :func:`pack_arrays` — copy a named mapping of contiguous ndarrays into
  one fresh segment, back to back at 64-byte-aligned offsets, and return
  the segment plus a picklable layout description;
* :func:`attach_arrays` — open a segment by name and rebuild the read-only
  ndarray views the layout describes (zero copies);
* :class:`SharedSegmentRegistry` — the parent-side owner of published
  segments: memoizes by caller key, refcounts in-flight uses, evicts
  least-recently-used idle segments past a bound, and **unlinks everything
  it ever created** on :meth:`~SharedSegmentRegistry.close`, at garbage
  collection and at interpreter exit.

Lifecycle contract (the part that keeps ``/dev/shm`` clean):

* the *creator* (the registry, living in the pool's parent process) is the
  only party that ever calls ``unlink``; a ``weakref.finalize`` hook makes
  that happen even when the pool is abandoned without a clean shutdown;
* *attachers* (pool workers) only ever map and close.  A worker killed by
  ``SIGKILL`` — e.g. an injected crash fault — simply drops its mapping
  with the process; the name lives in the parent and is unlinked there, so
  crashed workers can never leak segments;
* attachers open the segment untracked on Python ≥ 3.13; on earlier
  versions the attach-side ``resource_tracker`` registration is benign by
  construction — workers are spawned children sharing the creator's
  tracker process, so the duplicate registration dedupes and doubles as a
  last-resort unlink should the whole tree die before cleanup (see
  :func:`_attach_segment`).

On Linux an ``unlink`` only removes the *name*: existing mappings stay
valid until their holders close them, so the registry may retire a segment
while a worker still holds views into it — the memory is reclaimed when
both sides are done.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Any, Hashable, Mapping

import numpy as np

from .exceptions import ExperimentError

__all__ = [
    "SEGMENT_PREFIX",
    "pack_arrays",
    "attach_arrays",
    "attach_arrays_cached",
    "SharedSegmentRegistry",
]

#: Prefix of every segment this library creates; lifecycle tests scan
#: ``/dev/shm`` for it to prove nothing leaked.
SEGMENT_PREFIX = "repro_shm"

_ALIGNMENT = 64  # cache-line alignment for every array start


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(6)}"


def pack_arrays(
    arrays: Mapping[str, np.ndarray],
) -> tuple[shared_memory.SharedMemory, dict[str, Any]]:
    """Copy ``arrays`` into one fresh shared segment; return it with its layout.

    The layout maps each array name to ``{dtype, shape, offset}`` and is
    plain JSON-compatible data, so it can travel to workers inside any task
    payload.  The caller owns the returned segment (close + unlink).
    """
    if not arrays:
        raise ExperimentError("pack_arrays needs at least one array")
    layout: dict[str, Any] = {}
    staged: list[tuple[np.ndarray, int]] = []
    offset = 0
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        layout[name] = {
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "offset": offset,
        }
        staged.append((contiguous, offset))
        offset = _aligned(offset + contiguous.nbytes)
    segment = shared_memory.SharedMemory(
        name=_new_segment_name(), create=True, size=max(offset, 1)
    )
    for contiguous, start in staged:
        destination = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf, offset=start
        )
        destination[...] = contiguous
    return segment, {"arrays": layout, "nbytes": max(offset, 1)}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without adopting its lifecycle.

    Python 3.13 grew ``track=False`` for exactly this.  Earlier versions
    register every attach with the ``resource_tracker`` — harmless *here*,
    because pool workers are spawned children sharing the creator's tracker
    process: the duplicate registration dedupes (the tracker keeps a set),
    the creator's eventual ``unlink`` unregisters the name once, and a
    still-registered name at tracker shutdown is unlinked as a last-resort
    safety net.  Explicitly unregistering instead would *remove the
    creator's registration* through the shared tracker and break that net.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def attach_arrays(
    name: str, layout: Mapping[str, Any]
) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Map segment ``name`` and rebuild the read-only views ``layout`` describes.

    The returned views alias the shared mapping directly (zero copies) and
    are marked non-writable: a worker scribbling on a shared platform would
    corrupt every sibling's arrays at once.  Keep the returned segment
    object alive as long as any view is in use.
    """
    segment = _attach_segment(name)
    views: dict[str, np.ndarray] = {}
    for key, spec in layout["arrays"].items():
        view = np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=segment.buf,
            offset=spec["offset"],
        )
        view.flags.writeable = False
        views[key] = view
    return segment, views


# --------------------------------------------------------------------------- #
# Worker-side attach cache
# --------------------------------------------------------------------------- #
#: name -> (segment, views); keeps mappings (and therefore views handed to
#: callers) alive for the worker's lifetime.  Bounded opportunistically: a
#: mapping whose views are still referenced anywhere cannot be closed
#: (``BufferError``) and is simply kept.
_ATTACH_CACHE: "OrderedDict[str, tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]]" = OrderedDict()
_ATTACH_CACHE_LIMIT = 128
_ATTACH_LOCK = threading.Lock()


def attach_arrays_cached(name: str, layout: Mapping[str, Any]) -> dict[str, np.ndarray]:
    """Memoized :func:`attach_arrays`: one mapping per segment per process."""
    with _ATTACH_LOCK:
        hit = _ATTACH_CACHE.get(name)
        if hit is not None:
            _ATTACH_CACHE.move_to_end(name)
            return hit[1]
    segment, views = attach_arrays(name, layout)
    with _ATTACH_LOCK:
        _ATTACH_CACHE[name] = (segment, views)
        if len(_ATTACH_CACHE) > _ATTACH_CACHE_LIMIT:
            for stale in list(_ATTACH_CACHE)[: _ATTACH_CACHE_LIMIT // 2]:
                old_segment, _ = _ATTACH_CACHE[stale]
                try:
                    old_segment.close()
                except BufferError:
                    continue  # views still alive somewhere; keep the mapping
                _ATTACH_CACHE.pop(stale, None)
    return views


# --------------------------------------------------------------------------- #
# Registry (creator side)
# --------------------------------------------------------------------------- #
def _dispose_segment(segment: shared_memory.SharedMemory) -> None:
    """Unlink and close one owned segment, tolerating every partial state."""
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except OSError:  # pragma: no cover - platform-specific unlink quirks
        pass
    try:
        segment.close()
    except BufferError:  # live views in this process; mapping dies with them
        pass


def _dispose_all(entries: "OrderedDict[Hashable, list[Any]]") -> None:
    """Finalizer target: unlink every segment still owned (crash path)."""
    while entries:
        _, entry = entries.popitem()
        _dispose_segment(entry[0])


class SharedSegmentRegistry:
    """Parent-side owner of the published platform segments.

    ``publish(key, arrays)`` packs the arrays once per ``key`` and returns
    the segment name plus layout for the task payload; repeat publications
    of the same key are hits.  :meth:`publish_pinned` / :meth:`release`
    refcount in-flight uses, so the LRU eviction (past ``max_segments``)
    never unlinks a segment a queued task still references; the pin is
    taken in the same locked step as the publish, so no concurrent publish
    can evict the segment in between.  :meth:`close` unlinks every
    owned segment; a ``weakref.finalize`` hook runs the same cleanup when
    the registry is garbage-collected or the interpreter exits, which is
    what keeps ``/dev/shm`` clean on the crash path — workers (attachers)
    never unlink, so a SIGKILLed worker cannot leak a name.
    """

    def __init__(self, max_segments: int = 64) -> None:
        if max_segments < 1:
            raise ExperimentError(f"max_segments must be >= 1, got {max_segments}")
        self.max_segments = max_segments
        # Re-entrant: publish_pinned holds it across its call to publish.
        self._lock = threading.RLock()
        # key -> [segment, layout, refcount]; insertion order is LRU order.
        self._entries: "OrderedDict[Hashable, list[Any]]" = OrderedDict()
        self._closed = False
        self.published = 0
        self.hits = 0
        self.evictions = 0
        self._finalizer = weakref.finalize(self, _dispose_all, self._entries)

    # ------------------------------------------------------------------ #
    def publish(
        self, key: Hashable, arrays: Mapping[str, np.ndarray]
    ) -> tuple[str, dict[str, Any]]:
        """The ``(segment name, layout)`` of ``arrays`` under ``key``.

        Packs on first sight of the key, then serves the memoized segment;
        arrays are assumed immutable for a given key (platform keys embed
        the mutation-epoch-stable canonical payload, so this holds).  The
        returned segment is never the one this call evicts, even when
        every other entry is pinned.
        """
        with self._lock:
            if self._closed:
                raise ExperimentError("shared-segment registry is closed")
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[0].name, entry[1]
            segment, layout = pack_arrays(arrays)
            self._entries[key] = [segment, layout, 0]
            self.published += 1
            self._evict_idle(keep=key)
            return segment.name, layout

    def publish_pinned(
        self, key: Hashable, arrays: Mapping[str, np.ndarray]
    ) -> tuple[str, dict[str, Any]]:
        """:meth:`publish` and pin the segment, as one locked step.

        The caller owns one pin and must :meth:`release` it once the task
        referencing the segment has settled.
        """
        with self._lock:
            name, layout = self.publish(key, arrays)
            self._entries[key][2] += 1
            return name, layout

    def release(self, key: Hashable) -> None:
        """Drop one pin (no-op for unknown / already-evicted keys)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[2] > 0:
                entry[2] -= 1

    def _evict_idle(self, keep: Hashable) -> None:
        """LRU-evict unpinned segments other than ``keep`` past the bound."""
        while len(self._entries) > self.max_segments:
            victim = next(
                (
                    k
                    for k, e in self._entries.items()
                    if e[2] == 0 and k != keep
                ),
                None,
            )
            if victim is None:
                return  # everything is pinned; stay over the bound for now
            entry = self._entries.pop(victim)
            _dispose_segment(entry[0])
            self.evictions += 1

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def total_bytes(self) -> int:
        """Bytes held by the currently-owned segments."""
        with self._lock:
            return sum(entry[1]["nbytes"] for entry in self._entries.values())

    def stats(self) -> dict[str, Any]:
        """Snapshot for ``cache_stats()`` / ``/statz``."""
        with self._lock:
            return {
                "segments": len(self._entries),
                "bytes": sum(e[1]["nbytes"] for e in self._entries.values()),
                "published": self.published,
                "hits": self.hits,
                "evictions": self.evictions,
                "pinned": sum(e[2] for e in self._entries.values()),
            }

    def close(self) -> None:
        """Unlink every owned segment now (idempotent)."""
        with self._lock:
            self._closed = True
            while self._entries:
                _, entry = self._entries.popitem()
                _dispose_segment(entry[0])
        self._finalizer.detach()
