"""Result cache for served traversals.

Keyed by ``(graph fingerprint, root)`` so entries can never outlive the
graph they were computed on: reloading a graph changes the fingerprint
and :meth:`ResultCache.invalidate` drops the stale generation.  Eviction
is LRU within a bounded capacity plus TTL expiry (checked lazily on
read), with every outcome counted in the shared metric families:

==========================  ============================================
family                      meaning
==========================  ============================================
``serve_cache_hits``        reads answered from cache
``serve_cache_misses``      reads that fell through to the engine
``serve_cache_evictions``   entries dropped, labeled ``reason=``
                            ``lru`` / ``ttl`` / ``invalidation``
``serve_cache_size``        current resident entries (gauge)
``serve_cache_partial_invalidations``
                            entries evicted by *partial* invalidation
                            (root-set or delta-digest), a subset of the
                            ``reason="invalidation"`` evictions
==========================  ============================================

Dynamic graphs don't need to drop the whole generation: every entry
carries a **touched-vertex digest** — a 1024-bit Bloom-style signature
of the vertices its parent tree reaches (set at :meth:`ResultCache.put`
from the parent array, or from an explicit ``touched`` set).  When an
update batch lands, :meth:`ResultCache.apply_delta` intersects each
entry's digest with the digest of the delta's touched vertices: entries
that intersect are evicted, entries that provably cannot have changed
(no touched vertex is reachable from their root, so neither an inserted
nor a deleted edge can alter the tree) are *re-keyed* to the repaired
graph's fingerprint and keep serving.  False positives in the digest
only evict more than necessary — never less.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.partition import mix64
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "ResultCache",
    "CacheStats",
    "fingerprint_graph",
    "touched_digest",
]

#: Words in a touched-vertex digest (16 x 64 = 1024 bits).
_DIGEST_WORDS = 16
_DIGEST_BITS = _DIGEST_WORDS * 64


def touched_digest(vertices) -> np.ndarray:
    """1024-bit Bloom-style signature of a vertex set.

    One hashed bit per vertex (splitmix64 of the id, mod 1024), packed
    into 16 ``uint64`` words.  Two sets with a common vertex always have
    intersecting digests; disjoint sets intersect only by hash collision
    — which makes digest intersection a *conservative* staleness test.
    """
    v = np.asarray(vertices, dtype=np.int64)
    hit = np.zeros(_DIGEST_BITS, dtype=bool)
    if v.size:
        hit[mix64(v.astype(np.uint64)) % np.uint64(_DIGEST_BITS)] = True
    # Bit ``b`` of word ``w`` is ``hit[64 * w + b]``: little-endian bit
    # order within each byte, little-endian bytes within each word.
    return np.packbits(hit, bitorder="little").view("<u8").astype(np.uint64)


def _digests_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.any(a & b))


def fingerprint_graph(part) -> str:
    """sha256 identity of a partitioned graph.

    Hashes what determines traversal results: the vertex count, the
    degree vector, the mesh shape, and the class thresholds' effect
    (the per-class counts).  Cheap relative to a partition build, and
    any graph reload that could change a parent tree changes it.
    """
    h = hashlib.sha256()
    h.update(
        np.array(
            [
                part.num_vertices,
                part.total_arcs,
                part.mesh.rows,
                part.mesh.cols,
                part.num_e,
                part.num_h,
            ],
            dtype=np.int64,
        ).tobytes()
    )
    h.update(np.ascontiguousarray(part.degrees, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Counters mirrored by :class:`ResultCache` for quick inspection."""

    hits: int = 0
    misses: int = 0
    evicted_lru: int = 0
    evicted_ttl: int = 0
    evicted_invalidation: int = 0
    #: Evictions by root-set or delta-digest invalidation (a subset of
    #: ``evicted_invalidation``).
    partial_invalidations: int = 0
    #: Entries carried across a graph delta by :meth:`ResultCache.apply_delta`.
    rekeyed: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Entry:
    __slots__ = ("parent", "created_at", "digest")

    def __init__(
        self, parent: np.ndarray, created_at: float, digest: np.ndarray
    ) -> None:
        self.parent = parent
        self.created_at = created_at
        self.digest = digest


class ResultCache:
    """Bounded LRU + TTL cache of parent trees, keyed by
    ``(graph fingerprint, root)``."""

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float = math.inf,
        *,
        clock=time.monotonic,
        metrics=NULL_METRICS,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.capacity = int(capacity)
        self.ttl_seconds = float(ttl_seconds)
        self._clock = clock
        self._metrics = metrics
        self._entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------

    def get(self, fingerprint: str, root: int) -> np.ndarray | None:
        """The cached parent tree, or ``None`` (miss or TTL-expired)."""
        key = (fingerprint, int(root))
        entry = self._entries.get(key)
        if entry is not None and (
            self._clock() - entry.created_at >= self.ttl_seconds
        ):
            del self._entries[key]
            self._count_eviction("ttl")
            entry = None
        if entry is None:
            self.stats.misses += 1
            self._metrics.counter("serve_cache_misses").inc()
            self._sync_size()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self._metrics.counter("serve_cache_hits").inc()
        return entry.parent

    def put(
        self,
        fingerprint: str,
        root: int,
        parent: np.ndarray,
        touched=None,
    ) -> None:
        """Insert (or refresh) one result; evicts LRU past capacity.

        ``touched`` is the vertex set feeding the entry's staleness
        digest; by default it is the parent tree itself (every vertex
        with a parent, i.e. everything reachable from ``root``), which
        is exactly the set an edge update must intersect to be able to
        change this result.
        """
        key = (fingerprint, int(root))
        stored = np.ascontiguousarray(parent)
        stored.setflags(write=False)
        if touched is None:
            touched = np.flatnonzero(stored >= 0)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = _Entry(
            stored, self._clock(), touched_digest(touched)
        )
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._count_eviction("lru")
        self._sync_size()

    def invalidate(
        self, fingerprint: str | None = None, roots=None
    ) -> int:
        """Drop entries of one graph generation (or all of them).

        With ``roots`` (an iterable of vertex ids), drops only the
        given generation's entries for those roots — partial
        invalidation, counted into
        ``serve_cache_partial_invalidations``.  Called on graph reload
        in its original one-argument form; returns the number of
        dropped entries.
        """
        partial = False
        if fingerprint is None:
            if roots is not None:
                raise ValueError("roots requires a fingerprint")
            dropped = len(self._entries)
            self._entries.clear()
        elif roots is None:
            stale = [k for k in self._entries if k[0] == fingerprint]
            dropped = len(stale)
            for k in stale:
                del self._entries[k]
        else:
            partial = True
            stale = [
                (fingerprint, int(r))
                for r in roots
                if (fingerprint, int(r)) in self._entries
            ]
            dropped = len(stale)
            for k in stale:
                del self._entries[k]
        for _ in range(dropped):
            self._count_eviction("invalidation")
        if partial and dropped:
            self._count_partial(dropped)
        self._sync_size()
        return dropped

    def apply_delta(
        self, old_fingerprint: str, new_fingerprint: str, touched
    ) -> tuple[int, int]:
        """Carry a graph generation across an edge-update delta.

        ``touched`` is the delta's touched-vertex set (endpoints of
        inserted, deleted and migrated arcs plus re-classified
        vertices).  Old-generation entries whose digest intersects the
        delta's are evicted — the update may reach their tree.  The
        rest provably cannot have changed (no touched vertex is
        reachable from their root) and are re-keyed to
        ``new_fingerprint``, preserving LRU order and ages.  Returns
        ``(evicted, rekeyed)``.
        """
        delta_digest = touched_digest(touched)
        entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        evicted = rekeyed = 0
        for (fp, root), entry in self._entries.items():
            if fp != old_fingerprint:
                entries[(fp, root)] = entry
            elif _digests_intersect(entry.digest, delta_digest):
                evicted += 1
            else:
                entries[(new_fingerprint, root)] = entry
                rekeyed += 1
        self._entries = entries
        for _ in range(evicted):
            self._count_eviction("invalidation")
        if evicted:
            self._count_partial(evicted)
        self.stats.rekeyed += rekeyed
        self._sync_size()
        return evicted, rekeyed

    # ------------------------------------------------------------------

    def _count_eviction(self, reason: str) -> None:
        setattr(
            self.stats,
            f"evicted_{reason}",
            getattr(self.stats, f"evicted_{reason}") + 1,
        )
        self._metrics.counter("serve_cache_evictions", reason=reason).inc()

    def _count_partial(self, count: int) -> None:
        self.stats.partial_invalidations += count
        self._metrics.counter("serve_cache_partial_invalidations").inc(count)

    def _sync_size(self) -> None:
        self.stats.size = len(self._entries)
        self._metrics.gauge("serve_cache_size").set(len(self._entries))
