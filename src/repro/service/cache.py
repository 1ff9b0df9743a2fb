"""A shared LRU cache of built random-access indexes.

Keying
------
A cache entry is addressed by ``(database, database version, query key)``:

* the *database* is the :class:`~repro.database.database.Database` object
  itself (identity hash) — keeping it in the key pins it alive for the
  entry's lifetime, so a key can never be recycled by a later allocation
  the way an ``id()`` token could;
* the *database version* is the database's monotone mutation counter —
  any ``insert`` / ``delete`` / ``replace`` bumps it, so entries built
  against older contents can never be returned again;
* the *query key* is the canonicalized structural form produced by
  :func:`canonical_query_key`, making the cache insensitive to how the
  query text was formatted or what the query object instance is.

Canonicalization is deliberately conservative: it preserves atom order and
variable names, because both influence the join-tree construction and
hence the *enumeration order* of the resulting index. Two requests that
canonicalize equal are guaranteed to build byte-for-byte interchangeable
indexes; alpha-equivalent queries that would enumerate in a different
order hash apart, which costs a rebuild but never serves answers in the
wrong order.

Doctest
-------
>>> cache = IndexCache(capacity=2)
>>> cache.get_or_build("a", lambda: "index-a")
'index-a'
>>> cache.get_or_build("a", lambda: "never called")
'index-a'
>>> cache.get_or_build("b", lambda: "index-b")
'index-b'
>>> cache.get_or_build("c", lambda: "index-c")  # evicts "a" (LRU)
'index-c'
>>> sorted(cache.keys())
['b', 'c']
>>> (cache.hits, cache.misses, cache.evictions)
(1, 3, 1)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from repro.query.atoms import Constant, Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import UnionOfConjunctiveQueries


class CacheInfo(NamedTuple):
    """A snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int
    #: Entries carried across a mutation by re-keying instead of being
    #: dropped: the dynamic update-in-place path, plus entries whose query
    #: does not reference the mutated relation.
    updates: int = 0


def _cq_key(query: ConjunctiveQuery) -> tuple:
    head = tuple(v.name for v in query.head)
    body = tuple(
        (
            atom.relation,
            tuple(
                ("v", term.name) if isinstance(term, Variable) else ("c", term.value)
                for term in atom.terms
            ),
        )
        for atom in query.body
    )
    return ("cq", head, body)


def canonical_query_key(query) -> tuple:
    """A hashable structural key for a CQ or UCQ.

    Ignores the query's display name and the object identity; preserves
    everything that influences index construction (head order, body atom
    order, variable names, constants). Re-parsing the same rule text
    therefore yields an equal key:

    >>> from repro import parse_cq
    >>> canonical_query_key(parse_cq("Q(x) :- R(x, y)")) == \\
    ...     canonical_query_key(parse_cq("Named(x)  :-  R(x, y)"))
    True
    >>> canonical_query_key(parse_cq("Q(x) :- R(x, y)")) == \\
    ...     canonical_query_key(parse_cq("Q(y) :- R(y, x)"))
    False
    """
    if isinstance(query, UnionOfConjunctiveQueries):
        return ("ucq",) + tuple(_cq_key(q) for q in query.queries)
    if isinstance(query, ConjunctiveQuery):
        return _cq_key(query)
    raise TypeError(f"cannot key a {type(query).__name__} for the index cache")


class IndexCache:
    """A capacity-bounded LRU mapping of keys to built indexes.

    The cache is agnostic to what it stores — the
    :class:`~repro.service.query_service.QueryService` keeps
    :class:`~repro.core.cq_index.CQIndex` /
    :class:`~repro.core.union_access.MCUCQIndex` instances in it, keyed as
    described in the module docstring. ``get_or_build`` is the serving
    read path; :meth:`invalidate` / :meth:`discard` drop stale entries
    eagerly (they would also simply never be hit again, but dropping frees
    capacity and memory immediately), and :meth:`peek` + :meth:`rekey`
    support the service's update-in-place mode — a mutation applies its
    delta to an update-capable entry (a
    :class:`~repro.core.dynamic.DynamicCQIndex`) and re-keys it to the new
    database version instead of dropping it.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        # Per-entry write locks (created on demand by lock_for); they move
        # with the entry on rekey and die with it on discard/eviction.
        self._locks: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.updates = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def keys(self) -> List[object]:
        """Current keys in LRU order (least recently used first)."""
        return list(self._entries)

    def get_or_build(self, key, builder: Callable[[], object]):
        """The cached entry for ``key``, building (and caching) on miss.

        A hit moves the entry to most-recently-used; a miss that
        overflows :attr:`capacity` evicts the least recently used entry.
        """
        entry = self._entries.get(key)
        if entry is not None:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                # A concurrent rekey/discard moved the entry away between
                # the probe and the LRU touch. The object we hold is still
                # the entry this read resolved, so serve it untouched.
                pass
            self.hits += 1
            return entry
        self.misses += 1
        entry = builder()
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            evicted, __ = self._entries.popitem(last=False)
            self._locks.pop(evicted, None)
            self.evictions += 1
        return entry

    def lock_for(self, key) -> threading.Lock:
        """The per-entry **writer-writer** lock for ``key``, created on
        first use.

        Mutations applying a delta to an update-in-place entry hold this
        lock so two concurrent ``apply`` calls cannot interleave their
        maintenance passes. Readers do *not* take it: they read the
        entry's published snapshot (an atomic reference swap at the end of
        each mutation), so a pagination or sampling read proceeds
        wait-free while a writer holds the entry mid-burst. The lock
        object follows the entry through :meth:`rekey`; because a re-key
        abandons the old key (and a lock minted for an abandoned key
        synchronizes with nobody), any locking caller must re-validate
        that the entry is still cached under the key after fetching its
        lock — see ``QueryService._read_view``'s legacy fallback. Static
        entries are never mutated in place and take no lock.
        """
        # setdefault is atomic under the GIL: two threads racing the first
        # use of a key agree on one lock (a plain get-then-set here would
        # let a reader and the writer each mint their own lock and
        # "synchronize" on nothing).
        return self._locks.setdefault(key, threading.Lock())

    def peek(self, key) -> Optional[object]:
        """The entry for ``key``, or ``None`` — no LRU touch, no counters.

        The maintenance path uses this to inspect entries (is this one
        update-in-place capable?) without distorting the hit statistics or
        the eviction order.
        """
        return self._entries.get(key)

    def discard(self, key) -> bool:
        """Drop one entry by key; ``True`` when it existed.

        Counts as an invalidation — this is the per-entry form the service
        uses when a mutation makes a (static) entry stale.
        """
        if key in self._entries:
            del self._entries[key]
            self._locks.pop(key, None)
            self.invalidations += 1
            return True
        return False

    def rekey(self, old_key, new_key) -> bool:
        """Move the entry at ``old_key`` to ``new_key``; ``True`` on success.

        The update-in-place path: a mutation applies the delta to a
        dynamic entry, then re-keys it to the new database version instead
        of dropping it. The moved entry becomes most-recently-used (it was
        literally just used), and the move counts as an :attr:`updates`
        tick, not an invalidation. A pre-existing entry at ``new_key`` is
        replaced. No-op returning ``False`` when ``old_key`` is absent.
        """
        entry = self._entries.pop(old_key, _ABSENT)
        if entry is _ABSENT:
            return False
        self._entries[new_key] = entry
        self._entries.move_to_end(new_key)
        lock = self._locks.pop(old_key, None)
        if lock is not None:
            self._locks[new_key] = lock
        self.updates += 1
        return True

    def invalidate(self, predicate: Optional[Callable[[object], bool]] = None) -> int:
        """Drop entries whose key satisfies ``predicate`` (all, if omitted).

        Returns how many entries were dropped. The service calls this with
        a database-identity predicate after every mutation, so cache
        capacity is never wasted on unreachable versions.
        """
        if predicate is None:
            dropped = len(self._entries)
            self._entries.clear()
            self._locks.clear()
        else:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
                self._locks.pop(key, None)
            dropped = len(stale)
        self.invalidations += dropped
        return dropped

    def info(self) -> CacheInfo:
        """A snapshot of the effectiveness counters."""
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            size=len(self._entries),
            capacity=self.capacity,
            updates=self.updates,
        )

    def __repr__(self) -> str:
        return (
            f"IndexCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_ABSENT = object()
