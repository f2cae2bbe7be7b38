"""Core value types shared by every miner in the library.

The vocabulary follows the paper: a *cluster* is a set of object ids that
are density-connected at one timestamp; a *convoy* is an object set together
with a closed time interval ``[start, end]`` during which the set stays
density-connected (Definition 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from .bitset import ObjectInterner, ObjectMask

ObjectId = int
Timestamp = int

#: A cluster at one timestamp is simply a frozen set of object ids.
Cluster = FrozenSet[ObjectId]


def as_cluster(objects: Iterable[ObjectId]) -> Cluster:
    """Normalise any iterable of object ids into a :data:`Cluster`."""
    return frozenset(objects)


@dataclass(frozen=True, order=True)
class TimeInterval:
    """A closed, integer time interval ``[start, end]`` with ``start <= end``."""

    start: Timestamp
    end: Timestamp

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"empty interval [{self.start}, {self.end}]")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, t: Timestamp) -> bool:
        return self.start <= t <= self.end

    def __iter__(self) -> Iterator[Timestamp]:
        return iter(range(self.start, self.end + 1))

    @property
    def duration(self) -> int:
        """Number of timestamps covered by the interval."""
        return len(self)

    def contains_interval(self, other: "TimeInterval") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        return self.start <= other.end and other.start <= self.end

    def intersection(self, other: "TimeInterval") -> "TimeInterval":
        if not self.overlaps(other):
            raise ValueError(f"{self} and {other} do not overlap")
        return TimeInterval(max(self.start, other.start), min(self.end, other.end))


@dataclass(frozen=True)
class Convoy:
    """A convoy ``(objects, [start, end])``.

    Instances are hashable so result sets can be deduplicated.  Ordering
    helpers (:meth:`is_subconvoy_of`) implement Definition 5 of the paper.
    """

    objects: Cluster
    interval: TimeInterval

    @staticmethod
    def of(objects: Iterable[ObjectId], start: Timestamp, end: Timestamp) -> "Convoy":
        """Convenience constructor used pervasively in tests."""
        return Convoy(as_cluster(objects), TimeInterval(start, end))

    @property
    def start(self) -> Timestamp:
        return self.interval.start

    @property
    def end(self) -> Timestamp:
        return self.interval.end

    @property
    def duration(self) -> int:
        return self.interval.duration

    @property
    def size(self) -> int:
        return len(self.objects)

    def is_subconvoy_of(self, other: "Convoy") -> bool:
        """Definition 5: object subset and time-interval subset."""
        return (
            self.objects <= other.objects
            and other.interval.contains_interval(self.interval)
        )

    def is_strict_subconvoy_of(self, other: "Convoy") -> bool:
        return self != other and self.is_subconvoy_of(other)

    def with_interval(self, start: Timestamp, end: Timestamp) -> "Convoy":
        return Convoy(self.objects, TimeInterval(start, end))

    def with_objects(self, objects: Iterable[ObjectId]) -> "Convoy":
        return Convoy(as_cluster(objects), self.interval)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        members = ",".join(str(o) for o in sorted(self.objects))
        return f"Convoy({{{members}}}, [{self.start},{self.end}])"


class _MaskCache:
    """Process-wide cluster -> bitset-mask memo shared by the set algebra.

    The interner only grows (masks stay mutually compatible for the life of
    the process); the memo dict is cleared when it outgrows its bound, which
    is always safe because masks are recomputable from the interner.
    """

    __slots__ = ("_interner", "_masks")

    _MEMO_LIMIT = 1 << 16

    def __init__(self) -> None:
        self._interner = ObjectInterner()
        self._masks: Dict[Cluster, ObjectMask] = {}

    def mask(self, objects: Cluster) -> ObjectMask:
        mask = self._masks.get(objects)
        if mask is None:
            if len(self._masks) >= self._MEMO_LIMIT:
                self._masks.clear()
            mask = self._interner.mask_of(objects)
            self._masks[objects] = mask
        return mask


_MASK_CACHE = _MaskCache()


def cached_mask(objects: Cluster) -> ObjectMask:
    """Bitset mask of a cluster, memoised process-wide.

    All masks returned by this function are built on one shared interner,
    so they are mutually comparable: subset is ``a & b == a``, equality is
    ``==``.  Used to replace frozenset algebra on hot convoy paths.
    """
    return _MASK_CACHE.mask(objects)


def update_maximal(result: List[Convoy], candidate: Convoy) -> bool:
    """The paper's ``update()``: subsumption-filtered insertion.

    Adds *candidate* to *result* unless it is a sub-convoy of an existing
    entry; removes existing entries that are sub-convoys of *candidate*.
    Returns ``True`` when the candidate was inserted.  The subset tests run
    on cached bitset masks (one int ``&`` per pair).
    """
    mask = _MASK_CACHE.mask
    cand_mask = mask(candidate.objects)
    cand_start, cand_end = candidate.interval.start, candidate.interval.end
    for existing in result:
        if (
            cand_mask & mask(existing.objects) == cand_mask
            and existing.interval.start <= cand_start
            and cand_end <= existing.interval.end
        ):
            return False
    result[:] = [
        c
        for c in result
        if not (
            (kept := mask(c.objects)) & cand_mask == kept
            and cand_start <= c.interval.start
            and c.interval.end <= cand_end
        )
    ]
    result.append(candidate)
    return True


def maximal_convoys(convoys: Iterable[Convoy]) -> List[Convoy]:
    """Filter an iterable of convoys down to the maximal ones.

    Sorting by decreasing object-set size then decreasing duration makes the
    quadratic subsumption filter fast in practice: big convoys are admitted
    first and most small candidates are rejected on their first comparison.
    """
    ordered = sorted(
        set(convoys), key=lambda c: (c.size, c.duration, tuple(sorted(c.objects))),
        reverse=True,
    )
    result: List[Convoy] = []
    for convoy in ordered:
        update_maximal(result, convoy)
    return sorted(result, key=_convoy_sort_key)


def _convoy_sort_key(convoy: Convoy) -> Tuple[int, int, Sequence[int]]:
    return (convoy.start, convoy.end, tuple(sorted(convoy.objects)))


def sort_convoys(convoys: Iterable[Convoy]) -> List[Convoy]:
    """Deterministic ordering used when printing or comparing result sets."""
    return sorted(convoys, key=_convoy_sort_key)


@dataclass
class ConvoySet:
    """A mutable set of convoys maintaining maximality on insertion."""

    convoys: List[Convoy] = field(default_factory=list)

    def add(self, convoy: Convoy) -> bool:
        return update_maximal(self.convoys, convoy)

    def extend(self, convoys: Iterable[Convoy]) -> None:
        for convoy in convoys:
            self.add(convoy)

    def __iter__(self) -> Iterator[Convoy]:
        return iter(self.convoys)

    def __len__(self) -> int:
        return len(self.convoys)

    def __contains__(self, convoy: Convoy) -> bool:
        return convoy in self.convoys

    def sorted(self) -> List[Convoy]:
        return sort_convoys(self.convoys)
