"""Workload inputs: the trajectory trace and the query streams.

Every input is a pure function of the workload seed, so one seed always
gives the same bytes to the program.

**The trace.**  The paper evaluates k/2-hop on fixed datasets, and the
repo's paper benchmarks use one Brinkhoff trace (``benchmarks/paperbench.py``:
200 ticks, 104,400 points, generator seed 13).  Regenerating the trace per
seed moves the mining work itself: over eight generator seeds, one eps=30
mining run read 26k-43k points and took 0.15-0.29 s, which would swamp any
regression bound.  So the generator always runs at the paperbench
configuration, and the seed draws an object-id relabelling and a time
shift of that trace.  Clustering and mining see the same geometry, so the
work stays the same from seed to seed, while no two seeds feed the
program the same rows.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.data import BrinkhoffConfig, BrinkhoffGenerator, Dataset

#: The paperbench Brinkhoff configuration (``paperbench.brinkhoff_dataset``).
PAPER_TRACE = BrinkhoffConfig(
    max_time=200, obj_begin=120, obj_per_time=4, ext_obj_begin=4,
    routes_per_object=3, seed=13,
)

#: A small trace for the self-test: same generator, a few seconds of work.
TINY_TRACE = dataclasses.replace(PAPER_TRACE, max_time=45, obj_begin=40,
                                 obj_per_time=2)

SIZES = {"full": PAPER_TRACE, "tiny": TINY_TRACE}


def make_trace(seed: int, size: str = "full") -> Dataset:
    """The benchmark trace for ``seed``: relabelled, time-shifted Brinkhoff."""
    base = BrinkhoffGenerator(SIZES[size]).generate()
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(int(base.oids.max()) + 1)
    shift = int(rng.integers(0, 1000))
    return Dataset(relabel[base.oids], base.ts + shift, base.xs, base.ys)


# -- query streams -------------------------------------------------------------

#: Hot-stream family weights: heavy on time ranges, like a monitoring UI.
HOT_MIX = (("time_range", 40), ("object_history", 25), ("containing", 20),
           ("region", 15))

#: Miss-stream families: parameter spaces large enough never to repeat.
MISS_FAMILIES = ("time_range", "containing", "region")

Query = Tuple[str, tuple]


class QueryMix:
    """A seeded query stream over one trace, split into hot and miss keys.

    The hot stream draws from small pools (48 keys, far fewer than the
    query engine's 4,096-entry LRU), so it mostly hits the cache.  One
    query in ``miss_every`` comes from the miss stream instead, whose
    parameters never repeat within a run, so each one misses the cache
    and reaches the index.
    """

    def __init__(self, seed: int, trace: Dataset, miss_every: int = 10):
        self.miss_every = miss_every
        self._rng = random.Random(seed)
        rng = self._rng
        start, end = trace.start_time, trace.end_time
        objects = trace.objects().tolist()
        self._bounds = (float(trace.xs.min()), float(trace.ys.min()),
                        float(trace.xs.max()), float(trace.ys.max()))
        pools = {
            "time_range": [],
            "object_history": [(o,) for o in rng.sample(objects, 16)],
            "containing": [(tuple(rng.sample(objects, 2)),) for _ in range(8)],
            "region": [(self._random_rect(rng),) for _ in range(8)],
        }
        for _ in range(16):
            t1 = rng.randint(start, end)
            pools["time_range"].append((t1, min(end, t1 + rng.randint(0, 40))))
        self._pools = pools
        self._families = [f for f, w in HOT_MIX for _ in range(w)]
        self._count = 0
        # Unique miss parameters: shuffled enumerations, walked in order.
        spans = [(a, b) for a in range(start, end + 1)
                 for b in range(a, min(end, a + 60) + 1)]
        rng.shuffle(spans)
        self._miss_spans = iter(spans)
        self._miss_pairs = self._unique_pairs(rng, objects)
        self._miss_family = itertools.cycle(MISS_FAMILIES)

    def _random_rect(self, rng: random.Random) -> tuple:
        xmin, ymin, xmax, ymax = self._bounds
        w = (xmax - xmin) * rng.uniform(0.05, 0.3)
        h = (ymax - ymin) * rng.uniform(0.05, 0.3)
        x = rng.uniform(xmin, xmax - w)
        y = rng.uniform(ymin, ymax - h)
        return (x, y, x + w, y + h)

    @staticmethod
    def _unique_pairs(rng: random.Random, objects: Sequence[int]) -> Iterator:
        seen = set()
        while True:
            pair = tuple(sorted(rng.sample(objects, 2)))
            if pair not in seen:
                seen.add(pair)
                yield pair

    def next(self) -> Tuple[bool, Query]:
        """The next query as ``(is_miss_stream, (family, args))``.

        ``args`` are the positional arguments of the query engine method
        named ``family``.
        """
        self._count += 1
        if self._count % self.miss_every == 0:
            family = next(self._miss_family)
            if family == "time_range":
                args = next(self._miss_spans, None)
                if args is None:  # enumeration exhausted: fall back to rects
                    family, args = "region", (self._random_rect(self._rng),)
            elif family == "containing":
                args = (next(self._miss_pairs),)
            else:
                args = (self._random_rect(self._rng),)
            return True, (family, args)
        family = self._rng.choice(self._families)
        return False, (family, self._rng.choice(self._pools[family]))
