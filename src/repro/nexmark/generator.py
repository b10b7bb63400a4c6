"""NexMark-lite event generator (paper §VI / §VII-A).

The paper extends the NexMark generator of [33], [43]; we reimplement the
parts its experiments use: person/auction/bid streams with deterministic
timestamps at a configurable input rate, and the *hot items* knob that
routes a configurable fraction of events to a small hot key set (the
skewed-workload experiments, Fig. 12/13).

Events are produced as :class:`repro.dataflow.messages.Record` lists ready
to be loaded into a :class:`ReplayableLog`; ``spark_queries.records_frame``
turns them into pandas frames for the Spark/DuckDB batch references.

Draw-order contract: each generator's records are a function of its seed
through a fixed sequence of numpy ``Generator`` draws, the sequence a
per-record loop of scalar ``g.random()`` / ``g.integers(low, high)`` calls
makes. ``persons_auctions`` draws, event by event, a person's state index
in ``[0, len(STATES))``, or an auction's hot coin (``g.random()``, only
when ``hot_ratio`` is set), then its seller in ``[1, N_HOT]`` (hot) or
``[1, n_persons]``, then its category. The draws are not made one numpy
call per value: ``_PCG64Stream`` replays the scalar calls from raw PCG64
words read ``DRAW_CHUNK`` at a time. Reordering a draw changes every
record after it, which the crc32 pins in ``tests/test_generator.py``
catch.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Record

#: NexMark Q3's person-state filter (we keep 10 US states, 3 of them hot).
STATES = ["OR", "ID", "CA", "WA", "NV", "AZ", "NY", "TX", "FL", "UT"]
Q3_STATES = ("OR", "ID", "CA")
Q3_CATEGORY = 10
N_CATEGORIES = 10  #: categories 10..19 -> Q3 keeps ~10 %
#: size of the hot key set under skew: hot events go to ids 1..N_HOT
N_HOT = 1
#: most draws one broadcast ``Generator.integers`` call (or raw PCG64 words
#: one ``random_raw`` read) makes; bounds the transient arrays and lists
DRAW_CHUNK = 65_536


def _spaced_ts(n: int, rate: float) -> np.ndarray:
    """Deterministic evenly-spaced timestamps at ``rate`` events/s."""
    return (np.arange(n) + 0.5) / rate


def bids(
    *,
    rate: float,
    duration: float,
    seed: int = 0,
    hot_ratio: float = 0.0,
    n_auctions: int = 500,
    n_bidders: int = 200,
) -> List[Record]:
    """Bid stream for Q1/Q12. ``hot_ratio`` sends that fraction of bids to
    the ``N_HOT`` hot bidders/auctions."""
    n = int(rate * duration)
    g = np.random.default_rng(seed)
    ts = _spaced_ts(n, rate)
    hot = g.random(n) < hot_ratio
    auction = np.where(hot, g.integers(1, N_HOT + 1, n), g.integers(1, n_auctions + 1, n))
    bidder = np.where(hot, g.integers(1, N_HOT + 1, n), g.integers(1, n_bidders + 1, n))
    price = np.round(g.random(n) * 1000 + 1, 2)
    return [
        Record(f"bid{i}", b, {"auction": a, "bidder": b, "price": p}, t, "bid")
        for i, (a, b, p, t) in enumerate(
            zip(auction.tolist(), bidder.tolist(), price.tolist(), ts.tolist())
        )
    ]


class _PCG64Stream:
    """numpy's scalar ``g.random()`` and ``g.integers(low, high)`` on a
    ``PCG64`` generator, replayed in Python from raw 64-bit words read
    ``DRAW_CHUNK`` at a time: the double is the top 53 bits of a word; a
    bounded integer takes 32-bit halves (low half first, the high half kept
    for the next one) through Lemire's multiply-and-reject (Lemire, ACM
    TOMACS 2019). Ranges of one value draw nothing. Reading ahead leaves
    ``g`` past every word read, so ``g`` is not used after the stream."""

    def __init__(self, g: np.random.Generator):
        bg = g.bit_generator
        if type(bg) is not np.random.PCG64:
            raise TypeError(f"_PCG64Stream needs a PCG64 generator, not {type(bg).__name__}")
        state = bg.state
        self._raw = bg.random_raw
        self._has32, self._half = state["has_uint32"], state["uinteger"]
        self._words: Iterator[int] = iter(())

    def _next64(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._raw(DRAW_CHUNK).tolist())
            return next(self._words)

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._half
        w = self._next64()
        self._has32, self._half = 1, w >> 32
        return w & 0xFFFFFFFF

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        rng = high - low - 1
        if rng == 0:
            return low
        if not 0 < rng < 0xFFFFFFFF:
            raise ValueError(f"_PCG64Stream replays ranges of 1 to 2**32 - 1 values, not [{low}, {high})")
        m = self._next32() * (rng + 1)
        if (m & 0xFFFFFFFF) <= rng:  # only then can it fall below the threshold
            threshold = (0xFFFFFFFF - rng) % (rng + 1)
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * (rng + 1)
        return low + (m >> 32)


def persons_auctions(
    *,
    rate: float,
    duration: float,
    seed: int = 0,
    hot_ratio: float = 0.0,
) -> Tuple[List[Record], List[Record]]:
    """Interleaved person/auction streams (1 person : 3 auctions) for
    Q3/Q8. ``rate`` is the combined rate. Auction sellers reference already
    seen person ids; under skew a ``hot_ratio`` fraction of auctions is
    sold by the ``N_HOT`` first persons."""
    n = int(rate * duration)
    g = np.random.default_rng(seed)
    ts = _spaced_ts(n, rate)
    states: List[int] = []
    sellers: List[int] = []
    categories: List[int] = []
    s = _PCG64Stream(g)
    draw, coin = s.integers, s.random
    for i in range(n):
        if i % 4 == 0:  # every 4th event is a person
            states.append(draw(0, len(STATES)))
            continue
        n_persons = i // 4 + 1
        if hot_ratio and coin() < hot_ratio and n_persons >= N_HOT:
            sellers.append(draw(1, N_HOT + 1))
        else:
            sellers.append(draw(1, n_persons + 1))
        categories.append(draw(10, 10 + N_CATEGORIES))
    persons = [
        Record(
            f"p{pid}",
            pid,
            {"id": pid, "name": f"person-{pid}", "city": f"city-{pid % 37}", "state": STATES[st]},
            t,
            "person",
        )
        for pid, st, t in zip(range(1, len(states) + 1), states, ts[0::4].tolist())
    ]
    auctions = [
        Record(f"a{aid}", seller, {"id": aid, "seller": seller, "category": cat}, t, "auction")
        for aid, seller, cat, t in zip(
            range(1, len(sellers) + 1), sellers, categories, ts[np.arange(n) % 4 != 0].tolist()
        )
    ]
    return persons, auctions


# -- topic helpers ---------------------------------------------------------


def topics_for_query(
    query: str,
    *,
    rate: float,
    duration: float,
    n_workers: int,
    seed: int = 0,
    hot_ratio: float = 0.0,
) -> Dict[str, ReplayableLog]:
    """Build the ReplayableLog topics a query's sources consume.

    ``rate`` is the query's total input rate across all its streams.
    """
    if query in ("q1", "q12"):
        recs = bids(rate=rate, duration=duration, seed=seed, hot_ratio=hot_ratio)
        return {"bids": ReplayableLog.from_records("bids", recs, n_workers)}
    if query in ("q3", "q8"):
        persons, auctions = persons_auctions(
            rate=rate, duration=duration, seed=seed, hot_ratio=hot_ratio
        )
        return {
            "persons": ReplayableLog.from_records("persons", persons, n_workers),
            "auctions": ReplayableLog.from_records("auctions", auctions, n_workers),
        }
    raise ValueError(f"unknown query {query!r}")
