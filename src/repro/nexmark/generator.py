"""NexMark-lite event generator (paper §VI / §VII-A).

The paper extends the NexMark generator of [33], [43]; we reimplement the
parts its experiments use: person/auction/bid streams with deterministic
timestamps at a configurable input rate, and the *hot items* knob that
routes a configurable fraction of events to a small hot key set (the
skewed-workload experiments, Fig. 12/13).

Events are produced as :class:`repro.dataflow.messages.Record` lists ready
to be loaded into a :class:`ReplayableLog`, and as pandas frames (via
``records_frame``) for the Spark/DuckDB batch references.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd

from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Record

#: NexMark Q3's person-state filter (we keep 10 US states, 3 of them hot).
STATES = ["OR", "ID", "CA", "WA", "NV", "AZ", "NY", "TX", "FL", "UT"]
Q3_STATES = ("OR", "ID", "CA")
Q3_CATEGORY = 10
N_CATEGORIES = 10  #: categories 10..19 -> Q3 keeps ~10 %
#: size of the hot key set under skew: hot events go to ids 1..N_HOT
N_HOT = 1


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
    persons: List[Record] = []
    auctions: List[Record] = []
    n_persons = 0
    for i in range(n):
        if i % 4 == 0:  # every 4th event is a person
            n_persons += 1
            pid = n_persons
            persons.append(
                Record(
                    uid=f"p{pid}",
                    key=pid,
                    value={
                        "id": pid,
                        "name": f"person-{pid}",
                        "city": f"city-{pid % 37}",
                        "state": STATES[int(g.integers(0, len(STATES)))],
                    },
                    ingest_ts=float(ts[i]),
                    kind="person",
                )
            )
        else:
            aid = len(auctions) + 1
            if hot_ratio and g.random() < hot_ratio and n_persons >= N_HOT:
                seller = int(g.integers(1, N_HOT + 1))
            else:
                seller = int(g.integers(1, max(n_persons, 1) + 1))
            auctions.append(
                Record(
                    uid=f"a{aid}",
                    key=seller,
                    value={
                        "id": aid,
                        "seller": seller,
                        "category": int(g.integers(10, 10 + N_CATEGORIES)),
                    },
                    ingest_ts=float(ts[i]),
                    kind="auction",
                )
            )
    return persons, auctions


# -- pandas frames for the Spark/DuckDB batch references -------------------


def records_frame(records: List[Record]) -> pd.DataFrame:
    """One row per record: ``uid``, ``ts`` and the value's fields."""
    return pd.DataFrame([{"uid": r.uid, "ts": r.ingest_ts, **r.value} for r in records])


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
