"""Tests for the NexMark-lite generator (paper §VI/§VII-A)."""
import numpy as np
import pytest

from helpers import records_digest
from repro.nexmark.generator import (
    DRAW_CHUNK,
    N_CATEGORIES,
    N_HOT,
    Q3_STATES,
    STATES,
    _PCG64Stream,
    bids,
    persons_auctions,
    topics_for_query,
)
from repro.nexmark.spark_queries import records_frame


class TestBids:
    def test_count_matches_rate(self):
        assert len(bids(rate=100, duration=5)) == 500

    def test_timestamps_within_duration_and_ordered(self):
        rs = bids(rate=100, duration=5)
        ts = [r.ingest_ts for r in rs]
        assert ts == sorted(ts)
        assert 0 < ts[0] and ts[-1] < 5.0

    def test_deterministic(self):
        a, b = bids(rate=50, duration=2, seed=9), bids(rate=50, duration=2, seed=9)
        assert [r.value for r in a] == [r.value for r in b]

    def test_uniform_no_hot_concentration(self):
        rs = bids(rate=2000, duration=5, hot_ratio=0.0, n_bidders=100)
        top = max(np.bincount([r.value["bidder"] for r in rs]))
        assert top < 0.05 * len(rs)

    def test_hot_ratio_concentrates_keys(self):
        rs = bids(rate=2000, duration=5, hot_ratio=0.3)
        hot = sum(1 for r in rs if r.value["bidder"] == 1)
        assert 0.25 * len(rs) < hot < 0.40 * len(rs)

    def test_key_is_bidder(self):
        r = bids(rate=10, duration=1)[0]
        assert r.key == r.value["bidder"]


class TestPersonsAuctions:
    def test_one_to_three_ratio(self):
        ps, aus = persons_auctions(rate=400, duration=5)
        assert abs(len(aus) / len(ps) - 3.0) < 0.1

    def test_sellers_reference_existing_persons(self):
        ps, aus = persons_auctions(rate=400, duration=5, seed=2)
        max_pid = 0
        pi = ai = 0
        events = sorted(ps + aus, key=lambda r: r.ingest_ts)
        for r in events:
            if r.kind == "person":
                max_pid = max(max_pid, r.value["id"])
            else:
                assert 1 <= r.value["seller"] <= max(max_pid, 1)

    def test_states_cover_q3_filter(self):
        ps, _ = persons_auctions(rate=1000, duration=5, seed=0)
        states = {p.value["state"] for p in ps}
        assert set(Q3_STATES) <= states

    def test_hot_sellers_under_skew(self):
        _, aus = persons_auctions(rate=2000, duration=5, hot_ratio=0.3, seed=1)
        hot = sum(1 for a in aus if a.value["seller"] == 1)
        assert hot > 0.2 * len(aus)

    def test_categories_in_range(self):
        _, aus = persons_auctions(rate=400, duration=3)
        assert all(10 <= a.value["category"] < 20 for a in aus)


class TestFrames:
    def test_bids_frame_columns(self):
        f = records_frame(bids(rate=10, duration=1))
        assert list(f.columns) == ["uid", "ts", "auction", "bidder", "price"]

    def test_persons_auctions_frames(self):
        ps, aus = persons_auctions(rate=40, duration=1)
        pf, af = records_frame(ps), records_frame(aus)
        assert {"id", "name", "city", "state"} <= set(pf.columns)
        assert {"id", "seller", "category"} <= set(af.columns)


class TestTopics:
    def test_q1_topics(self):
        t = topics_for_query("q1", rate=100, duration=2, n_workers=4)
        assert set(t) == {"bids"} and t["bids"].n_partitions == 4

    def test_q3_topics(self):
        t = topics_for_query("q3", rate=100, duration=2, n_workers=4)
        assert set(t) == {"persons", "auctions"}

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError, match="unknown query"):
            topics_for_query("q99", rate=1, duration=1, n_workers=1)

    def test_total_events_preserved(self):
        t = topics_for_query("q8", rate=200, duration=3, n_workers=5)
        assert sum(x.total_events() for x in t.values()) == 600


class TestPins:
    """crc32 of the generated records (``helpers.records_digest``), recorded
    from the one-scalar-numpy-call-per-value generators. Replaying the
    draws from raw words must leave every record identical; reordering any
    draw (say seller and category) changes them."""

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (dict(rate=400, duration=5, seed=3), "bc35fa98"),
            (dict(rate=400, duration=5, seed=3, hot_ratio=0.3), "dd053946"),
            # ~70,000 and ~75,600 raw words: both cross DRAW_CHUNK
            (dict(rate=8000, duration=10, seed=11), "52a10b7e"),
            (dict(rate=5000, duration=10, seed=11, hot_ratio=0.3), "a673c66f"),
        ],
        ids=["h0", "h0.3", "h0-chunks", "h0.3-chunks"],
    )
    def test_persons_auctions(self, kwargs, digest):
        assert records_digest(*persons_auctions(**kwargs)) == digest

    def test_bids(self):
        assert records_digest(bids(rate=1000, duration=5, seed=3, hot_ratio=0.3)) == "f9eb009c"


def _scalar_persons_auctions(*, rate, duration, seed=0, hot_ratio=0.0):
    """The reference: one scalar numpy call per drawn value, record by record."""
    n = int(rate * duration)
    g = np.random.default_rng(seed)
    persons, auctions = [], []
    for i in range(n):
        t = float((i + 0.5) / rate)
        if i % 4 == 0:
            pid = len(persons) + 1
            st = STATES[int(g.integers(0, len(STATES)))]
            persons.append((f"p{pid}", pid, {"id": pid, "name": f"person-{pid}",
                                             "city": f"city-{pid % 37}", "state": st}, t))
        else:
            aid, n_persons = len(auctions) + 1, len(persons)
            if hot_ratio and g.random() < hot_ratio and n_persons >= N_HOT:
                seller = int(g.integers(1, N_HOT + 1))
            else:
                seller = int(g.integers(1, n_persons + 1))
            cat = int(g.integers(10, 10 + N_CATEGORIES))
            auctions.append((f"a{aid}", seller, {"id": aid, "seller": seller, "category": cat}, t))
    return persons, auctions


@pytest.mark.parametrize("hot_ratio", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 401, 1002, 4003])
def test_persons_auctions_match_scalar_reference(n, hot_ratio):
    """Every event count mod 4 (a partial last group of draws), every seed
    path: the replayed draws give the reference loop's records exactly."""
    for seed in (0, 5):
        # rate * (n / rate) == n exactly for a power-of-two rate
        ps, aus = persons_auctions(rate=4.0, duration=n / 4, seed=seed, hot_ratio=hot_ratio)
        want_ps, want_aus = _scalar_persons_auctions(rate=4.0, duration=n / 4, seed=seed,
                                                     hot_ratio=hot_ratio)
        assert len(ps) + len(aus) == n
        got = [[(r.uid, r.key, r.value, r.ingest_ts) for r in rs] for rs in (ps, aus)]
        assert got == [want_ps, want_aus]
        assert {r.kind for r in ps} <= {"person"} and {r.kind for r in aus} <= {"auction"}
        assert all(type(v) is int for r in aus for v in r.value.values())


def _scalar_and_stream(seed, calls):
    """The same call sequence through numpy's scalar API and _PCG64Stream."""
    g, s = np.random.default_rng(seed), _PCG64Stream(np.random.default_rng(seed))
    want, got = [], []
    for call in calls:
        if call is None:
            want.append(float(g.random()))
            got.append(s.random())
        else:
            want.append(int(g.integers(*call)))
            got.append(s.integers(*call))
    return want, got


class TestPCG64Stream:
    #: one value (no draw), small, 10**6 and ~3 * 2**30 (rejection loop runs)
    RANGES = [(5, 6), (0, 10), (1, 2), (10, 20), (-3, 4), (0, 10**6),
              (7, 7 + 3 * 2**30), (0, 2**32 - 1)]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_numpy_scalar_calls(self, seed):
        rng = np.random.default_rng(1000 + seed)
        picks = rng.integers(-1, len(self.RANGES), 3000).tolist()
        calls = [None if k < 0 else self.RANGES[k] for k in picks]
        want, got = _scalar_and_stream(seed, calls)
        assert got == want
        assert all(type(a) is type(b) for a, b in zip(got, want))

    def test_rejection_loop_runs(self):
        """Over a range of 3 * 2**30 a quarter of the 32-bit halves are
        rejected (the threshold is 2**30), so 2,000 values take ~2,667."""
        s = _PCG64Stream(np.random.default_rng(0))
        halves, next32 = [], s._next32
        s._next32 = lambda: halves.append(1) or next32()
        g = np.random.default_rng(0)
        assert [s.integers(0, 3 * 2**30) for _ in range(2000)] == \
            [int(g.integers(0, 3 * 2**30)) for _ in range(2000)]
        assert len(halves) > 2400

    def test_matches_scalar_calls_across_chunks(self):
        highs = (np.arange(2 * DRAW_CHUNK + 1000) % 97 + 1).tolist()  # one-value ranges too
        s, g = _PCG64Stream(np.random.default_rng(8)), np.random.default_rng(8)
        assert [s.integers(0, h) for h in highs] == [int(g.integers(0, h)) for h in highs]

    def test_continues_a_buffered_half(self):
        g = np.random.default_rng(4)
        g.integers(0, 10)  # leaves the high half of a word buffered
        s = _PCG64Stream(g)
        ref = np.random.default_rng(4)
        ref.integers(0, 10)
        assert [s.integers(0, 100) for _ in range(5)] == [int(ref.integers(0, 100)) for _ in range(5)]

    def test_refuses_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            _PCG64Stream(np.random.Generator(np.random.MT19937(0)))
        with pytest.raises(TypeError, match="PCG64"):
            _PCG64Stream(np.random.Generator(np.random.PCG64DXSM(0)))

    @pytest.mark.parametrize("low, high", [(0, 2**32), (0, 2**40), (3, 3), (5, 2)])
    def test_refuses_ranges_it_cannot_replay(self, low, high):
        with pytest.raises(ValueError, match="replays ranges"):
            _PCG64Stream(np.random.default_rng(0)).integers(low, high)
