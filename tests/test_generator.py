"""Tests for the NexMark-lite generator (paper §VI/§VII-A)."""
import numpy as np
import pytest

from repro.nexmark.generator import (
    Q3_STATES,
    bids,
    persons_auctions,
    records_frame,
    topics_for_query,
)


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
