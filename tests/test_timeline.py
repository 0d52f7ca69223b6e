import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsforensics.timeline import (
    MonthStamp,
    MonthlyTimeline,
    Quarter,
    SiteState,
    aggregate_month,
    cohort_histogram,
    interpolate,
    interpolate_p1,
    interpolate_p2,
    lifetime_distribution,
    lifetime_summary,
    month_range,
    normalize_site,
    read_annotations,
    read_timelines,
    timeline_from_record,
    timeline_to_record,
    timelines_from_annotations,
    write_timelines,
)

from oracles import (
    cohort_histogram_reference,
    lifetime_summary_reference,
    p1_reference,
    p2_reference,
)

A, Z, D, M = SiteState.ALIVE, SiteState.ZOMBIE, SiteState.DEAD, SiteState.MISSING


def tl(states, site="example.com", start=MonthStamp(2015, 1)):
    return MonthlyTimeline(site, start, tuple(states))


def random_row(rng, site="example.com"):
    """A random timeline starting within two years of 2015-01."""
    states = "".join(rng.choice("AZDM") for _ in range(rng.randint(1, 30)))
    return MonthlyTimeline(site, MonthStamp(2015, 1).plus(rng.randint(-24, 24)), states)


def random_window(rng, t):
    """A month window wholly before, after or inside ``t``, or straddling its ends."""
    n = len(t)
    kind = rng.choice(["before", "after", "inside", "straddle"])
    if kind == "before":
        hi = -rng.randint(1, 10)
        lo = hi - rng.randint(0, 10)
    elif kind == "after":
        lo = n + rng.randint(0, 10)
        hi = lo + rng.randint(0, 10)
    elif kind == "inside":
        lo = rng.randint(0, n - 1)
        hi = rng.randint(lo, n - 1)
    else:  # over the first month, the last or both
        lo = rng.randint(-10, n - 1)
        hi = rng.randint(max(lo, 0), n + 10)
        if lo >= 0 and hi < n:
            hi = n
    return t.start.plus(lo), t.start.plus(hi)


state_seq = st.lists(st.sampled_from([A, Z, D, M]), min_size=1, max_size=12)
timelines_st = state_seq.map(tl)


class TestNormalizeSite:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("WWW.Example.COM/", "example.com"),
            ("https://news.example.co.uk/path?q=1", "news.example.co.uk"),
            ("example.com.", "example.com"),
            ("  Example.Com  ", "example.com"),
            ("http://user@host.org:8080/x", "host.org"),
            ("www.com", "www.com"),
        ],
    )
    def test_normalizes(self, raw, expected):
        assert normalize_site(raw) == expected

    @pytest.mark.parametrize("raw", ["", "nodot", "http://", "..", "-", "a.com\n:80"])
    def test_rejects_junk(self, raw):
        with pytest.raises(ValueError):
            normalize_site(raw)


class TestMonthStamp:
    def test_ordering_and_arithmetic(self):
        a, b = MonthStamp(2015, 11), MonthStamp(2016, 2)
        assert a < b
        assert b - a == 3
        assert a.plus(3) == b
        assert b.plus(-3) == a

    def test_parse_roundtrip(self):
        m = MonthStamp.parse("2016-03")
        assert m == MonthStamp(2016, 3)
        assert str(m) == "2016-03"

    def test_validation(self):
        with pytest.raises(ValueError):
            MonthStamp(2016, 13)
        with pytest.raises(ValueError):
            MonthStamp(1888, 1)
        with pytest.raises(ValueError):
            MonthStamp.parse("2016/03")

    @pytest.mark.parametrize("text", ["2015-01\n", "2015-01\r\n", " 2015-01"])
    def test_parse_rejects_text_around_the_month(self, text):
        with pytest.raises(ValueError, match="expected YYYY-MM"):
            MonthStamp.parse(text)

    @pytest.mark.parametrize("text", ["2015-Q1\n", "2015-q1\n", "2015Q1 "])
    def test_quarter_parse_rejects_text_around_the_quarter(self, text):
        with pytest.raises(ValueError, match="expected YYYY-Qn"):
            Quarter.parse(text)

    def test_quarter(self):
        assert MonthStamp(2016, 4).quarter == Quarter(2016, 2)
        assert Quarter(2016, 2).months()[0] == MonthStamp(2016, 4)
        assert Quarter.parse("2015-Q4").plus(1) == Quarter(2016, 1)

    def test_month_range_inclusive(self):
        months = list(month_range(MonthStamp(2015, 11), MonthStamp(2016, 2)))
        assert len(months) == 4
        assert months[0] == MonthStamp(2015, 11)
        assert months[-1] == MonthStamp(2016, 2)


class TestAggregateMonth:
    def test_alive_dominates(self):
        assert aggregate_month([D, A, Z]) == A

    def test_zombie_over_dead(self):
        assert aggregate_month([D, Z]) == Z

    def test_empty_is_missing(self):
        assert aggregate_month([]) == M

    def test_dead_only(self):
        assert aggregate_month([D, D]) == D

    def test_missing_rejected(self):
        with pytest.raises(ValueError):
            aggregate_month([A, M])


class TestInterpolateP1:
    def test_fills_single_gap(self):
        assert interpolate_p1(tl([A, M, A])).states == "AAA"

    def test_mismatched_endpoints_unchanged(self):
        assert interpolate_p1(tl([A, M, Z])).states == "AMZ"

    def test_gap_over_cap_unchanged(self):
        states = [A] + [M] * 37 + [A]
        assert interpolate_p1(tl(states)).states == "".join(states)

    def test_gap_at_cap_filled(self):
        states = [A] + [M] * 36 + [A]
        assert interpolate_p1(tl(states)).states == "A" * 38

    def test_zombie_endpoints_fill_zombie(self):
        assert interpolate_p1(tl([Z, M, M, Z])).states == "ZZZZ"

    def test_dead_endpoints_do_not_fill(self):
        assert interpolate_p1(tl([D, M, D])).states == "DMD"

    def test_edge_gaps_unfilled(self):
        assert interpolate_p1(tl([M, A, M])).states == "MAM"

    def test_custom_cap(self):
        assert interpolate_p1(tl([A, M, M, A]), max_gap_months=1).states == "AMMA"


class TestInterpolateP2:
    def test_bridges_missing_keeps_dead(self):
        assert interpolate_p2(tl([A, D, M, A])).states == "ADAA"

    def test_thirteen_nonalive_not_bridged(self):
        states = [A] + [D] * 13 + [A]
        assert interpolate_p2(tl(states)).states == "".join(states)

    def test_pure_missing_bridged(self):
        assert interpolate_p2(tl([A, M, M, A])).states == "AAAA"

    def test_twelve_nonalive_bridged(self):
        states = [A] + [D] * 6 + [M] + [Z] * 6 + [A]
        got = interpolate_p2(tl(states)).states
        assert got == "A" + "D" * 6 + "A" + "Z" * 6 + "A"

    def test_span_at_cap_bridged(self):
        states = [A] + [M] * 35 + [A]
        assert interpolate_p2(tl(states), max_span_months=36).states == "A" * 37

    def test_span_over_cap_not_bridged(self):
        got = interpolate_p2(tl([A] + [M] * 37 + [A]))
        assert got.states.count(M) == 37


def random_timeline(rng, max_len=12):
    n = rng.randint(1, max_len)
    return tl([rng.choice([A, Z, D, M]) for _ in range(n)])


class TestOracleEquivalence:
    def test_p1_matches_iterative_reference(self):
        rng = random.Random(1)
        for _ in range(2000):
            t = random_timeline(rng)
            assert interpolate_p1(t).states == p1_reference(t).states, t.states

    def test_p2_matches_allpairs_reference(self):
        rng = random.Random(2)
        for _ in range(2000):
            t = interpolate_p1(random_timeline(rng))
            assert interpolate_p2(t).states == p2_reference(t).states, t.states

    def test_pipeline_matches_reference_small_caps(self):
        # small caps exercise the boundary logic on short sequences
        rng = random.Random(3)
        for _ in range(1000):
            t = random_timeline(rng)
            fast = interpolate(t, max_gap_months=2, max_span_months=4, max_nonalive=1)
            slow = p2_reference(p1_reference(t, 2), 4, 1)
            assert fast.states == slow.states, t.states


@given(timelines_st)
@settings(max_examples=200, deadline=None)
def test_p1_idempotent(t):
    once = interpolate_p1(t)
    assert interpolate_p1(once).states == once.states


@given(timelines_st)
@settings(max_examples=200, deadline=None)
def test_p2_idempotent(t):
    once = interpolate_p2(interpolate_p1(t))
    assert interpolate_p2(once).states == once.states


@given(timelines_st)
@settings(max_examples=200, deadline=None)
def test_interpolation_only_fills_missing(t):
    out = interpolate(t)
    for before, after in zip(t.states, out.states):
        if before != M:
            assert after == before


@given(timelines_st)
@settings(max_examples=200, deadline=None)
def test_interpolation_never_adds_missing(t):
    p1 = interpolate_p1(t)
    p2 = interpolate_p2(p1)
    n0 = t.states.count(M)
    n1 = p1.states.count(M)
    n2 = p2.states.count(M)
    assert n0 >= n1 >= n2


class TestMonthlyTimeline:
    def test_states_are_codes(self):
        assert SiteState.ALIVE == "A" and SiteState("Z") is Z
        assert tl([A, "Z", D, M]).states == "AZDM"
        assert tl("AZDM") == tl([A, Z, D, M])

    @pytest.mark.parametrize("states, reason", [("", "at least one month"),
                                                ("AXB", r"unknown state codes \['B', 'X'\]")])
    def test_rejects_empty_and_unknown_codes(self, states, reason):
        with pytest.raises(ValueError, match=reason):
            tl(states)

    def test_window_pads_outside_months(self):
        t = tl("AZD", start=MonthStamp(2015, 2))
        assert t.window(MonthStamp(2014, 12), MonthStamp(2015, 6)) == "MMAZDMM"
        assert t.window(MonthStamp(2015, 3), MonthStamp(2015, 3)) == "Z"
        assert t.window(MonthStamp(2016, 1), MonthStamp(2016, 2)) == "MM"

    def test_window_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty month window"):
            tl("A").window(MonthStamp(2015, 2), MonthStamp(2015, 1))


class TestLifetimeSummary:
    def test_sparse_alive_endpoints(self):
        states = [A] + [D] * 22 + [A]
        s = lifetime_summary(tl(states))
        assert s.lifespan_months == 24
        assert s.alive_months == 2

    def test_matches_month_by_month_reference(self):
        rng = random.Random(4)
        for _ in range(1000):
            t = random_row(rng)
            assert lifetime_summary(t) == lifetime_summary_reference(t), t

    def test_no_alive(self):
        s = lifetime_summary(tl([D, D, D]))
        assert (s.lifespan_months, s.alive_months, s.zombie_months) == (0, 0, 0)

    def test_mixed(self):
        s = lifetime_summary(tl([A, Z, A]))
        assert (s.lifespan_months, s.alive_months, s.zombie_months) == (3, 2, 1)

    def test_single_alive_month(self):
        assert lifetime_summary(tl([A])).lifespan_months == 1

    @given(timelines_st)
    @settings(max_examples=200, deadline=None)
    def test_two_alive_implies_span_two(self, t):
        s = lifetime_summary(t)
        if s.alive_months >= 2:
            assert s.lifespan_months >= 2
        assert s.alive_months <= s.lifespan_months or s.lifespan_months == 0


class TestCohortHistogram:
    def test_all_alive(self):
        ts = [tl([A], site=f"s{i}.com", start=MonthStamp(2016, 6)) for i in range(3)]
        h = cohort_histogram(ts, (MonthStamp(2016, 6), MonthStamp(2016, 6)))
        assert h.alive == (3,) and h.zombie == (0,) and h.dead == (0,)

    def test_mixed_states(self):
        start = MonthStamp(2016, 6)
        ts = [
            tl([A], site="a.com", start=start),
            tl([Z], site="b.com", start=start),
            tl([M], site="c.com", start=start),
        ]
        h = cohort_histogram(ts, (start, start))
        assert (h.alive, h.zombie, h.dead) == ((1,), (0 + 1,), (1,))

    def test_window_outside_all(self):
        ts = [tl([A], site="a.com", start=MonthStamp(2010, 1))]
        h = cohort_histogram(ts, (MonthStamp(2018, 1), MonthStamp(2018, 3)))
        assert h.dead == (1, 1, 1)

    def test_empty_cohort(self):
        h = cohort_histogram([], (MonthStamp(2018, 1), MonthStamp(2018, 2)))
        assert h.alive == (0, 0) and h.cohort_size == 0

    def test_matches_month_by_month_reference(self):
        rng = random.Random(5)
        for _ in range(500):
            ts = [random_row(rng, site=f"s{i}.com") for i in range(rng.randint(0, 8))]
            window = random_window(rng, ts[0] if ts else random_row(rng))
            want = cohort_histogram_reference(ts, window)
            assert cohort_histogram(ts, window) == want, (ts, window)

    @given(st.lists(timelines_st, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_counts_partition_cohort(self, ts):
        named = [
            MonthlyTimeline(f"s{i}.com", t.start, t.states) for i, t in enumerate(ts)
        ]
        h = cohort_histogram(named, (MonthStamp(2015, 1), MonthStamp(2015, 12)))
        for a, z, d in zip(h.alive, h.zombie, h.dead):
            assert a + z + d == h.cohort_size


class TestLifetimeDistribution:
    def mk(self, alive):
        return lifetime_summary(tl([A] * alive + [D]))

    def test_median_alive(self):
        dist = lifetime_distribution([self.mk(12), self.mk(24), self.mk(36)])
        assert dist["alive_months"].median == 24

    def test_single_summary(self):
        dist = lifetime_distribution([self.mk(7)])
        assert dist["alive_months"].median == 7

    def test_even_count_median_interpolates(self):
        dist = lifetime_distribution([self.mk(10), self.mk(20)])
        assert dist["alive_months"].median == 15

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty cohort"):
            lifetime_distribution([])


class TestPersistence:
    def test_record_roundtrip(self):
        t = tl([A, Z, M, D], site="roundtrip.org", start=MonthStamp(2017, 2))
        rec = timeline_to_record(t)
        assert rec == {"site": "roundtrip.org", "start": "2017-02", "states": "AZMD"}
        assert timeline_from_record(rec) == t

    def test_file_roundtrip(self, tmp_path):
        ts = [
            tl([A, M], site="b.com"),
            tl([Z, D, A], site="a.com", start=MonthStamp(2016, 5)),
        ]
        path = tmp_path / "timelines.jsonl"
        write_timelines(ts, path)
        back = read_timelines(path)
        assert back == sorted(ts, key=lambda t: t.site)

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "timelines.jsonl"
        write_timelines([tl([A], site="old.com")], path)
        before = path.read_bytes()
        calls = []

        def failing_record(t):
            calls.append(t.site)
            if len(calls) == 3:
                raise RuntimeError("serializer failed")
            return timeline_to_record(t)

        monkeypatch.setattr("newsforensics.timeline.timeline_to_record", failing_record)
        with pytest.raises(RuntimeError, match="serializer failed"):
            write_timelines([tl([A], site=f"s{i}.com") for i in range(5)], path)
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["timelines.jsonl"]

    def test_bad_state_code_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            timeline_from_record({"site": "x.com", "start": "2016-01", "states": "AXB"})

    def test_start_with_trailing_newline_names_path_and_line(self, tmp_path):
        path = tmp_path / "timelines.jsonl"
        rows = [
            {"site": "a.com", "start": "2015-01", "states": "AM"},
            {"site": "b.com", "start": "2015-01\n", "states": "AM"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected YYYY-MM"):
            read_timelines(path)


class TestAnnotations:
    def test_import_and_build(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "domain,year,month,state\n"
            "example.com,2016,3,alive\n"
            "example.com,2016,4,zombie\n"
            "other.net,2016,3,dead\n"
        )
        ann = read_annotations(path)
        assert ann["example.com"][MonthStamp(2016, 3)] == [A]
        ts = timelines_from_annotations(ann, (MonthStamp(2016, 1), MonthStamp(2016, 4)))
        by_site = {t.site: t for t in ts}
        assert by_site["example.com"].states == "MMAZ"
        assert by_site["other.net"].states == "MMDM"

    def test_conflicting_rows_aggregate(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "domain,year,month,state\n"
            "example.com,2016,3,dead\n"
            "example.com,2016,3,alive\n"
        )
        ts = timelines_from_annotations(read_annotations(path))
        assert ts[0].states == "A"

    def test_no_annotated_month_needs_a_window(self):
        with pytest.raises(ValueError, match="pass a window"):
            timelines_from_annotations({"a.com": {}, "b.com": {}})
        window = (MonthStamp(2016, 1), MonthStamp(2016, 2))
        assert [t.states for t in timelines_from_annotations({"a.com": {}}, window)] == ["MM"]

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("domain,year,state\nexample.com,2016,alive\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*month"):
            read_annotations(path)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("example.com,2016,3,undead", "unknown state 'undead'"),
            ("example.com,2016,3", "row too short, no state"),
            ("example.com,20x9,3,alive", "'20x9'"),
            ("example.com,2016,13,alive", "month out of range: 13"),
            ("not a domain,2016,3,alive", "not a valid site domain"),
        ],
        ids=["state", "short", "year", "month", "domain"],
    )
    def test_unknown_state_rejected(self, tmp_path, row, reason):
        path = tmp_path / "ann.csv"
        path.write_text(f"domain,year,month,state\nexample.com,2016,2,alive\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{reason}"):
            read_annotations(path)

    @pytest.mark.parametrize(
        "before, line",
        [("\n", 4), ('example.com,2016,1,"alive\n"\n', 5)],
        ids=["blank-line", "quoted-newline"],
    )
    def test_diagnostic_names_the_physical_line(self, tmp_path, before, line):
        path = tmp_path / "ann.csv"
        path.write_text("domain,year,month,state\nexample.com,2016,2,alive\n"
                        f"{before}example.com,2016,13,alive\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}:{line}: month out of range: 13$"):
            read_annotations(path)
