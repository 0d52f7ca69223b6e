import csv
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsforensics import files
from newsforensics.classify import FeatureEncoder
from newsforensics.traffic import (
    _FLOAT_FIELDS,
    _INT_FIELDS,
    _SCHEMA,
    REQUIRED_COLUMNS,
    SHARE_FIELDS,
    ProfileTable,
    TrafficProfile,
    cohort_report,
    describe,
    ecdf,
    edu_gov_ratios,
    load_profiles,
    parse_quantity,
)

from oracles import cohort_report_reference, encoder_reference, load_profiles_reference, table_rows


def profile_row(**overrides):
    row = {
        "domain": "example.com",
        "label": "fake",
        "global_rank": "197000",
        "country_rank": "5000",
        "category_rank": "120",
        "country": "US",
        "category": "News",
        "total_visits": "3.3M",
        "pages_per_visit": "2.33",
        "visit_duration_s": "163.4",
        "bounce_rate": "69.42",
        "src_direct": "40",
        "src_referrals": "10",
        "src_search": "25",
        "src_social": "20",
        "src_mail": "3",
        "src_display": "2",
        "backlinks": "4.7K",
        "referring_domains": "307",
        "edu_backlinks": "5",
        "gov_backlinks": "0",
        "edu_ref_domains": "2",
        "gov_ref_domains": "0",
    }
    row.update(overrides)
    return row


def write_csv(path, rows):
    lines = [",".join(REQUIRED_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in REQUIRED_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


class TestParseQuantity:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("4.7K", 4700),
            ("23.2M", 23200000),
            ("1.12M", 1120000),
            ("2B", 2000000000),
            ("307", 307),
            ("1,234", 1234),
            ("0", 0),
        ],
    )
    def test_values(self, raw, expected):
        assert parse_quantity(raw) == expected

    def test_fractional_unit_rejected(self):
        with pytest.raises(ValueError, match="whole"):
            parse_quantity("4.77")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="quantity"):
            parse_quantity("lots")

    # 1e1000000 overflows the decimal context itself
    @pytest.mark.parametrize("raw", ["inf", "Infinity", "-inf", "nan", "1e400", "1e400K",
                                     "1e1000000"])
    def test_non_finite_rejected(self, raw):
        with pytest.raises(ValueError):
            parse_quantity(raw)


class TestSchema:
    def test_readme_header_is_the_profile_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"\*\*Traffic profiles\*\*.*?```\n(.*?)```", readme, re.S).group(1)
        assert "".join(block.split()).split(",") == REQUIRED_COLUMNS
        assert REQUIRED_COLUMNS[:2] == ["domain", "label"]

    def test_count_and_float_columns(self):
        assert _INT_FIELDS == (
            "global_rank", "country_rank", "category_rank", "total_visits",
            "backlinks", "referring_domains", "edu_backlinks", "gov_backlinks",
            "edu_ref_domains", "gov_ref_domains",
        )
        assert _FLOAT_FIELDS == ("pages_per_visit", "visit_duration_s", "bounce_rate") + SHARE_FIELDS
        assert SHARE_FIELDS == (
            "src_direct", "src_referrals", "src_search", "src_social", "src_mail", "src_display",
        )
        typed = set(_INT_FIELDS) | set(_FLOAT_FIELDS)
        assert [c for c in REQUIRED_COLUMNS if c not in typed] == [
            "domain", "label", "country", "category",
        ]


class TestLoadProfiles:
    def test_well_formed_csv(self, tmp_path):
        path = tmp_path / "traffic.csv"
        write_csv(
            path,
            [
                profile_row(),
                profile_row(domain="b.com", label="real"),
                profile_row(domain="c.com"),
            ],
        )
        profiles, errors = load_profiles(path)
        assert len(profiles) == 3 and errors == []
        assert profiles["total_visits"][0] == 3300000
        assert profiles["backlinks"][0] == 4700

    def test_bounce_rate_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "traffic.csv"
        write_csv(path, [profile_row(bounce_rate="120")])
        profiles, errors = load_profiles(path)
        assert len(profiles) == 0
        assert len(errors) == 1 and "bounce_rate" in errors[0].reason

    def test_share_sum_tolerance(self, tmp_path):
        path = tmp_path / "traffic.csv"
        write_csv(path, [profile_row(src_direct="40.4")])  # sums to 100.4
        profiles, errors = load_profiles(path)
        assert len(profiles) == 1 and errors == []

    def test_share_sum_violation_rejected(self, tmp_path):
        path = tmp_path / "traffic.csv"
        write_csv(path, [profile_row(src_direct="80")])  # sums to 140
        profiles, errors = load_profiles(path)
        assert len(profiles) == 0 and "shares sum" in errors[0].reason

    def test_missing_column_is_hard_error(self, tmp_path):
        path = tmp_path / "traffic.csv"
        cols = [c for c in REQUIRED_COLUMNS if c != "bounce_rate"]
        row = profile_row()
        path.write_text(
            ",".join(cols) + "\n" + ",".join(str(row[c]) for c in cols) + "\n"
        )
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: missing required column: bounce_rate"):
            load_profiles(path)

    def test_absent_optional_fields_allowed(self, tmp_path):
        path = tmp_path / "traffic.csv"
        write_csv(path, [profile_row(global_rank="", total_visits="")])
        profiles, errors = load_profiles(path)
        assert errors == []
        assert profiles["global_rank"][0] is None
        assert profiles["total_visits"][0] is None

    def test_edu_exceeding_total_rejected(self, tmp_path):
        path = tmp_path / "traffic.csv"
        write_csv(path, [profile_row(edu_backlinks="99999")])
        profiles, errors = load_profiles(path)
        assert len(profiles) == 0 and "exceeds" in errors[0].reason

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "traffic.csv"
        write_csv(path, [profile_row(label="dubious")])
        profiles, errors = load_profiles(path)
        assert len(profiles) == 0 and "label" in errors[0].reason

    def test_json_lines(self, tmp_path):
        path = tmp_path / "traffic.jsonl"
        rec = {c: profile_row()[c] for c in REQUIRED_COLUMNS}
        rec["global_rank"] = 197000  # native ints allowed
        path.write_text(json.dumps(rec) + "\n")
        profiles, errors = load_profiles(path)
        assert len(profiles) == 1 and errors == []

        # malformed lines are rejected one by one; the good rows still load
        nested = dict(rec, domain="nested.com", global_rank=[1])
        bad = ["{not json", "5", "null", json.dumps(REQUIRED_COLUMNS), json.dumps(nested)]
        last = json.dumps(dict(rec, domain="other.com"))
        path.write_text("\n".join([json.dumps(rec)] + bad + [last]) + "\n")
        profiles, errors = load_profiles(path)
        assert len(profiles) == 2
        assert [e.line for e in errors] == [2, 3, 4, 5, 6]
        assert "not valid JSON" in errors[0].reason
        assert all("not a JSON object" in e.reason for e in errors[1:4])
        assert errors[4].site == "nested.com" and "global_rank" in errors[4].reason

    def test_json_lines_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps({c: profile_row()[c] for c in REQUIRED_COLUMNS})
        path.write_bytes(good.encode() + b'\n{"domain": "tr\xe9.com"}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: 'utf-8' codec can't "
                                             "decode byte 0xe9 in position 14: "):
            load_profiles(path)

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_json_lines_read_any_line_end(self, tmp_path, end):
        rec = {c: profile_row()[c] for c in REQUIRED_COLUMNS}
        lines = [json.dumps(rec), "", "5", json.dumps(dict(rec, domain="b.com"))]
        loaded = []
        for name, sep in (("n.jsonl", "\n"), ("other.jsonl", end)):
            path = tmp_path / name
            path.write_bytes(sep.join(lines).encode() + sep.encode())
            profiles, errors = load_profiles(path)
            loaded.append((list(profiles["site"]), [(e.line, e.reason) for e in errors]))
        assert loaded[0] == loaded[1] == (["example.com", "b.com"], [(3, "not a JSON object: 5")])

    def test_non_finite_and_negative_csv_values_rejected_per_row(self, tmp_path):
        path = tmp_path / "traffic.csv"
        bad = [
            ("total_visits", "inf"),
            ("backlinks", "Infinity"),
            ("total_visits", "1e400"),
            ("backlinks", "1e1000000"),
            ("pages_per_visit", "nan"),
            ("visit_duration_s", "inf"),
            ("pages_per_visit", "-0.5"),
            ("visit_duration_s", "-1"),
            ("bounce_rate", "NaN"),
            ("bounce_rate", "lots"),
            ("total_visits", "lots"),
        ]
        rows = [profile_row(domain="a.com")]
        rows += [profile_row(domain=f"bad{i}.com", **{f: v}) for i, (f, v) in enumerate(bad)]
        rows.append(profile_row(domain="z.com"))
        write_csv(path, rows)
        profiles, errors = load_profiles(path)
        assert list(profiles["site"]) == ["a.com", "z.com"]
        assert [(e.line, e.site) for e in errors] == [
            (i + 3, f"bad{i}.com") for i in range(len(bad))
        ]
        for e, (field, _) in zip(errors, bad):
            assert field in e.reason, e

    def test_non_finite_and_negative_json_values_rejected_per_row(self, tmp_path):
        path = tmp_path / "traffic.jsonl"
        rec = {c: profile_row()[c] for c in REQUIRED_COLUMNS}
        good = json.dumps(rec)
        bad = [
            ("pages_per_visit", "NaN"),
            ("visit_duration_s", "Infinity"),
            ("pages_per_visit", "-Infinity"),
            ("total_visits", "1e400"),
            ("pages_per_visit", "1e400"),
            ("visit_duration_s", "1" + "0" * 400),
            ("total_visits", "1" + "0" * 400),
            ("global_rank", "NaN"),
            ("visit_duration_s", "-3.5"),
        ]
        lines = [good]
        for i, (field, token) in enumerate(bad):
            # raw tokens: json.dumps would quote them
            line = json.dumps(dict(rec, domain=f"bad{i}.com"))
            lines.append(line.replace(f'"{field}": "{rec[field]}"', f'"{field}": {token}'))
        path.write_text("\n".join(lines + [json.dumps(dict(rec, domain="z.com"))]) + "\n")
        profiles, errors = load_profiles(path)
        assert len(profiles) == 2
        assert [e.line for e in errors] == list(range(2, 2 + len(bad)))
        for e, (field, _) in zip(errors, bad):
            assert field in e.reason, e

    def test_csv_lines_are_physical_lines(self, tmp_path, chunk_sizes):
        # a blank line and a quoted newline each add a line the row count misses
        path = tmp_path / "traffic.csv"
        blank, quoted = tmp_path / "blank.csv", tmp_path / "quoted.csv"
        write_csv(path, [profile_row(domain="a.com"), profile_row(domain="b.com"),
                         profile_row(domain="c.com", label="dubious")])
        header, a, b, c = path.read_text().splitlines()
        blank.write_text("\n".join([header, a, "", b, c]) + "\n")
        with open(quoted, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(REQUIRED_COLUMNS)
            rows = [profile_row(category="News\nand more"), profile_row(label="dubious")]
            out.writerows([[row[c] for c in REQUIRED_COLUMNS] for row in rows])
        for _ in chunk_sizes:
            _, errors = load_profiles(blank)
            assert [(e.line, e.site) for e in errors] == [(5, "c.com")]
            profiles, errors = load_profiles(quoted)
            assert profiles["category"][0] == "News\nand more"
            assert [e.line for e in errors] == [4]

    @pytest.mark.parametrize("overrides,reason", [
        # counts beyond int64 compare exactly, not as rounded floats
        ({"backlinks": str(2**64), "edu_backlinks": str(2**64 + 1)},
         f"edu_backlinks ({2**64 + 1}) exceeds backlinks ({2**64})"),
        # sum() starts from 0, and 0 + -0.0 is 0.0
        ({f: "-0" for f in SHARE_FIELDS}, "traffic source shares sum to 0.00, not ~100"),
    ])
    def test_invariants_match_the_row_reference_at_their_edges(self, tmp_path, chunk_sizes,
                                                               overrides, reason):
        path = tmp_path / "traffic.csv"
        write_csv(path, [profile_row(domain="a.com"), profile_row(**overrides)])
        for _ in chunk_sizes:
            profiles, errors = load_profiles(path)
            assert (table_rows(profiles), errors) == load_profiles_reference(path)
            assert [e.reason for e in errors] == [reason]

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_repeated_domain_rejected_after_its_first_row(self, tmp_path, chunk_sizes, suffix):
        # a row rejected for another reason still claims its domain, in any later chunk
        rows = [profile_row(domain="a.com"), profile_row(domain="c.com", label="dubious"),
                profile_row(domain="www.a.com", label="real"), profile_row(domain="C.com")]
        path = tmp_path / f"traffic{suffix}"
        if suffix == ".csv":
            write_csv(path, rows)
        else:
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        first = 2 if suffix == ".csv" else 1  # the CSV header is line 1
        for _ in chunk_sizes:
            profiles, errors = load_profiles(path)
            assert list(profiles["site"]) == ["a.com"]
            assert [(e.line - first, e.site, e.reason) for e in errors] == [
                (1, "c.com", "label must be fake or real, got 'dubious'"),
                (2, "www.a.com", f"duplicate domain a.com, first on line {first}"),
                (3, "C.com", f"duplicate domain c.com, first on line {first + 1}"),
            ]
            assert (table_rows(profiles), errors) == load_profiles_reference(path)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_chunk_edges_match_the_row_reference(self, tmp_path, chunk_sizes, suffix):
        # blank lines, a newline inside a value, rejected rows and repeated domains
        # fall on every chunk edge at 1 and 2 rows
        rows = [profile_row(domain="a.com"), "",
                profile_row(domain="b.com", category="News\nmore"), "", "",
                profile_row(domain="c.com", label="dubious"), profile_row(domain="d.com"), "",
                profile_row(domain="www.b.com"), profile_row(domain="e.com", backlinks="-1"),
                profile_row(domain="C.com", label="real"), "", profile_row(domain="f.com")]
        path = tmp_path / f"traffic{suffix}"
        if suffix == ".csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                out = csv.writer(fh)
                out.writerow(REQUIRED_COLUMNS)
                for row in rows:
                    out.writerow([row[c] for c in REQUIRED_COLUMNS] if row else [])
        else:
            path.write_text("".join((json.dumps(row) if row else "") + "\n" for row in rows)
                            + "{broken\n\n5\n")
        for _ in chunk_sizes:
            profiles, errors = load_profiles(path)
            assert list(profiles["site"]) == ["a.com", "b.com", "d.com", "f.com"]
            assert profiles["category"][1] == "News\nmore"
            assert [e.site for e in errors] == ["c.com", "www.b.com", "e.com", "C.com"] + (
                ["?", "?"] if suffix == ".jsonl" else [])
            assert (table_rows(profiles), errors) == load_profiles_reference(path)

    @pytest.mark.parametrize("text, suffix", [
        (",".join(REQUIRED_COLUMNS) + "\n\n", ".csv"), ("\n\n", ".jsonl"), ("\n5\n\n", ".jsonl")])
    def test_a_file_without_rows_loads_an_empty_table(self, tmp_path, chunk_sizes, text, suffix):
        path = tmp_path / f"traffic{suffix}"
        path.write_text(text)
        for _ in chunk_sizes:
            profiles, errors = load_profiles(path)
            assert len(profiles) == 0 and all(len(profiles[name]) == 0 for name in _SCHEMA)
            assert [e.line for e in errors] == ([2] if "5" in text else [])

    def test_repeated_strings_share_one_object(self, tmp_path, chunk_sizes):
        path = tmp_path / "traffic.jsonl"
        rows = [profile_row(domain=f"s{i}.com", label=" Fake", country="US ")
                for i in range(5)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        for _ in chunk_sizes:
            profiles, _ = load_profiles(path)
            for name, value in [("label", "fake"), ("country", "US"), ("category", "News")]:
                assert list(profiles[name]) == [value] * 5
                assert len({id(text) for text in profiles[name]}) == 1, name

    def test_working_memory_is_a_chunk_not_the_file(self, tmp_path):
        """What a load allocates beyond the table it returns, per row, over 16
        chunks.  Measured with tracemalloc (Python 3.11, this export): about
        130 B per row when each chunk's raw cells are freed before the next
        is read, 682 B per row when every raw cell of the file is held before
        any is parsed.  The bound lies between."""
        rng = random.Random("transient")
        n = 16 * files.CSV_CHUNK_ROWS
        lines = [",".join(REQUIRED_COLUMNS)]
        for i in range(n):
            row = profile_row(domain=f"site{i}.com", label=rng.choice(["fake", "real"]),
                              global_rank=str(rng.randrange(1, 10**6)),
                              total_visits=f"{rng.randrange(1, 999)}.{rng.randrange(10)}K")
            lines.append(",".join(row[c] for c in REQUIRED_COLUMNS))
        path = tmp_path / "traffic.csv"
        path.write_text("\n".join(lines) + "\n")
        load_profiles(path)  # lazy imports and caches settle outside the measure
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            profiles, errors = load_profiles(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(profiles) == n and not errors
        assert (peak - held) / n < 300

    def test_json_lines_missing_key(self, tmp_path):
        path = tmp_path / "traffic.jsonl"
        rec = {c: profile_row()[c] for c in REQUIRED_COLUMNS}
        del rec["label"]
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}:1: missing required column: label"):
            load_profiles(path)


class TestDescribe:
    def test_one_to_ten(self):
        stats = describe(range(1, 11))
        assert stats.median == 5.5
        assert stats.p90 == pytest.approx(9.1)
        assert stats.mean == 5.5

    def test_constant_sequence(self):
        stats = describe([7, 7, 7])
        assert stats.mean == 7 and stats.std == 0

    def test_population_std(self):
        assert describe([1, 3]).std == pytest.approx(1.0)

    def test_sample_std_flag(self):
        assert describe([1, 3], sample_std=True).std == pytest.approx(math.sqrt(2))
        assert describe([7], sample_std=True).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe([])

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
        st.floats(min_value=0.1, max_value=100),
    )
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariant_and_scale_equivariant(self, values, scale):
        base = describe(values)
        permuted = describe(list(reversed(values)))
        for field in ("mean", "std", "median", "p90"):
            assert getattr(permuted, field) == pytest.approx(
                getattr(base, field), rel=1e-12, abs=1e-9
            )
        scaled = describe([v * scale for v in values])
        assert scaled.mean == pytest.approx(base.mean * scale, rel=1e-9, abs=1e-6)
        assert scaled.std == pytest.approx(base.std * scale, rel=1e-9, abs=1e-6)
        assert scaled.median == pytest.approx(base.median * scale, rel=1e-9, abs=1e-6)
        assert scaled.p90 == pytest.approx(base.p90 * scale, rel=1e-9, abs=1e-6)

    def test_median_p90_within_range(self):
        stats = describe([3, 9, 1, 4])
        assert 1 <= stats.median <= 9
        assert 1 <= stats.p90 <= 9


class TestEcdf:
    def test_single_value(self):
        assert ecdf([2]) == [(2.0, 1.0)]

    def test_duplicates_collapse(self):
        assert ecdf([1, 2, 2]) == [(1.0, pytest.approx(1 / 3)), (2.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_nondecreasing_and_ends_at_one(self, values):
        points = ecdf(values)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0


class TestEduGovRatios:
    def test_basic_ratio(self):
        p = TrafficProfile("a.com", "fake", backlinks=50, edu_backlinks=5)
        assert edu_gov_ratios(ProfileTable.of([p]))["edu_backlink_ratio"] == [0.10]

    def test_zero_denominator(self):
        p = TrafficProfile("a.com", "fake", backlinks=0, edu_backlinks=0)
        assert edu_gov_ratios(ProfileTable.of([p]))["edu_backlink_ratio"] == [0.0]

    def test_zero_numerator(self):
        p = TrafficProfile("a.com", "fake", referring_domains=300, gov_ref_domains=0)
        assert edu_gov_ratios(ProfileTable.of([p]))["gov_ref_domain_ratio"] == [0.0]


def make_profile(site, label, bounce, visits):
    return TrafficProfile(
        site,
        label,
        bounce_rate=bounce,
        total_visits=visits,
        backlinks=100,
        edu_backlinks=10,
        gov_backlinks=0,
        referring_domains=10,
        edu_ref_domains=1,
        gov_ref_domains=0,
    )


class TestCohortReport:
    def test_known_moments(self):
        profiles = [
            make_profile("a.com", "fake", 60.0, 100),
            make_profile("b.com", "fake", 80.0, 300),
            make_profile("c.com", "real", 50.0, 1000),
            make_profile("d.com", "real", 50.0, 3000),
        ]
        report = cohort_report(ProfileTable.of(profiles))
        fake_bounce = report.stats["bounce_rate"]["fake"]
        assert fake_bounce.mean == 70.0
        assert fake_bounce.std == pytest.approx(10.0)
        assert report.stats["total_visits"]["real"].median == 2000
        assert report.warnings == []

    def test_identical_cohorts_identical_rows(self):
        fake = [make_profile(f"f{i}.com", "fake", 50 + i, 100 * (i + 1)) for i in range(4)]
        real = [make_profile(f"r{i}.com", "real", 50 + i, 100 * (i + 1)) for i in range(4)]
        report = cohort_report(ProfileTable.of(fake + real))
        for metric, per_label in report.stats.items():
            assert per_label["fake"] == per_label["real"], metric

    def test_single_label_warns(self):
        report = cohort_report(ProfileTable.of([make_profile("a.com", "real", 10, 5)]))
        assert report.warnings
        assert "bounce_rate" in report.stats
        assert list(report.stats["bounce_rate"]) == ["real"]

    def test_matches_describe_per_group(self):
        profiles = [
            make_profile("a.com", "fake", 61.5, 10),
            make_profile("b.com", "fake", 72.5, 20),
            make_profile("c.com", "real", 55.0, 30),
        ]
        report = cohort_report(ProfileTable.of(profiles))
        assert report.stats["bounce_rate"]["fake"] == describe([61.5, 72.5])
        assert report.stats["bounce_rate"]["real"] == describe([55.0])

    def test_ratio_ecdfs_present(self):
        report = cohort_report(ProfileTable.of([make_profile("a.com", "fake", 50, 10)]))
        assert report.ratio_ecdfs["edu_backlink_ratio"]["fake"] == [(0.1, 1.0)]

    def test_to_dict_serializable(self):
        report = cohort_report(ProfileTable.of([make_profile("a.com", "fake", 50, 10)]))
        json.dumps(report.to_dict())


# Cells for the differential test: quantities, signs, non-finite and
# non-numeric text, and values that break one row invariant each.
_ANY_CELL = ["", " ", "0", "-0", "-1", "007", "1e3", "1.5", "4.7K", "1,234", "sNaN", "inf",
             "nan", "lots", "1" + "0" * 400, "99999999999999999999999", "1e1000000", "\u0663"]
_CELL_CHOICES = {
    "domain": ["a.com", "www.b.com", "https://c.com/x", "not a domain", "", " "],
    "label": ["fake", "real", "Real ", "", " ", "dubious"],
    "country": ["US", " GB ", "", " "],
    "bounce_rate": ["0", "100", "100.5", "-0.0"],
    "src_direct": ["38.9", "41.1", "39", "41", "-0"],  # share sums 98.9, 101.1, 99, 101
    "edu_backlinks": ["5000", "4700", "4701"],  # backlinks are 4.7K
    "edu_ref_domains": ["307", "308"],
    "global_rank": ["1", "0"],
}
_JSON_VALUES = [None, 0, -1, 7, 2.5, 1e3, True, [1], {"a": 1}, 10**30, float("inf")]


def _random_row(rng, i):
    row = profile_row(domain=f"s{i}.com", label=rng.choice(["fake", "real"]))
    if i and rng.random() < 0.05:
        row["domain"] = f"www.s{rng.randrange(i)}.com"  # a site an earlier row names
    for column in rng.sample(REQUIRED_COLUMNS, rng.choice([0, 0, 1, 1, 2, 3])):
        row[column] = rng.choice(_CELL_CHOICES.get(column, []) + _ANY_CELL)
    return row


def _write_random_csv(path, rng, n):
    header = list(REQUIRED_COLUMNS)
    if rng.random() < 0.2:
        header.remove("label")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for i in range(n):
            row = _random_row(rng, i)
            if rng.random() < 0.1:
                row["category"] = "News\nmore"  # a quoted newline
            cells = [row[c] for c in header]
            if rng.random() < 0.05:
                cells = cells[: rng.randrange(len(cells))]  # a short row
            elif rng.random() < 0.05:
                cells.append("extra")
            out.writerow(cells)
            if rng.random() < 0.1:
                fh.write("\r\n")  # a blank line


def _write_random_json_lines(path, rng, n):
    lines = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["{broken", "5", "null", '["a.com"]', ""]))
            continue
        row = _random_row(rng, i)
        if roll < 0.3:
            row[rng.choice(REQUIRED_COLUMNS)] = rng.choice(_JSON_VALUES)
        if roll > 0.97:
            del row["label"]
        lines.append(json.dumps(row))
    path.write_text("\n".join(lines) + "\n")


def _load_or_error(load, path, allow_unlabeled):
    try:
        profiles, errors = load(path, allow_unlabeled=allow_unlabeled)
    except ValueError as exc:
        return str(exc)
    return (profiles if isinstance(profiles, list) else table_rows(profiles)), errors


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_column_loader_matches_row_reference(tmp_path, chunk_sizes, suffix):
    rng = random.Random(f"loader:{suffix}")
    write = _write_random_csv if suffix == ".csv" else _write_random_json_lines
    paths = [tmp_path / f"t{trial}{suffix}" for trial in range(40)]
    for path in paths:
        write(path, rng, rng.randrange(0, 40))
    expected = {(path, allow_unlabeled): _load_or_error(load_profiles_reference, path,
                                                        allow_unlabeled)
                for path in paths for allow_unlabeled in (False, True)}
    for rows in chunk_sizes:
        for (path, allow_unlabeled), expect in expected.items():
            got = _load_or_error(load_profiles, path, allow_unlabeled)
            assert got == expect, (rows, path.name, allow_unlabeled)
    loaded = [expect for expect in expected.values() if not isinstance(expect, str)]
    accepted = sum(len(profiles) for profiles, _ in loaded)
    reasons = [e.reason for _, errors in loaded for e in errors]
    assert accepted > 300 and len(reasons) > 300
    for check in ["not a valid site", "duplicate domain", "label must", ": not a quantity", ": not a finite count",
                  "could not convert", "finite and non-negative", "must be positive",
                  "out of [0, 100]", "shares sum", "exceeds"]:
        assert any(check in reason for reason in reasons), check


@st.composite
def _profile_rows(draw, prefix, countries):
    """Profiles with a few absent values each in some draws, counts beyond
    int64, and labels from one drawn set, so some draws have a single label."""
    labels = draw(st.sampled_from([("fake",), ("real",), ("fake", "real")]))
    absent = st.sets(st.sampled_from(_INT_FIELDS + _FLOAT_FIELDS + ("country", "category")),
                     max_size=2 if draw(st.booleans()) else 0)
    counts = st.one_of(st.integers(1, 10**6), st.integers(2**63, 2**70))
    rows = []
    for i in range(draw(st.integers(0, 8))):
        values = {name: draw(counts) for name in _INT_FIELDS}
        values.update({name: draw(st.floats(0.0, 100.0)) for name in _FLOAT_FIELDS})
        values.update(country=draw(st.sampled_from(countries)),
                      category=draw(st.sampled_from(["News", "Politics"])))
        values.update(dict.fromkeys(draw(absent)))
        rows.append(TrafficProfile(f"{prefix}{i}.com", draw(st.sampled_from(labels)), **values))
    return rows


def _outcome(run, *args):
    try:
        return run(*args)
    except ValueError as exc:
        return str(exc)


def _encode(fit_rows, rows):
    encoder = FeatureEncoder.fit(ProfileTable.of(fit_rows))
    return encoder.to_dict(), encoder.transform(ProfileTable.of(rows))


# "ZZ" is drawn only for scored rows: a category unseen at fit
@given(_profile_rows("f", ["US", "GB"]), _profile_rows("s", ["ZZ", "US", "GB"]))
@settings(max_examples=100, deadline=None)
def test_table_paths_match_row_references(fit_rows, rows):
    got, expect = _outcome(_encode, fit_rows, rows), _outcome(encoder_reference, fit_rows, rows)
    if isinstance(expect, str):
        assert got == expect
    else:
        assert got[0] == expect[0] and np.array_equal(got[1], expect[1])
    for profiles in (fit_rows, rows):
        assert (cohort_report(ProfileTable.of(profiles)).to_dict()
                == cohort_report_reference(profiles))
