"""The one reader of text inputs: ``files.read_text``, the line walk behind
``files.numbered_lines`` and ``files.read_csv``, and the two CSV inputs that
read through it (annotations and traffic profiles).  Tests that take
``chunk_sizes`` run at the shipped chunk size and at chunks of 1 and 2 rows."""

import re

import pytest

from newsforensics import files
from newsforensics.files import numbered_lines, read_csv, read_text, split_lines
from newsforensics.timeline import read_annotations
from newsforensics.traffic import REQUIRED_COLUMNS, load_profiles

from test_traffic import profile_row

BAD = "bad_domain!"  # a domain both readers reject, naming the row's line


def annotation_row(domain: str, note: str = "x") -> str:
    return f"{domain},2015,1,alive,{note}"


def traffic_row(domain: str, note: str = "x") -> str:
    row = profile_row(domain=domain)
    return ",".join(row[c] for c in REQUIRED_COLUMNS) + f",{note}"


# reader -> (header, row, load)
CSV_INPUTS = {
    "annotations": ("domain,year,month,state,note", annotation_row, read_annotations),
    "traffic": (",".join(REQUIRED_COLUMNS) + ",note", traffic_row, load_profiles),
}

# name -> (rows after the header, each a (domain, note) or a blank line "";
# the accepted sites; the line of the last row, which names BAD)
CSV_CASES = {
    "blank-lines": (["", ("a.com", "x"), "", "", ("b.com", "x"), (BAD, "x")],
                    ["a.com", "b.com"], 7),
    "quoted-newline": ([("a.com", '"x{end}y{end}z"'), ("b.com", "x"), (BAD, "x")],
                       ["a.com", "b.com"], 6),
    "short-row": ([("a.com", None), ("b.com", "x"), (BAD, None)], ["a.com", "b.com"], 4),
}


def write_case(path, reader, rows, end, header=None):
    head, row, _ = CSV_INPUTS[reader]
    lines = [header or head]
    for item in rows:
        if item == "":
            lines.append("")
            continue
        domain, note = item
        text = row(domain, "" if note is None else note.format(end=end))
        lines.append(text.rsplit(",", 1)[0] if note is None else text)  # short: no note cell
    path.write_bytes("".join(line + end for line in lines).encode())


def outcome(reader, path):
    """The sites a reader accepts and the line of each row it rejects; the
    annotation reader stops at its first bad row."""
    if reader == "traffic":
        profiles, errors = load_profiles(path)
        return sorted(profiles["site"]), [e.line for e in errors]
    try:
        return sorted(read_annotations(path)), []
    except ValueError as exc:
        return None, [int(re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))[1])]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("case", sorted(CSV_CASES))
@pytest.mark.parametrize("reader", sorted(CSV_INPUTS))
def test_both_csv_inputs_read_the_same_lines(tmp_path, chunk_sizes, reader, case, end):
    rows, sites, bad_line = CSV_CASES[case]
    path = tmp_path / "input.csv"
    for _ in chunk_sizes:
        write_case(path, reader, rows, end)
        assert outcome(reader, path)[1] == [bad_line]
        write_case(path, reader, rows[:-1], end)
        assert outcome(reader, path) == (sites, [])


@pytest.mark.parametrize("reader", sorted(CSV_INPUTS))
def test_a_repeated_header_name_keeps_its_last_column(tmp_path, chunk_sizes, reader):
    head = CSV_INPUTS[reader][0]
    path = tmp_path / "input.csv"
    # the first "domain" column holds BAD, the repeated one (in place of note) the site
    write_case(path, reader, [(BAD, "a.com"), (BAD, "b.com"), (BAD, "c.com")], "\n",
               header=head.rsplit(",", 1)[0] + ",domain")
    for _ in chunk_sizes:
        assert outcome(reader, path) == (["a.com", "b.com", "c.com"], [])


@pytest.mark.parametrize("line", [2, 3, 5])
@pytest.mark.parametrize("reader", sorted(CSV_INPUTS))
def test_a_bad_byte_names_its_line(tmp_path, chunk_sizes, reader, line):
    head, row, load = CSV_INPUTS[reader]
    rows = [row(f"s{i}.com").encode() for i in range(2, 6)]
    rows[line - 2] = rows[line - 2].replace(b",x", b",\xe9x")
    path = tmp_path / "input.csv"
    path.write_bytes(b"\r\n".join([head.encode(), *rows]) + b"\r\n")
    for _ in chunk_sizes:  # at 1 or 2 rows, earlier chunks were parsed before the byte
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: 'utf-8' codec "
                                             "can't decode byte 0xe9"):
            load(path)


@pytest.mark.parametrize("reader", sorted(CSV_INPUTS))
def test_a_missing_column_names_it(tmp_path, reader):
    head, _, load = CSV_INPUTS[reader]
    path = tmp_path / "input.csv"
    path.write_text(head.replace("month,", "").replace("global_rank,", "") + "\n")
    missing = "month" if reader == "annotations" else "global_rank"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing required "
                                         f"column: {missing}$"):
        load(path)


def read_whole(path, columns, required):
    """read_csv's chunks joined into one (lines, columns) pair, after checking
    that every chunk but the last holds CSV_CHUNK_ROWS rows and none is empty."""
    lines, cols, sizes = [], {name: () for name in columns}, []
    for chunk_lines, chunk in read_csv(path, columns, required):
        assert list(chunk) == list(columns)
        assert {len(cells) for cells in chunk.values()} == {len(chunk_lines)}
        sizes.append(len(chunk_lines))
        lines += chunk_lines
        cols = {name: cols[name] + chunk[name] for name in columns}
    assert all(size == files.CSV_CHUNK_ROWS for size in sizes[:-1])
    assert sizes[-1:] != [0]
    return lines, cols


class TestReadCsv:
    def test_cells_by_column(self, tmp_path, chunk_sizes):
        path = tmp_path / "t.csv"
        path.write_bytes(b'a,b,a\n1,2,3\n\n4\n"5\r\n6",7,8,9\n')
        for _ in chunk_sizes:
            lines, cols = read_whole(path, ["a", "b", "c"], ["a"])
            assert lines == [2, 4, 5]
            assert cols == {"a": ("3", None, "8"), "b": ("2", None, "7"),
                            "c": (None, None, None)}

    def test_a_quoted_cell_keeps_its_line_end(self, tmp_path, chunk_sizes):
        path = tmp_path / "t.csv"
        path.write_bytes(b'a\r"x\ry"\r"u\r\nv"\r')
        for _ in chunk_sizes:
            assert read_whole(path, ["a"], []) == ([2, 4], {"a": ("x\ry", "u\r\nv")})

    def test_chunks_split_rows_not_lines(self, tmp_path, monkeypatch):
        # blank lines and a quoted newline at the chunk edges count as lines only
        path = tmp_path / "t.csv"
        path.write_bytes(b'a\n1\n\n"2\n2"\n\n3\n\n\n4\n5\n\n')
        monkeypatch.setattr(files, "CSV_CHUNK_ROWS", 2)
        assert list(read_csv(path, ["a"], [])) == [
            ([2, 4], {"a": ("1", "2\n2")}), ([7, 10], {"a": ("3", "4")}), ([11], {"a": ("5",)})]

    def test_a_cell_beyond_the_field_limit_names_its_line(self, tmp_path, chunk_sizes):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n\"" + "x" * 200_000 + "\"\n")
        for _ in chunk_sizes:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: field larger "):
                read_whole(path, ["a"], [])

    def test_an_empty_file_lacks_every_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"")
        assert list(read_csv(path, ["a"], [])) == []
        with pytest.raises(ValueError, match="missing required column: a$"):
            list(read_csv(path, ["a"], ["a"]))

    @pytest.mark.parametrize("data", [b"a,b\n", b"a,b", b"a,b\r\n\r\n\n"])
    def test_a_header_only_file_yields_no_chunk(self, tmp_path, chunk_sizes, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        for _ in chunk_sizes:
            assert list(read_csv(path, ["a", "c"], ["b"])) == []


class TestReadText:
    @pytest.mark.parametrize(
        "data, line, position",
        [
            (b"\xe9abc\n", 1, 0),
            (b"ab\r\ncd\xe9\n", 2, 2),
            (b"ab\rc\xe9\n", 2, 1),
            (b"a\n\r\n\rbc\xe9", 4, 2),
            (b"a\nb\xe9", 2, 1),
        ],
        ids=["first-line", "after-crlf", "after-cr", "mixed-ends", "eof-no-newline"],
    )
    def test_a_bad_byte_names_its_line_as_the_walk_does(self, tmp_path, data, line, position):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        expected = (f"{path}:{line}: 'utf-8' codec can't decode byte 0xe9 in position "
                    f"{position}: ")
        with pytest.raises(ValueError) as whole:
            read_text(path)
        with pytest.raises(ValueError) as walked:
            list(numbered_lines(path))
        assert str(whole.value).startswith(expected)
        assert str(walked.value).startswith(expected)

    def test_text_is_returned_as_stored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc d\n".encode())
        assert read_text(path) == "a\r\nb\rc d\n"


class TestByteOrderMark:
    def test_dropped_from_the_first_line_only(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("\ufeffa\n\ufeffb\n".encode())
        assert read_text(path) == "a\n\ufeffb\n"
        assert list(numbered_lines(path)) == [(1, "a"), (2, "\ufeffb")]

    def test_alone_is_an_empty_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("\ufeff".encode())
        assert read_text(path) == ""
        assert list(numbered_lines(path)) == []


def test_lines_end_only_at_line_feed_and_carriage_return(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a\x0cb\x1cc d\u0085e\r\nf\rg\n\n  \nh".encode())
    assert list(numbered_lines(path)) == [
        (1, "a\x0cb\x1cc d\u0085e"), (2, "f"), (3, "g"), (6, "h")]


@pytest.mark.parametrize("text, lines", [
    ("", []), ("a", ["a"]), ("a\n", ["a"]), ("\n", [""]), ("a\n\n", ["a", ""]),
    ("a\r\nb\rc\nd", ["a", "b", "c", "d"]), ("a\r\r\n", ["a", ""]),
    ("a\x0cb\x1cc\x1dd\x1ee\x85f\u2028g\u2029h\n",
     ["a\x0cb\x1cc\x1dd\x1ee\x85f\u2028g\u2029h"]),
])
def test_split_lines_ends_lines_as_the_walk_does(tmp_path, text, lines):
    assert split_lines(text) == lines
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert list(numbered_lines(path)) == [(i, s) for i, s in enumerate(lines, 1) if s.strip()]
