"""Every file read or written goes through here, and only here is an input
decoded and split into lines or CSV rows, by one rule: UTF-8, a leading
byte-order mark dropped, lines ending at ``\\n``, ``\\r\\n`` or ``\\r``, and a
byte that is not UTF-8 reported as ``path:line:``.  Each artifact is written
under a temporary name and moved onto its path, so a killed stage leaves the
previous file; nothing is fsynced against power loss.  Writers stream their
pieces, so no artifact is held whole in memory.  ``recording`` notes the text
files read and written, for a run manifest, and moves the text files written
in it into place together when it ends without an error, so a stage that
fails leaves every previous artifact."""

from __future__ import annotations

import csv
import json
import os
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from importlib import resources
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator


# (inputs, outputs, {path: finished temporary file}) of the innermost
# ``recording`` block of this context
_record: ContextVar[tuple[set[str], set[str], dict[Path, Path]] | None] = ContextVar(
    "record", default=None)


@contextmanager
def recording() -> Iterator[tuple[set[str], set[str]]]:
    """The paths of the text files read and written in the block (bundled
    data and binary files left out), filled in as it runs.  The text files
    written are moved into place, in write order, only when the block ends
    without an error; otherwise their temporary files are removed."""
    token = _record.set(record := (set(), set(), {}))
    try:
        yield record[:2]
        for path, tmp in record[2].items():
            os.replace(tmp, path)
    finally:
        _record.reset(token)
        for tmp in record[2].values():
            tmp.unlink(missing_ok=True)


def _note_input(path: str | Path) -> None:
    if (record := _record.get()) is not None:
        record[0].add(str(path))


def _lines(path: str | Path) -> Iterator[str]:
    """Each line of a file, its end kept, decoded on its own by the rule above."""
    _note_input(path)
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for line in chunk.splitlines(True):
                lineno += 1
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                yield text if lineno > 1 else text.removeprefix("\ufeff")


def read_text(path: str | Path) -> str:
    """The whole file, decoded at once by the rule above; a bad byte's line is
    found by counting the line ends before it."""
    _note_input(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        start = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        line = 1 + data.count(b"\n", 0, start) + data.count(b"\r", 0, start) - data.count(
            b"\r\n", 0, start)
        exc = UnicodeDecodeError(exc.encoding, data[start:exc.end], exc.start - start,
                                 exc.end - start, exc.reason)  # its position in the line
        raise ValueError(f"{path}:{line}: {exc}") from None


def read_csv(path: str | Path, columns: Iterable[str],
             required: Iterable[str]) -> tuple[list[int], dict[str, tuple]]:
    """The rows of a CSV with a header, as one cell tuple per name in
    ``columns``, and the physical line each row starts on, counting blank
    lines and the extra lines of a quoted newline.  Like csv.DictReader,
    blank lines are skipped, a repeated header name keeps its last column
    and a short row's missing cells are None; so are the cells of a name
    the header lacks, unless it is ``required``."""
    reader = csv.reader(_lines(path))
    try:
        header = next(reader, [])
        for name in required:
            if name not in header:
                raise ValueError(f"{path}: missing required column: {name}")
        lines, rows = [], []
        start = reader.line_num + 1
        for row in reader:
            if row:
                lines.append(start)
                rows.append(row)
            start = reader.line_num + 1
    except csv.Error as exc:  # a cell beyond csv's field size limit
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    width = len(header)
    rows = [r if len(r) == width else (r + [None] * width)[:width] for r in rows]
    cells = list(zip(*rows)) if rows else [()] * width
    index = {name: i for i, name in enumerate(header)}
    absent = (None,) * len(rows)
    return lines, {name: cells[index[name]] if name in index else absent for name in columns}


_LINE_END = re.compile(r"\r\n|\r|\n")


def split_lines(text: str) -> list[str]:
    """The lines of text, split by the rule above, without their ends: unlike
    ``str.splitlines``, a form feed or a Unicode separator ends no line.  A
    final line end adds no empty line."""
    lines = _LINE_END.split(text)
    if not lines[-1]:
        lines.pop()
    return lines


def read_bundled(name: str) -> str:
    """A data file shipped in ``newsforensics/data``."""
    return (resources.files("newsforensics.data") / name).read_text("utf-8")


def check(obj, shape: dict) -> None:
    """Raises TypeError or KeyError unless ``obj`` is a JSON object holding
    each key of ``shape`` with that key's type; ``[str]`` means a list of
    strings."""
    if not isinstance(obj, dict):
        raise TypeError(f"not an object: {type(obj).__name__}")
    for key, kind in shape.items():
        strings = kind == [str]
        value = obj[key]
        if not isinstance(value, list if strings else kind):
            raise TypeError(f"{key!r} is not a {'list' if strings else kind.__name__}")
        if strings and not all(isinstance(item, str) for item in value):
            raise TypeError(f"{key!r} is not a list of strings")


@contextmanager
def read_json(path: str | Path, shape: dict | None = None) -> Iterator:
    """Checked against ``shape`` if given.  A missing key or wrong type met
    while the caller reads nested values is also reported against the file."""
    text = read_text(path)
    try:
        obj = json.loads(text)
        del text  # not held while the caller reads the value
        if shape is not None:
            check(obj, shape)
        yield obj
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each non-blank line, without its end, and its number."""
    for lineno, line in enumerate(_lines(path), 1):
        if line.strip():
            yield lineno, line.rstrip("\r\n")


def read_json_lines(path: str | Path, parse: Callable) -> Iterator:
    """``parse`` of each non-blank line's JSON value; its ValueError or
    TypeError is reported against the line too."""
    for lineno, text in numbered_lines(path):
        try:
            value = parse(json.loads(text))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        yield value


@contextmanager
def replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A temporary file beside ``path`` (UTF-8 text unless ``binary``),
    moved onto ``path`` when the block ends and removed if it fails.  Text
    written inside ``recording`` is moved when the record ends instead, the
    last write of a path winning.  Only text is recorded: binary files are
    cache entries."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        if binary or (record := _record.get()) is None:
            os.replace(tmp, path)
        else:
            record[1].add(str(path))
            record[2][path] = tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    with replacing(path) as fh:
        fh.writelines(json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload))
        fh.write("\n")


def write_json_lines(path: str | Path, records: Iterable) -> None:
    with replacing(path) as fh:
        fh.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
