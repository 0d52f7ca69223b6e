"""Every file read or written goes through here.  Inputs are decoded as
UTF-8 and their errors name the file (and the line, in JSON lines).  Each
artifact is written under a temporary name and moved onto its path, so a
killed stage leaves the previous file; nothing is fsynced against power loss.
Writers stream their pieces, so no artifact is held whole in memory.
``recording`` notes the text files read and written, for a run manifest,
and moves the text files written in it into place together when it ends
without an error, so a stage that fails leaves every previous artifact."""

from __future__ import annotations

import csv
import json
import os
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


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Line ends are kept (``newline=""``), as csv needs."""
    _note_input(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_text(path: str | Path) -> str:
    with open_text(path) as fh:
        return fh.read()


def csv_rows(reader) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank row of a ``csv.reader`` and the physical line it starts
    on, counting blank lines and the extra lines of a quoted newline."""
    start = reader.line_num + 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1


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
    """Each non-blank line and its number, lines ending as in text mode
    (``\\n``, ``\\r\\n`` or ``\\r``).  Each line is decoded on its own, so a
    byte that is not UTF-8 is reported against its line."""
    _note_input(path)
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for line in chunk.splitlines():
                lineno += 1
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if text.strip():
                    yield lineno, text


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
