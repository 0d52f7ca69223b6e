import pytest

from newsforensics import files


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The chunk sizes to read inputs at, set in turn as the loop over them
    runs: files.CSV_CHUNK_ROWS as shipped, then 1 and 2 rows, so that rows,
    blank lines and quoted newlines meet a chunk edge."""
    def sizes():
        for rows in (files.CSV_CHUNK_ROWS, 1, 2):
            monkeypatch.setattr(files, "CSV_CHUNK_ROWS", rows)
            yield rows
    return sizes()
