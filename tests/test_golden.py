"""Pinned artifact digests of the full CLI pipeline on the fixture corpus.

Two runs of the same code agreeing (``TestEndToEndDeterminism``) says
nothing about drift between commits; this test compares one run against
a committed record instead.  Every ``out/`` file outside ``manifests/``
must match its sha256.  Run manifests are compared on their outputs and
input digests only: their input paths outside ``out/`` are absolute, so
they depend on the temporary directory, and their config hash leaves out
paths but holds the archive URLs, which carry the server's port.

After an intended, documented output change, rewrite the record with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import newsforensics
from fixture_corpus import build_corpus, serve
from test_cli import run_full_pipeline

GOLDEN = Path(__file__).parent / "data" / "golden_artifacts.json"
SEED = 11


def artifact_record(out: Path) -> dict:
    digests, manifests = {}, {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(out).as_posix()
        if rel.startswith("manifests/"):
            manifest = json.loads(path.read_text())
            manifests[rel] = {
                "outputs": manifest["outputs"],
                "inputs": {Path(k).name: v for k, v in manifest["inputs"].items()},
            }
        else:
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"sha256": digests, "manifests": manifests}


def pipeline_record(root: Path) -> dict:
    corpus = build_corpus(root / "corpus")
    out = root / "out"
    with serve(corpus) as (base_url, _):
        run_full_pipeline(corpus, base_url, out, seed=SEED)
    return artifact_record(out)


def assert_matches_golden(got: dict) -> None:
    expected = json.loads(GOLDEN.read_text())
    assert sorted(got["sha256"]) == sorted(expected["sha256"])
    for rel, digest in expected["sha256"].items():
        assert got["sha256"][rel] == digest, f"artifact differs: {rel}"
    assert got["manifests"] == expected["manifests"]


def test_artifacts_match_golden_record(tmp_path):
    assert_matches_golden(pipeline_record(tmp_path))


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_artifacts_independent_of_hash_seed(tmp_path, hash_seed):
    """The same record under other string-hash seeds (set and dict orders)."""
    tests = Path(__file__).parent
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(
            [str(Path(newsforensics.__file__).resolve().parents[1]), str(tests)]
        ),
    }
    script = (
        "import json, sys; from pathlib import Path; from test_golden import pipeline_record; "
        "print(json.dumps(pipeline_record(Path(sys.argv[1]))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tests, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert_matches_golden(json.loads(result.stdout))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = pipeline_record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    sys.exit(0)
