"""Pinned artifact digests of the full CLI pipeline on the fixture corpus.

Two runs of the same code agreeing (``TestEndToEndDeterminism``) says
nothing about drift between commits; this test compares one run against
a committed record instead.  Every ``out/`` file outside ``manifests/``
must match its sha256.  Run manifests are compared on their outputs and
input digests only, because their config hash and absolute input paths
depend on the temporary directory and the archive server's port.

After an intended, documented output change, rewrite the record with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

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


def test_artifacts_match_golden_record(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = pipeline_record(tmp_path)
    assert sorted(got["sha256"]) == sorted(expected["sha256"])
    for rel, digest in expected["sha256"].items():
        assert got["sha256"][rel] == digest, f"artifact differs: {rel}"
    assert got["manifests"] == expected["manifests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = pipeline_record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    sys.exit(0)
