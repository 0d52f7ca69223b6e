import json

import pytest

from newsforensics.pipeline import (
    RunConfig,
    _display_path,
    write_json,
)


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig.from_sources(None, {}, {})
        assert config.seed == 0
        assert config.cosine_threshold == 0.5
        assert config.cache == config.out / "cache"

    def test_precedence_flags_over_env_over_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "naive_bayes", "folds": 3}))
        env = {"NEWSFORENSICS_MODEL": "mlp", "NEWSFORENSICS_FOLDS": "4"}
        config = RunConfig.from_sources(str(cfg), env, {"model": "random_forest"})
        assert config.model == "random_forest"  # flag wins
        assert config.folds == 4  # env beats file

    def test_env_bool_coercion(self):
        config = RunConfig.from_sources(None, {"NEWSFORENSICS_SAMPLE_STD": "true"}, {})
        assert config.sample_std is True

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="cosine_threshold"):
            RunConfig(cosine_threshold=0.0)
        with pytest.raises(ValueError, match="folds"):
            RunConfig(folds=1)

    def test_seed_masked_to_64_bits(self):
        assert RunConfig(seed=-1).seed == 2**64 - 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mistyped": True}))
        with pytest.raises(ValueError, match="mistyped"):
            RunConfig.from_sources(str(cfg), {}, {})


class TestDisplayPath:
    def test_inside_out_dir_relativized(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert _display_path(out / "x" / "y.json", out) == "x/y.json"

    def test_outside_out_dir_kept(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        other = tmp_path / "elsewhere.csv"
        assert _display_path(other, out) == str(other)


def test_write_json_stable_bytes(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": 1, "a": [1.5, 2]})
    first = path.read_bytes()
    write_json(path, {"a": [1.5, 2], "b": 1})
    assert path.read_bytes() == first
    assert first.endswith(b"\n")
