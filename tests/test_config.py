"""Run configuration: parsing, precedence, validation, and the run id."""

import pytest

from mlfewshot.config import (
    RunConfig,
    build_config,
    canonical_dict,
    parse_config_file,
    run_id,
)
from mlfewshot.errors import ConfigError


def test_defaults():
    cfg = RunConfig().validate()
    assert cfg.d_j == 64 and cfg.n_heads == 8 and cfg.d_c == 16 and cfg.n_d == 8
    assert cfg.gamma == 1.0 and cfg.theta == 0.65 and cfg.lambda_ == 10.0
    assert cfg.epochs == 30 and cfg.warmup_epochs == 3
    assert cfg.lr == 0.001 and cfg.lcm_lr == 0.01 and cfg.lcm_epochs == 20
    assert cfg.k_shot == 1 and cfg.threads == 1 and not cfg.normalize_embeddings


# ----------------------------------------------------------------- file parse


def test_parse_file_basics(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment line\n"
        "\n"
        "gamma = 0.5   # trailing comment\n"
        "epochs=4\n"
        "manifest = data/manifest.jsonl\n"
    )
    values = parse_config_file(path)
    assert values == {"gamma": "0.5", "epochs": "4", "manifest": "data/manifest.jsonl"}


@pytest.mark.parametrize("line,fragment", [
    ("gamma 0.5", "expected 'key = value'"),
    ("= 3", "empty key"),
    ("volume = 11", "unknown key"),
])
def test_parse_file_line_errors(tmp_path, line, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 1\n" + line + "\n")
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_config_file(path)
    assert ":2:" in str(err.value)                  # line number reported


def test_parse_file_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_file(path)


# ----------------------------------------------------------------- precedence


def test_flags_override_file():
    cfg = build_config({"gamma": "0.25", "epochs": "4"}, {"gamma": 0.75})
    assert cfg.gamma == 0.75
    assert cfg.epochs == 4


def test_none_overrides_are_skipped():
    cfg = build_config({"seed": "9"}, {"seed": None})
    assert cfg.seed == 9


def test_lambda_key_maps_to_attribute():
    cfg = build_config({"lambda": "2.5"})
    assert cfg.lambda_ == 2.5


def test_bool_parsing():
    for text, want in [("true", True), ("1", True), ("yes", True),
                       ("false", False), ("0", False), ("no", False)]:
        assert build_config({"normalize_embeddings": text}).normalize_embeddings is want
    with pytest.raises(ConfigError, match="boolean"):
        build_config({"normalize_embeddings": "maybe"})


def test_numeric_conversion_errors():
    with pytest.raises(ConfigError, match="expects a int"):
        build_config({"epochs": "four"})
    with pytest.raises(ConfigError, match="expects a float"):
        build_config({"gamma": "none"})
    with pytest.raises(ConfigError, match="finite"):
        build_config({"gamma": "inf"})
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(overrides={"volume": 11})


def test_path_keys_become_strings(tmp_path):
    cfg = build_config({"checkpoint": tmp_path / "m.ckpt"})
    assert cfg.checkpoint == str(tmp_path / "m.ckpt")


# ----------------------------------------------------------------- validation


@pytest.mark.parametrize("key,value,fragment", [
    ("d_j", 0, "d_j"),
    ("k_shot", 0, "k_shot"),
    ("epochs", -1, "epochs"),
    ("lr", 0.0, "lr"),
    ("gamma", -0.5, "gamma"),
    ("dropout", 1.0, "dropout"),
    ("theta", 0.4, "threshold"),
    ("threads", 0, "threads"),
    ("eval_episodes", 0, "eval_episodes"),
    ("lcm_epochs", 0, "lcm_epochs"),
    ("lcm_lr", 0.0, "lcm_lr"),
])
def test_validate_rejects(key, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_config(overrides={key: value})


def test_heads_must_divide_joint_dim():
    with pytest.raises(ConfigError, match="divide"):
        build_config({"d_j": "64", "n_heads": "6"})


def test_warmup_below_epochs():
    with pytest.raises(ConfigError, match="warmup"):
        build_config({"epochs": "3", "warmup_epochs": "3"})
    # zero total epochs leaves the schedule unused, so any warm-up is fine
    assert build_config({"epochs": "0", "warmup_epochs": "3"}).epochs == 0


def test_gamma_zero_is_legal():
    assert build_config({"gamma": "0"}).gamma == 0.0


# --------------------------------------------------------------------- run id


def test_run_id_stable_and_semantic():
    a = build_config({"gamma": "0.5"})
    b = build_config({"gamma": "0.5"})
    assert run_id(a) == run_id(b)
    assert run_id(a) != run_id(build_config({"gamma": "0.75"}))


def test_run_id_ignores_paths_and_threads(tmp_path):
    plain = build_config({"gamma": "0.5"})
    decorated = build_config({"gamma": "0.5", "threads": "8",
                              "manifest": str(tmp_path / "m.jsonl"),
                              "output": str(tmp_path)})
    assert run_id(plain) == run_id(decorated)
    assert "threads" not in canonical_dict(plain)
    assert "manifest" not in canonical_dict(plain)


def test_canonical_dict_uses_file_key_names():
    data = canonical_dict(RunConfig())
    assert "lambda" in data and "lambda_" not in data
    assert data["normalize_embeddings"] is False
