"""Run configuration: defaults, config-file parsing, and the run id.

Config files are "key = value" lines with '#' comments.  Command-line
flags override file values.  The run id is the SHA-1 of the canonical
(path-free) configuration, so reruns of the same configuration agree.
"""

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .lcm import LcmConfig
from .training import TrainSettings

# key name in files/flags, which is also the attribute
PATH_KEYS = ("manifest", "embeddings", "splits", "checkpoint", "output")


@dataclass
class RunConfig:
    d_j: int = 64
    n_heads: int = 8
    d_c: int = 16
    n_d: int = 8
    lambda_: float = 10.0
    gamma: float = TrainSettings.gamma
    theta: float = LcmConfig.threshold
    lr: float = TrainSettings.lr
    lcm_lr: float = LcmConfig.learning_rate
    epochs: int = TrainSettings.epochs
    warmup_epochs: int = TrainSettings.warmup_epochs
    lcm_epochs: int = LcmConfig.epochs
    episodes_per_epoch: int = TrainSettings.episodes_per_epoch
    eval_episodes: int = 50
    k_shot: int = TrainSettings.k_shot
    seed: int = TrainSettings.seed
    dropout: float = 0.1
    normalize_embeddings: bool = TrainSettings.normalize_embeddings
    threads: int = 1
    manifest: str | None = None
    embeddings: str | None = None
    splits: str | None = None
    checkpoint: str | None = None
    output: str | None = None

    def validate(self) -> "RunConfig":
        """Check the values no record carries, then build both records,
        which check the training and LCM values."""
        for name in ["d_j", "n_heads", "d_c", "n_d", "eval_episodes", "threads"]:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (self.lambda_ > 0 and math.isfinite(self.lambda_)):
            raise ConfigError(f"lambda must be positive and finite, got {self.lambda_}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_j % self.n_heads != 0:
            raise ConfigError(f"n_heads ({self.n_heads}) must divide d_j ({self.d_j})")
        self.train_settings()
        self.lcm_config()
        return self

    def train_settings(self) -> TrainSettings:
        return TrainSettings(
            epochs=self.epochs, warmup_epochs=self.warmup_epochs,
            episodes_per_epoch=self.episodes_per_epoch, k_shot=self.k_shot,
            lr=self.lr, gamma=self.gamma, seed=self.seed,
            normalize_embeddings=self.normalize_embeddings)

    def lcm_config(self) -> LcmConfig:
        return LcmConfig(threshold=self.theta, learning_rate=self.lcm_lr,
                         epochs=self.lcm_epochs)


# key name in files/flags -> (attribute, python type), in field order; the
# key is the attribute without its trailing "_" (lambda is a Python keyword)
NUMERIC_KEYS = {field.name.rstrip("_"): (field.name, field.type)
                for field in fields(RunConfig) if field.name not in PATH_KEYS}


def _convert(key: str, raw, kind):
    if isinstance(raw, kind) and not (kind is int and isinstance(raw, bool)):
        return raw
    text = str(raw).strip()
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects a boolean, got {raw!r}")
    try:
        if kind is int:
            return int(text)
        value = float(text)
    except ValueError as bad:
        raise ConfigError(f"{key} expects a {kind.__name__}, got {raw!r}") from bad
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def parse_config_file(path) -> dict[str, str]:
    """Read "key = value" lines; '#' starts a comment, blank lines skipped."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            if key not in NUMERIC_KEYS and key not in PATH_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then config-file values, then overrides (flags win)."""
    cfg = RunConfig()
    for source in (file_values or {}), (overrides or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            if key in NUMERIC_KEYS:
                attr, kind = NUMERIC_KEYS[key]
                setattr(cfg, attr, _convert(key, raw, kind))
            elif key in PATH_KEYS:
                setattr(cfg, key, str(raw))
            else:
                raise ConfigError(f"unknown config key {key!r}")
    return cfg.validate()


def canonical_dict(cfg: RunConfig) -> dict:
    """The semantic configuration under its file-key names.  Paths and the
    thread count are excluded: neither changes any computed number, so the
    same run hashes identically across machines and worker counts."""
    out = {}
    for key, (attr, kind) in NUMERIC_KEYS.items():
        if key == "threads":
            continue
        value = getattr(cfg, attr)
        out[key] = bool(value) if kind is bool else kind(value)
    return out


def run_id(cfg: RunConfig) -> str:
    """SHA-1 of the canonical configuration serialized deterministically."""
    blob = json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()
