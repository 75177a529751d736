"""Flat key=value config text: parse, type, and serialize.

One ``key = value`` pair per line; ``#`` starts a comment. Booleans are
``true``/``false``, integer lists are comma-separated, and ``none``
clears an optional. Unknown keys are rejected outright so a config file
can never silently misconfigure a run.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

__all__ = [
    "format_value",
    "model_config_from_kv",
    "model_config_to_kv",
    "parse_config_file",
    "parse_kv_text",
]

_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}
_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}

_INT_LIST_KEYS = {"channels_per_layer"}
_BOOL_KEYS = {"tie_output_embeddings", "use_positions"}
_STR_KEYS = {"variant", "sc_last_extraction", "mode"}
_INT_KEYS = {
    "num_items", "embedding_dim", "num_layers", "num_patterns",
    "mc_last_layer_heads", "max_sequence_length",
    "epochs", "batch_size", "permutations_per_basket", "seed",
}
_FLOAT_KEYS = {"dropout_rate", "gumbel_temperature", "learning_rate", "weight_decay"}
_OPT_FLOAT_KEYS = {"gradient_clip_norm"}


def parse_kv_text(text: str) -> dict:
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def _typed(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _OPT_FLOAT_KEYS:
            return None if raw.lower() == "none" else float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError(raw)
        if key in _INT_LIST_KEYS:
            return [int(p) for p in raw.split(",") if p.strip() != ""]
        if key in _STR_KEYS:
            return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse value {raw!r}") from None
    raise ConfigError(f"unknown config key {key!r}")


def format_value(key: str, value) -> str:
    if key in _BOOL_KEYS:
        return "true" if value else "false"
    if key in _INT_LIST_KEYS:
        return ",".join(str(int(v)) for v in value)
    if key in _OPT_FLOAT_KEYS and value is None:
        return "none"
    if key in _FLOAT_KEYS or key in _OPT_FLOAT_KEYS:
        return repr(float(value))
    return str(value)


def parse_config_file(text: str, num_items: int | None = None):
    """Parse a combined model + training config.

    Returns (ModelConfig, TrainConfig or None). A TrainConfig is built
    only when an ``epochs`` key is present. num_items may be supplied by
    the caller (from the data) when the file omits it.
    """
    kv = parse_kv_text(text)
    model_kwargs = {}
    train_kwargs = {}
    for key, raw in kv.items():
        value = _typed(key, raw)
        if key in _MODEL_FIELDS:
            model_kwargs[key] = value
        elif key in _TRAIN_FIELDS:
            train_kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if "num_items" not in model_kwargs:
        if num_items is None:
            raise ConfigError("config is missing num_items and no catalog was given")
        model_kwargs["num_items"] = num_items
    for required in ("embedding_dim", "num_layers", "channels_per_layer"):
        if required not in model_kwargs:
            raise ConfigError(f"config is missing required key {required!r}")
    model_cfg = ModelConfig(**model_kwargs)
    train_cfg = None
    if "epochs" in train_kwargs:
        train_cfg = TrainConfig(**train_kwargs)
    elif train_kwargs:
        extra = ", ".join(sorted(train_kwargs))
        raise ConfigError(f"training keys ({extra}) given without epochs")
    return model_cfg, train_cfg


def model_config_to_kv(config: ModelConfig) -> str:
    lines = []
    for f in fields(ModelConfig):
        lines.append(f"{f.name} = {format_value(f.name, getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def model_config_from_kv(text: str) -> ModelConfig:
    kv = parse_kv_text(text)
    kwargs = {}
    for key, raw in kv.items():
        if key not in _MODEL_FIELDS:
            raise ConfigError(f"unknown model config key {key!r}")
        kwargs[key] = _typed(key, raw)
    return ModelConfig(**kwargs)

