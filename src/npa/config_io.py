"""Flat key=value config text: parse, type, and serialize.

One ``key = value`` pair per line; ``#`` starts a comment. A key is a
field of ``ModelConfig`` or ``TrainConfig`` and its type is that field's
annotation: ``int`` (an optional sign and ASCII digits), ``float``,
``float | None`` (``none`` clears it), ``bool`` (``true``/``false``),
``list`` (comma-separated integers) or ``str``. A field without a default
is a required key. Unknown keys are rejected outright so a config file can
never silently misconfigure a run.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields

from .data import parse_int
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

__all__ = [
    "config_to_kv",
    "model_config_from_kv",
    "parse_config_file",
    "parse_kv_text",
]


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.lower() == "true"


# (parse, format) per field annotation.
_CODECS = {
    int: (parse_int, str),
    float: (float, lambda v: repr(float(v))),
    float | None: (lambda raw: None if raw.lower() == "none" else float(raw),
                   lambda v: "none" if v is None else repr(float(v))),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    list: (lambda raw: [parse_int(p) for p in raw.split(",") if p.strip() != ""],
           lambda v: ",".join(str(int(x)) for x in v)),
    str: (str, str),
}

# Field name -> codec per config class; a field of any other type fails here, at import.
_SCHEMA = {cls: {name: _CODECS[hint] for name, hint in typing.get_type_hints(cls).items()}
           for cls in (ModelConfig, TrainConfig)}


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


def _typed_kwargs(text: str, classes, unknown: str) -> list:
    """Typed constructor kwargs for each class, from config text, in key order."""
    out = [{} for _ in classes]
    for key, raw in parse_kv_text(text).items():
        owner = next((i for i, cls in enumerate(classes) if key in _SCHEMA[cls]), None)
        if owner is None:
            raise ConfigError(f"{unknown} {key!r}")
        try:
            out[owner][key] = _SCHEMA[classes[owner]][key][0](raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse value {raw!r}") from None
    return out


def _missing(cls, kwargs) -> list:
    """Fields of cls without a default that kwargs leaves out."""
    return [f.name for f in fields(cls) if f.name not in kwargs
            and f.default is MISSING and f.default_factory is MISSING]


def _model_config(kwargs) -> ModelConfig:
    missing = _missing(ModelConfig, kwargs)
    if missing:
        raise ConfigError(f"config is missing required key {missing[0]!r}")
    return ModelConfig(**kwargs)


def parse_config_file(text: str, num_items: int | None = None):
    """Parse a combined model + training config into (ModelConfig,
    TrainConfig or None). A TrainConfig is built only when its required key
    (``epochs``) is present. num_items may be supplied by the caller (from
    the data) when the file omits it."""
    model_kwargs, train_kwargs = _typed_kwargs(text, (ModelConfig, TrainConfig),
                                               "unknown config key")
    if "num_items" not in model_kwargs:
        if num_items is None:
            raise ConfigError("config is missing num_items and no catalog was given")
        model_kwargs["num_items"] = num_items
    model_cfg = _model_config(model_kwargs)
    train_cfg = None
    missing = _missing(TrainConfig, train_kwargs)
    if not missing:
        train_cfg = TrainConfig(**train_kwargs)
    elif train_kwargs:
        extra = ", ".join(sorted(train_kwargs))
        raise ConfigError(f"training keys ({extra}) given without {', '.join(missing)}")
    return model_cfg, train_cfg


def config_to_kv(config) -> str:
    """One ``key = value`` line per field of a config dataclass, in field order."""
    codecs = _SCHEMA[type(config)]
    return "".join(f"{f.name} = {codecs[f.name][1](getattr(config, f.name))}\n"
                   for f in fields(config))


def model_config_from_kv(text: str) -> ModelConfig:
    (kwargs,) = _typed_kwargs(text, (ModelConfig,), "unknown model config key")
    return _model_config(kwargs)
