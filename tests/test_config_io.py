"""Flat key=value config parsing: typing, rejection, round-trip."""

from dataclasses import MISSING, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npa.config_io import config_to_kv, model_config_from_kv, parse_config_file, parse_kv_text
from npa.errors import ConfigError
from npa.model import ModelConfig
from npa.training import TrainConfig


def test_parse_comments_and_spacing():
    kv = parse_kv_text("# header\n a = 1 \n\nb = two words # trailing\n")
    assert kv == {"a": "1", "b": "two words"}


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("a = 1\na = 2\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_file("embedding_dim = 4\nnum_layers = 1\n"
                          "channels_per_layer = 1\nmystery = 1\n", num_items=10)


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="embedding_dim"):
        parse_config_file("embedding_dim = eight\nnum_layers = 1\n"
                          "channels_per_layer = 1\n", num_items=10)


# int() reads "1_6" as 16 and the Arabic-Indic digits "\u0668" and "\u0662" as 8 and 2.
@pytest.mark.parametrize("key, value", [("embedding_dim", "1_6"), ("embedding_dim", "\u0668"),
                                        ("channels_per_layer", "2,\u0662"),
                                        ("channels_per_layer", "1_0")],
                         ids=["int_digit_groups", "int_non_ascii", "list_non_ascii",
                              "list_digit_groups"])
def test_integers_are_a_sign_and_ascii_digits(key, value):
    values = {"embedding_dim": "8", "num_layers": "1", "channels_per_layer": "2", key: value}
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    with pytest.raises(ConfigError, match=f"^key '{key}': cannot parse value '{value}'$"):
        parse_config_file(text, num_items=10)
    cfg, _ = parse_config_file(text.replace(value, "+2"), num_items=10)
    assert getattr(cfg, key) in (2, [2])


def test_num_items_from_caller_or_file():
    text = "embedding_dim = 4\nnum_layers = 1\nchannels_per_layer = 2\n"
    cfg, _ = parse_config_file(text, num_items=12)
    assert cfg.num_items == 12
    cfg2, _ = parse_config_file("num_items = 6\n" + text)
    assert cfg2.num_items == 6
    with pytest.raises(ConfigError, match="num_items"):
        parse_config_file(text)


def test_training_keys_need_epochs():
    text = ("embedding_dim = 4\nnum_layers = 1\nchannels_per_layer = 1\n"
            "batch_size = 16\n")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config_file(text, num_items=5)


def test_full_round_trip():
    cfg = ModelConfig(num_items=30, embedding_dim=16, num_layers=2,
                      channels_per_layer=[4, 2], num_patterns=32, variant="MC",
                      mc_last_layer_heads=5, dropout_rate=0.1,
                      max_sequence_length=24, tie_output_embeddings=True,
                      use_positions=False, gumbel_temperature=0.5)
    text = config_to_kv(cfg)
    assert model_config_from_kv(text) == cfg


def test_optional_float_none_round_trip():
    text = ("embedding_dim = 4\nnum_layers = 1\nchannels_per_layer = 1\n"
            "epochs = 1\ngradient_clip_norm = none\nmode = temporal\n")
    _, train_cfg = parse_config_file(text, num_items=5)
    assert train_cfg.gradient_clip_norm is None
    text2 = text.replace("none", "2.5")
    _, train_cfg2 = parse_config_file(text2, num_items=5)
    assert train_cfg2.gradient_clip_norm == 2.5


def _floats(**kw):
    return st.floats(allow_nan=False, allow_infinity=False, **kw)


@st.composite
def _non_default_configs(draw):
    """A ModelConfig and a TrainConfig with every defaulted field set off its default."""
    channels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    model = ModelConfig(
        num_items=draw(st.integers(1, 10**12)),
        embedding_dim=12 * draw(st.integers(1, 100)),  # divisible by every channel count
        num_layers=len(channels), channels_per_layer=channels,
        num_patterns=draw(st.integers(1, 10**6).filter(lambda v: v != 64)),
        variant="MC",
        mc_last_layer_heads=draw(st.integers(1, 100).filter(lambda v: v != 5)),
        dropout_rate=draw(_floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                  exclude_max=True)),
        max_sequence_length=draw(st.integers(1, 10**6).filter(lambda v: v != 64)),
        tie_output_embeddings=True, use_positions=False, sc_last_extraction="greedy",
        gumbel_temperature=draw(_floats(min_value=0.0, exclude_min=True)
                                .filter(lambda v: v != 1.0)))
    train = TrainConfig(
        epochs=draw(st.integers(0, 10**6)),
        batch_size=draw(st.integers(1, 10**6).filter(lambda v: v != 256)),
        learning_rate=draw(_floats(min_value=0.0).filter(lambda v: v != 3e-4)),
        permutations_per_basket=draw(st.integers(2, 100)),
        mode="any_order",
        seed=draw(st.integers(-2**63, 2**63).filter(lambda v: v != 0)),
        gradient_clip_norm=draw(_floats(min_value=0.0, exclude_min=True)),
        weight_decay=draw(_floats(min_value=0.0).filter(lambda v: v != 0.01)))
    return model, train


@settings(max_examples=200, deadline=None)
@given(configs=_non_default_configs(), data=st.data())
def test_every_field_round_trips(configs, data):
    model, train = configs
    for config in configs:
        for f in fields(config):
            if f.default is not MISSING:
                assert getattr(config, f.name) != f.default, f.name
    lines = (config_to_kv(model) + config_to_kv(train)).splitlines()
    assert [ln.split(" = ")[0] for ln in lines] == [f.name for c in configs for f in fields(c)]
    shuffled = "\n".join(data.draw(st.permutations(lines))) + "\n"
    assert parse_config_file(shuffled) == (model, train)
    assert model_config_from_kv(config_to_kv(model)) == model
