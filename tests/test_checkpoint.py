"""Checkpoint container and attention export."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npa.checkpoint import (MAGIC, _checksum64, _write_container, checkpoint_info, load_checkpoint,
                            save_checkpoint)
from npa.config_io import config_to_kv
from npa.errors import CheckpointError, ConfigError
import npa.model
from npa.model import ModelConfig, init_params, named_parameters
from npa.recommend import export_attention

from conftest import one_tensor_payload, small_mc_config, small_sc_config


def test_round_trip_exact_after_float32(tmp_path):
    cfg = small_sc_config()
    params = init_params(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == cfg
    for (n1, t1), (n2, t2) in zip(named_parameters(params), named_parameters(loaded)):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data.astype(np.float32).astype(np.float64),
                                      t2.data)


def test_save_is_byte_deterministic(tmp_path):
    cfg = small_mc_config()
    params = init_params(cfg, seed=1)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, cfg, params)
    save_checkpoint(b, cfg, params)
    assert a.read_bytes() == b.read_bytes()


def test_flipped_byte_fails_checksum(tmp_path):
    cfg = small_sc_config()
    save_checkpoint(tmp_path / "m.ckpt", cfg, init_params(cfg, seed=2))
    blob = bytearray((tmp_path / "m.ckpt").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(tmp_path / "bad.ckpt")


def test_truncated_file_rejected(tmp_path):
    cfg = small_sc_config()
    save_checkpoint(tmp_path / "m.ckpt", cfg, init_params(cfg, seed=3))
    blob = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_bad_magic_rejected(tmp_path):
    (tmp_path / "junk.ckpt").write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_version_mismatch_rejected(tmp_path):
    cfg = small_sc_config()
    save_checkpoint(tmp_path / "m.ckpt", cfg, init_params(cfg, seed=4))
    blob = bytearray((tmp_path / "m.ckpt").read_bytes())
    # Rewrite the version word and re-stamp the checksum.
    import zlib
    blob[4:8] = struct.pack("<I", 99)
    payload = bytes(blob[4:-8])
    checksum = (zlib.crc32(payload) << 32) | zlib.crc32(payload, 0x4E504131)
    blob[-8:] = struct.pack("<Q", checksum)
    (tmp_path / "v99.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(tmp_path / "v99.ckpt")


# The element counts overflow int64: 65536^4 wraps to 0, and (2^32 - 1)^4
# to a negative number.
@pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1,) * 4],
                         ids=["wraps_to_zero", "wraps_negative"])
def test_tensor_too_large_for_int64_reads_as_truncated(tmp_path, dims):
    payload = one_tensor_payload(dims)
    path = tmp_path / "huge.ckpt"
    path.write_bytes(MAGIC + payload + struct.pack("<Q", _checksum64(payload)))
    for read in (load_checkpoint, checkpoint_info):
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: truncated checkpoint file$"):
            read(path)


def test_checkpoint_info_matches_construction(tmp_path):
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params)
    info = checkpoint_info(path)
    expected = [(n, tuple(t.data.shape)) for n, t in named_parameters(params)]
    assert info["tensors"] == expected
    assert "variant = MC" in info["config_text"]


def test_export_single_item_basket_single_step(tmp_path):
    cfg = small_sc_config()
    params = init_params(cfg, seed=7)
    path = tmp_path / "att.txt"
    export_attention([5], cfg, params, path, k=3)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert sum(1 for ln in lines if ln.startswith("step=")) == 1
    assert sum(1 for ln in lines if ln.startswith("topk ")) == 1


def test_export_distributions_resum_close(tmp_path):
    cfg = small_mc_config(mc_last_layer_heads=2)
    params = init_params(cfg, seed=8)
    path = tmp_path / "att.txt"
    export_attention([3, 1, 2, 9], cfg, params, path, k=5, rng_seed=4)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("pattern ") or line.startswith("context "):
            probs = np.array([float(x) for x in line.rsplit("=", 1)[1].split(",")])
            assert abs(probs.sum() - 1.0) <= 1e-4
            assert (probs >= 0).all()


def test_export_topk_excludes_prefix(tmp_path):
    cfg = small_sc_config()
    params = init_params(cfg, seed=9)
    basket = [3, 1, 2]
    path = tmp_path / "att.txt"
    export_attention(basket, cfg, params, path, k=6)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("topk "):
            fields = dict(f.split("=", 1) for f in line.split(" ")[1:])
            step = int(fields["step"])
            items = [int(x) for x in fields["items"].split(",")]
            assert not set(items) & set(basket[: step + 1])
            assert len(items) == 6


@pytest.mark.parametrize("basket, k, message", [
    ([], 3, "export_attention: empty basket"),
    ([4, 2, 4], 3, "export_attention: basket 4,2,4: item id 4 repeats"),
    ([4, 2], 0, "k must be >= 1, got 0"),
], ids=["empty", "repeat", "k_zero"])
def test_export_rejects_bad_request_before_writing(tmp_path, basket, k, message):
    cfg = small_sc_config()
    path = tmp_path / "att.txt"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        export_attention(basket, cfg, init_params(cfg, seed=9), path, k=k)
    assert not path.exists()


def test_export_is_deterministic(tmp_path):
    cfg = small_mc_config()
    params = init_params(cfg, seed=10)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    export_attention([1, 2, 3], cfg, params, a, rng_seed=11)
    export_attention([1, 2, 3], cfg, params, b, rng_seed=11)
    assert a.read_bytes() == b.read_bytes()


def _saved(tmp_path, cfg, seed=0):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, init_params(cfg, seed=seed))
    return path.read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flipped_bit_rejected(tmp_path, data):
    blob = bytearray(_saved(tmp_path, small_sc_config()))
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "bad.ckpt")


def test_truncation_at_every_offset_rejected(tmp_path):
    blob = _saved(tmp_path, small_mc_config())
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(variant=st.sampled_from(["SC", "MC"]), layers=st.integers(1, 3),
       channels=st.sampled_from([1, 2, 4]), heads=st.integers(1, 4),
       tied=st.booleans(), use_positions=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_round_trip_random_configs(tmp_path, variant, layers, channels, heads, tied,
                                   use_positions, seed):
    cfg = ModelConfig(num_items=7, embedding_dim=4, num_layers=layers,
                      channels_per_layer=[channels] * layers, num_patterns=3,
                      variant=variant, mc_last_layer_heads=heads, max_sequence_length=5,
                      tie_output_embeddings=tied, use_positions=use_positions)
    params = init_params(cfg, seed=seed)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert [n for n, _ in named_parameters(loaded)] == [n for n, _ in named_parameters(params)]
    for (_, t1), (_, t2) in zip(named_parameters(params), named_parameters(loaded)):
        np.testing.assert_array_equal(t1.data.astype(np.float32).astype(np.float64), t2.data)
        assert t2.requires_grad


@pytest.mark.parametrize("factory", [small_sc_config, small_mc_config], ids=["SC", "MC"])
def test_load_builds_no_throwaway_model(tmp_path, monkeypatch, factory):
    cfg = factory()
    params = init_params(cfg, seed=11)
    save_checkpoint(tmp_path / "m.ckpt", cfg, params)

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"load_checkpoint called {what}")
        return call

    monkeypatch.setattr(npa.model, "init_params", refuse("init_params"))
    # No generator, so no random number: every numpy Generator is built by
    # default_rng or by the Generator class itself.
    monkeypatch.setattr(np.random, "default_rng", refuse("numpy.random.default_rng"))
    monkeypatch.setattr(np.random, "Generator", refuse("numpy.random.Generator"))
    _, loaded = load_checkpoint(tmp_path / "m.ckpt")
    for (_, t1), (_, t2) in zip(named_parameters(params), named_parameters(loaded)):
        np.testing.assert_array_equal(t1.data.astype(np.float32).astype(np.float64), t2.data)


def test_loaded_mc_heads_share_one_codebook(tmp_path):
    cfg = small_mc_config(mc_last_layer_heads=3)
    save_checkpoint(tmp_path / "m.ckpt", cfg, init_params(cfg, seed=12))
    _, loaded = load_checkpoint(tmp_path / "m.ckpt")
    heads = loaded.layers[-1].channels
    assert all(h.codebook is heads[0].codebook for h in heads)
    assert heads[0].codebook is not loaded.layers[0].channels[0].codebook


def test_repeated_tensor_name_rejected(tmp_path):
    cfg = small_sc_config()
    named = [(n, t.data) for n, t in named_parameters(init_params(cfg, seed=13))]
    # A second item table, all 7.0, under the same name and with a valid checksum.
    named.append(("item_embeddings", np.full_like(named[0][1], 7.0)))
    path = tmp_path / "twice.ckpt"
    _write_container(path, config_to_kv(cfg), named)
    for read in (load_checkpoint, checkpoint_info):
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: tensor item_embeddings appears more "
                                 "than once$"):
            read(path)
