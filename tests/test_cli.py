"""CLI subcommands: workflows, determinism, and failure exits."""

import os
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from npa import data as data_mod
from npa import model as model_mod
from npa import recommend as rec
from npa import training as training_mod
from npa.checkpoint import MAGIC, _checksum64, _write_container, checkpoint_info, save_checkpoint
from npa.cli import build_parser, main
from npa.config_io import config_to_kv, parse_config_file, parse_kv_text
from npa.model import ModelConfig, init_params, named_parameters
from npa.training import TrainConfig

from conftest import one_tensor_payload

CONFIG_TEXT = """\
# tiny model for CLI tests
embedding_dim = 8
num_layers = 2
channels_per_layer = 2,2
num_patterns = 8
variant = SC
dropout_rate = 0.1
max_sequence_length = 12
use_positions = false

epochs = 2
batch_size = 8
learning_rate = 0.003
mode = any_order
seed = 5
"""


@pytest.fixture()
def workspace(tmp_path):
    gen_dir = tmp_path / "data"
    rc = main(["gen-synth", "--out", str(gen_dir), "--num-baskets", "80",
               "--num-patterns", "4", "--items-per-pattern", "8",
               "--min-patterns", "1", "--max-patterns", "2",
               "--noise-prob", "0.05", "--min-len", "3", "--max-len", "6",
               "--seed", "3"])
    assert rc == 0
    config = tmp_path / "model.cfg"
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    return tmp_path


def test_gen_synth_writes_deterministic_files(tmp_path):
    args = ["--num-baskets", "40", "--num-patterns", "3", "--items-per-pattern", "5",
            "--min-len", "2", "--max-len", "4", "--seed", "9"]
    assert main(["gen-synth", "--out", str(tmp_path / "a")] + args) == 0
    assert main(["gen-synth", "--out", str(tmp_path / "b")] + args) == 0
    for name in ("baskets.txt", "catalog.tsv", "pattern_pools.tsv", "basket_truth.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_twice_byte_identical_checkpoints(workspace):
    data = workspace / "data" / "baskets.txt"
    catalog = workspace / "data" / "catalog.tsv"
    config = workspace / "model.cfg"
    paths = []
    for name in ("one.ckpt", "two.ckpt"):
        out = workspace / name
        rc = main(["train", "--config", str(config), "--data", str(data),
                   "--catalog", str(catalog), "--out", str(out), "--seed", "7"])
        assert rc == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


MC_CONFIG_TEXT = (CONFIG_TEXT.replace("variant = SC", "variant = MC\nmc_last_layer_heads = 3")
                  .replace("use_positions = false", "use_positions = true")
                  .replace("mode = any_order", "mode = temporal\ngradient_clip_norm = 0.5"))


@pytest.mark.parametrize("text", [CONFIG_TEXT, MC_CONFIG_TEXT], ids=["sc", "mc"])
def test_train_checkpoint_equals_library_train(workspace, text):
    """npa train writes the bytes that init_params, train and save_checkpoint
    write from the same parsed configs."""
    config_path = workspace / "run.cfg"
    config_path.write_text(text, encoding="utf-8")
    data, catalog = workspace / "data" / "baskets.txt", workspace / "data" / "catalog.tsv"
    cli_out, library_out = workspace / "cli.ckpt", workspace / "library.ckpt"
    assert main(["train", "--config", str(config_path), "--data", str(data),
                 "--catalog", str(catalog), "--out", str(cli_out)]) == 0
    loaded_catalog, baskets = data_mod.load_baskets(data, catalog=data_mod.load_catalog(catalog))
    config, train_config = parse_config_file(text, num_items=loaded_catalog.num_items)
    params = model_mod.init_params(config, seed=train_config.seed)
    params, _ = training_mod.train(baskets, config, params, train_config)
    save_checkpoint(library_out, config, params)
    assert cli_out.read_bytes() == library_out.read_bytes()


def _readme_commands():
    """Every `npa ...` command in README.md's code blocks, with
    backslash-continued lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    return [line.strip() for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("npa ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {shlex.split(c)[1] for c in commands} == {
        "gen-synth", "train", "evaluate", "recommend", "inspect-attention", "checkpoint-info"}
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_train_echo_is_checkpoint_config_plus_training_keys(workspace, capsys):
    self_train(workspace)
    echoed = [ln[len("config "):] for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("config ")]
    saved = checkpoint_info(workspace / "m.ckpt")["config_text"].splitlines()
    assert echoed[:len(saved)] == saved
    training = "\n".join(echoed[len(saved):])
    assert list(parse_kv_text(training)) == [f.name for f in fields(TrainConfig)]
    _, train_config = parse_config_file("num_items = 1\nembedding_dim = 1\nnum_layers = 1\n"
                                        "channels_per_layer = 1\n" + training)
    assert train_config == TrainConfig(epochs=2, batch_size=8, learning_rate=0.003,
                                       mode="any_order", seed=7)


@pytest.mark.parametrize("layers", [1, 2])
def test_train_greedy_sc_config_exits_zero(workspace, layers):
    config = workspace / "greedy.cfg"
    config.write_text(CONFIG_TEXT.replace("num_layers = 2", f"num_layers = {layers}")
                      .replace("channels_per_layer = 2,2",
                               "channels_per_layer = " + ",".join(["2"] * layers))
                      + "sc_last_extraction = greedy\n", encoding="utf-8")
    rc = main(["train", "--config", str(config),
               "--data", str(workspace / "data" / "baskets.txt"),
               "--catalog", str(workspace / "data" / "catalog.tsv"),
               "--out", str(workspace / "greedy.ckpt")])
    assert rc == 0


def test_recommend_excludes_basket(workspace, capsys):
    self_train(workspace)
    rc = main(["recommend", "--ckpt", str(workspace / "m.ckpt"),
               "--basket", "3,1,2", "--k", "5", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("rank=")]
    assert len(lines) == 5
    items = [int(dict(f.split("=") for f in ln.split()).get("item")) for ln in lines]
    assert not set(items) & {3, 1, 2}


def test_recommend_deterministic_stdout(workspace, capsys):
    self_train(workspace)
    capsys.readouterr()  # drop the training log
    outs = []
    for _ in range(2):
        assert main(["recommend", "--ckpt", str(workspace / "m.ckpt"),
                     "--basket", "4,5", "--k", "4", "--seed", "11"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_evaluate_model_metrics_in_range(workspace, capsys):
    self_train(workspace)
    rc = main(["evaluate", "--ckpt", str(workspace / "m.ckpt"),
               "--data", str(workspace / "data" / "baskets.txt"),
               "--catalog", str(workspace / "data" / "catalog.tsv"),
               "--k", "20", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    values = [float(ln.rsplit("=", 1)[1]) for ln in out.splitlines()
              if ln.startswith("metric name=") and "instances" not in ln]
    assert values and all(0.0 <= v <= 1.0 for v in values)


def test_evaluate_checks_each_instance_once(workspace, capsys, monkeypatch):
    # evaluate checks every instance up front, then serves the ids it
    # checked, so recommend_topk does not check them again.
    self_train(workspace)
    calls = []
    real = model_mod.check_baskets
    monkeypatch.setattr(model_mod, "check_baskets",
                        lambda baskets, *a: calls.append(len(baskets)) or real(baskets, *a))
    argv = ["evaluate", "--ckpt", str(workspace / "m.ckpt"),
            "--data", str(workspace / "data" / "baskets.txt"), "--k", "20", "--seed", "2"]
    for run in (1, 2):
        assert main(argv) == 0
        assert len(calls) == run
    instances = int(re.search(r"^instances=(\d+)", capsys.readouterr().out, re.M).group(1))
    assert calls == [instances, instances]


def test_evaluate_baseline_and_determinism(workspace, capsys):
    data = str(workspace / "data" / "baskets.txt")
    catalog = str(workspace / "data" / "catalog.tsv")
    outs = []
    for _ in range(2):
        rc = main(["evaluate", "--baseline", "cp", "--train-data", data,
                   "--data", data, "--catalog", catalog, "--k", "20", "--seed", "4"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "R-Precision" in outs[0]


def test_inspect_attention_deterministic_file(workspace):
    self_train(workspace)
    a, b = workspace / "a.txt", workspace / "b.txt"
    for path in (a, b):
        rc = main(["inspect-attention", "--ckpt", str(workspace / "m.ckpt"),
                   "--basket", "3,1,2", "--out", str(path), "--k", "4", "--seed", "6"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_info_lists_tensors(workspace, capsys):
    self_train(workspace)
    rc = main(["checkpoint-info", "--ckpt", str(workspace / "m.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "magic=NPA1 version=1" in out
    assert "config embedding_dim = 8" in out
    assert any(ln.startswith("tensor name=item_embeddings shape=") for ln in out.splitlines())


def test_cli_error_exits(workspace, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("embedding_dim = 8\nnum_layers = 1\nchannels_per_layer = 1\n"
                       "mystery_knob = 3\nepochs = 1\n", encoding="utf-8")
    rc = main(["train", "--config", str(bad_cfg),
               "--data", str(workspace / "data" / "baskets.txt"),
               "--out", str(tmp_path / "x.ckpt")])
    assert rc == 1
    assert "mystery_knob" in capsys.readouterr().err
    rc = main(["recommend", "--ckpt", str(tmp_path / "missing.ckpt"),
               "--basket", "1", "--k", "2"])
    assert rc == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("overrides, message", [
    ({"num_items": "0"}, "num_items must be >= 1"),
    ({"num_layers": "0"}, "num_layers must be >= 1"),
    ({"channels_per_layer": "2,0"}, "every channel count must be >= 1"),
    ({"variant": "MC", "mc_last_layer_heads": "0"}, "mc_last_layer_heads must be >= 1"),
    ({"dropout_rate": "1.0"}, "dropout_rate must be in [0, 1)"),
    ({"gumbel_temperature": "0.0"}, "gumbel_temperature must be positive"),
    ({"max_sequence_length": "0"}, "max_sequence_length must be >= 1"),
    ({"embedding_dim": "0"}, "embedding_dim must be >= 1"),
    ({"embedding_dim": "-4"}, "embedding_dim must be >= 1"),
    ({"num_patterns": "0"}, "num_patterns must be >= 1"),
    ({"num_patterns": "-2"}, "num_patterns must be >= 1"),
    ({"epochs": "-1"}, "epochs must be >= 0"),
    ({"batch_size": "0"}, "batch_size must be >= 1"),
    ({"permutations_per_basket": "0"}, "permutations_per_basket must be >= 1 in any_order mode"),
    ({"gradient_clip_norm": "0.0"}, "gradient_clip_norm must be positive when set"),
    *[pytest.param({key: value}, message, id=f"{key}={value}") for key, value, message in [
        ("gradient_clip_norm", "nan", "gradient_clip_norm must be positive when set"),
        ("gumbel_temperature", "nan", "gumbel_temperature must be positive"),
        ("gumbel_temperature", "-inf", "gumbel_temperature must be positive"),
        ("gumbel_temperature", "inf", "gumbel_temperature must be finite"),
        ("learning_rate", "-0.003", "learning_rate must be finite and >= 0"),
        ("learning_rate", "nan", "learning_rate must be finite and >= 0"),
        ("learning_rate", "inf", "learning_rate must be finite and >= 0"),
        ("weight_decay", "-1", "weight_decay must be finite and >= 0"),
        ("weight_decay", "nan", "weight_decay must be finite and >= 0"),
        ("weight_decay", "-inf", "weight_decay must be finite and >= 0"),
    ]],
], ids=lambda v: "-".join(v) if isinstance(v, dict) else None)
def test_train_config_out_of_range_exits_before_training(workspace, capsys, monkeypatch,
                                                          overrides, message):
    monkeypatch.setattr(training_mod, "train", lambda *a, **kw: pytest.fail("training ran"))
    values = dict(parse_kv_text(CONFIG_TEXT), **overrides)
    config = workspace / "range.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    out = workspace / "range.ckpt"
    rc = main(["train", "--config", str(config),
               "--data", str(workspace / "data" / "baskets.txt"),
               "--catalog", str(workspace / "data" / "catalog.tsv"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_requires_model_or_baseline(workspace, capsys):
    rc = main(["evaluate", "--data", str(workspace / "data" / "baskets.txt"),
               "--k", "20"])
    assert rc == 1
    assert "ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    (",".join(str(i) for i in range(28)), "sequence of 14 items exceeds max_sequence_length 12"),
    ("40,41,42,43", r"item id 4\d out of range \[0, 32\)"),
], ids=["too_long", "id_out_of_range"])
def test_evaluate_rejects_bad_instance_before_any_query(workspace, capsys, monkeypatch,
                                                         bad, message):
    self_train(workspace)
    data = workspace / "test.txt"
    good = (workspace / "data" / "baskets.txt").read_text(encoding="utf-8").splitlines()[:20]
    data.write_text("\n".join(good + [f"bad7,{bad}"]) + "\n", encoding="utf-8")
    calls = []
    real = rec.recommend_topk
    monkeypatch.setattr(rec, "recommend_topk", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    rc = main(["evaluate", "--ckpt", str(workspace / "m.ckpt"), "--data", str(data),
               "--k", "20", "--seed", "2"])
    assert rc == 1
    assert re.search(f"evaluate: basket bad7: {message}", capsys.readouterr().err)
    assert not calls


@pytest.mark.parametrize("command", ["evaluate", "recommend", "inspect-attention"])
def test_softmax_on_multi_context_checkpoint_fails_before_work(workspace, capsys,
                                                               monkeypatch, command):
    config = ModelConfig(num_items=32, embedding_dim=8, num_layers=2, channels_per_layer=[2, 2],
                         num_patterns=8, variant="MC", mc_last_layer_heads=3,
                         max_sequence_length=12)
    path = workspace / "mc.ckpt"
    save_checkpoint(path, config, init_params(config, seed=1))

    def no_forward(*args, **kwargs):
        raise AssertionError("model.forward ran")

    monkeypatch.setattr(model_mod, "forward", no_forward)
    args = {"evaluate": ["--data", str(workspace / "data" / "baskets.txt"), "--k", "20"],
            "recommend": ["--basket", "1,2"],
            "inspect-attention": ["--basket", "1,2", "--out", str(workspace / "att.txt")]}
    rc = main([command, "--ckpt", str(path), "--scoring", "softmax"] + args[command])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: softmax scoring expects exactly one context\n"
    assert "config" not in captured.out
    assert not (workspace / "att.txt").exists()


def test_evaluate_rejects_duplicate_item_with_file_and_line(workspace, capsys):
    self_train(workspace)
    capsys.readouterr()
    data = workspace / "test.txt"
    good = (workspace / "data" / "baskets.txt").read_text(encoding="utf-8").splitlines()[:20]
    data.write_text("\n".join(good + ["dup5,3,7,3"]) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--ckpt", str(workspace / "m.ckpt"), "--data", str(data),
               "--k", "20", "--seed", "2"])
    assert rc != 0
    captured = capsys.readouterr()
    assert f"{data}:21: duplicate item id 3" in captured.err
    assert not captured.out


def self_train(workspace):
    ckpt = workspace / "m.ckpt"
    if ckpt.exists():
        return
    rc = main(["train", "--config", str(workspace / "model.cfg"),
               "--data", str(workspace / "data" / "baskets.txt"),
               "--catalog", str(workspace / "data" / "catalog.tsv"),
               "--out", str(ckpt), "--seed", "7"])
    assert rc == 0


def _untrained_checkpoint(workspace):
    """An untrained SC checkpoint over the workspace's 32 items."""
    path = workspace / "fresh.ckpt"
    config = ModelConfig(num_items=32, embedding_dim=8, num_layers=1, channels_per_layer=[2],
                         num_patterns=4, max_sequence_length=12)
    save_checkpoint(path, config, init_params(config, seed=1))
    return path


@pytest.mark.parametrize("command, basket, k, message", [
    ("recommend", "3,3,1", "2", "recommend_topk: basket 3,3,1: item id 3 repeats"),
    ("inspect-attention", "3,3", "2", "export_attention: basket 3,3: item id 3 repeats"),
    ("recommend", "3,32", "2", "recommend_topk: basket 3,32: item id 32 out of range [0, 32)"),
    ("inspect-attention", "1,2", "-3", "k must be >= 1, got -3"),
    ("recommend", "18446744073709551621,2", "2", "recommend_topk: basket 18446744073709551621,2: "
                                                 "item id 18446744073709551621 is outside "
                                                 "int64's range"),
    ("recommend", "9223372036854775808,2", "2", "recommend_topk: basket 9223372036854775808,2: "
                                                "item id 9223372036854775808 is outside "
                                                "int64's range"),
    ("inspect-attention", "1,-9223372036854775809", "2",
     "export_attention: basket 1,-9223372036854775809: item id -9223372036854775809 is outside "
     "int64's range"),
], ids=["recommend_repeat", "inspect_repeat", "recommend_out_of_range", "inspect_negative_k",
        "recommend_beyond_uint64", "recommend_beyond_int64", "inspect_below_int64"])
def test_serving_rejects_bad_request(workspace, capsys, command, basket, k, message):
    out = workspace / "att.txt"
    args = ["--out", str(out)] if command == "inspect-attention" else []
    rc = main([command, "--ckpt", str(_untrained_checkpoint(workspace)),
               "--basket", basket, "--k", k] + args)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not captured.out
    assert not out.exists()


def test_recommend_rejects_zero_fesf_temperature(workspace, capsys):
    rc = main(["recommend", "--ckpt", str(_untrained_checkpoint(workspace)), "--basket", "1,2",
               "--scoring", "fesf", "--fesf-temperature", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: fesf temperature must be positive\n"


@pytest.mark.parametrize("value, message", [
    ("nan", "fesf temperature must be positive"),
    ("inf", "fesf temperature must be finite"),
])
def test_recommend_rejects_non_finite_fesf_temperature(workspace, capsys, value, message):
    # NaN is never <= 0, so a "<= 0" check let it through and printed no items.
    rc = main(["recommend", "--ckpt", str(_untrained_checkpoint(workspace)), "--basket", "1,2",
               "--scoring", "fesf", "--fesf-temperature", value])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not captured.out


@pytest.mark.parametrize("stored, message", [
    ({"num_items": 12}, "tensor item_embeddings has shape (12, 8), expected (13, 8)"),
    ({"tie_output_embeddings": False},
     "tensor names do not match config (missing [], extra ['output_embeddings'])"),
], ids=["shape", "names"])
def test_recommend_rejects_checkpoint_whose_config_disagrees(workspace, capsys, stored, message):
    base = dict(num_items=13, embedding_dim=8, num_layers=1, channels_per_layer=[2],
                num_patterns=4, tie_output_embeddings=True)
    tensors = init_params(ModelConfig(**dict(base, **stored)), seed=1)
    path = workspace / "bad.ckpt"
    _write_container(path, config_to_kv(ModelConfig(**base)),
                     [(n, t.data) for n, t in named_parameters(tensors)])
    rc = main(["recommend", "--ckpt", str(path), "--basket", "1,2"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("flag, text, message", [
    ("--catalog", "0\ta\nabc\n", ":2: expected 'id<TAB>name', got 'abc'"),
    ("--catalog", "0\ta\nx\tb\n", ":2: non-integer item id 'x'"),
    ("--catalog", "0\ta\n1\tb\n0\tc\n", ":3: duplicate item id 0"),
    ("--catalog", "\n", ": empty catalog"),
    ("--data", "b0,1,2\nb1\n", ":2: expected 'basket_id,item,...', got 'b1'"),
    ("--data", "b0,1,2\nb1,3,-4\n", ":2: negative item id"),
], ids=["catalog_fields", "catalog_id", "catalog_duplicate", "catalog_empty",
        "baskets_fields", "baskets_negative"])
def test_bad_input_file_exits_with_file_and_line(workspace, capsys, flag, text, message):
    bad = workspace / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    baskets = str(workspace / "data" / "baskets.txt")
    files = {"--data": baskets, "--catalog": str(workspace / "data" / "catalog.tsv"),
             flag: str(bad)}
    rc = main(["evaluate", "--baseline", "pop", "--train-data", baskets, "--k", "20",
               "--data", files["--data"], "--catalog", files["--catalog"]])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}{message}\n"
    assert not captured.out


@pytest.mark.parametrize("edit, message", [
    (lambda text: text + "embedding_dim 8\n", "line {n}: expected 'key = value', got 'embedding_dim 8'"),
    (lambda text: text + "= 3\n", "line {n}: empty key"),
    (lambda text: text.replace("use_positions = false", "use_positions = maybe"),
     "key 'use_positions': cannot parse value 'maybe'"),
    (lambda text: text.replace("embedding_dim = 8\n", ""),
     "config is missing required key 'embedding_dim'"),
], ids=["no_equals", "empty_key", "non_boolean", "missing_required"])
def test_train_config_parse_error_exits_before_training(workspace, capsys, monkeypatch,
                                                        edit, message):
    monkeypatch.setattr(training_mod, "train", lambda *a, **kw: pytest.fail("training ran"))
    text = edit(CONFIG_TEXT)
    config = workspace / "parse.cfg"
    config.write_text(text, encoding="utf-8")
    out = workspace / "parse.ckpt"
    rc = main(["train", "--config", str(config),
               "--data", str(workspace / "data" / "baskets.txt"),
               "--catalog", str(workspace / "data" / "catalog.tsv"), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(n=len(text.splitlines()))}\n"
    assert not captured.out
    assert not out.exists()


@pytest.mark.parametrize("basket, message", [
    ("", "empty basket argument"),
    ("1,x", "basket must be comma-separated item ids, got '1,x'"),
], ids=["empty", "non_numeric"])
def test_recommend_rejects_unparsable_basket(workspace, capsys, basket, message):
    rc = main(["recommend", "--ckpt", str(_untrained_checkpoint(workspace)), "--basket", basket])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not captured.out


def test_evaluate_baseline_without_train_data_exits(workspace, capsys):
    rc = main(["evaluate", "--baseline", "cp", "--data", str(workspace / "data" / "baskets.txt"),
               "--k", "20"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --baseline requires --train-data for fitting\n"
    assert not captured.out


def _rechecksummed(path, payload):
    """Write a checkpoint container holding ``payload`` under a valid checksum,
    so reading it gets past the checksum to the payload's own defect."""
    path.write_bytes(MAGIC + payload + struct.pack("<Q", _checksum64(payload)))
    return path


@pytest.mark.parametrize("cut, message", [
    (lambda payload: payload[:-5], "truncated checkpoint file"),
    (lambda payload: payload + b"\0\0\0", "3 trailing bytes"),
], ids=["truncated", "trailing"])
def test_checkpoint_info_names_file_of_malformed_payload(workspace, capsys, cut, message):
    blob = _untrained_checkpoint(workspace).read_bytes()
    path = _rechecksummed(workspace / "malformed.ckpt", cut(blob[len(MAGIC):-8]))
    rc = main(["checkpoint-info", "--ckpt", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert not captured.out


@pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1,) * 4],
                         ids=["wraps_to_zero", "wraps_negative"])
def test_checkpoint_info_rejects_tensor_too_large_for_int64(workspace, capsys, dims):
    path = _rechecksummed(workspace / "huge.ckpt", one_tensor_payload(dims))
    rc = main(["checkpoint-info", "--ckpt", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: truncated checkpoint file\n"
    assert not captured.out


def _assert_error_exit(argv, message, capsys):
    rc = main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not captured.out


def test_train_config_without_training_keys_exits(workspace, capsys):
    config = workspace / "model_only.cfg"
    config.write_text(CONFIG_TEXT.split("\nepochs")[0] + "\n", encoding="utf-8")
    out = workspace / "model_only.ckpt"
    _assert_error_exit(["train", "--config", str(config),
                        "--data", str(workspace / "data" / "baskets.txt"),
                        "--catalog", str(workspace / "data" / "catalog.tsv"), "--out", str(out)],
                       "config file has no training keys (epochs is required)", capsys)
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--k", "19"], "--k must be at least 20"),
    (["--input-fraction", "0"], "input_fraction must be in (0, 1)"),
    (["--instances-per-basket", "0"], "instances_per_basket must be >= 1"),
], ids=["k", "input_fraction", "instances_per_basket"])
def test_evaluate_rejects_bad_flag(workspace, capsys, args, message):
    data = str(workspace / "data" / "baskets.txt")
    _assert_error_exit(["evaluate", "--baseline", "pop", "--train-data", data, "--data", data,
                        "--k", "20"] + args, message, capsys)


def test_evaluate_single_item_baskets_exits(workspace, capsys):
    data = workspace / "single.txt"
    data.write_text("a,1\nb,2\n", encoding="utf-8")
    _assert_error_exit(["evaluate", "--baseline", "pop", "--train-data", str(data),
                        "--data", str(data), "--k", "20"],
                       "no usable evaluation instances (all baskets too short?)", capsys)


@pytest.mark.parametrize("flag, value, message", [
    ("--num-patterns", "0", "need at least one pattern and one item per pattern"),
    ("--noise-prob", "1.5", "noise_probability must be in [0, 1]"),
    ("--num-baskets", "0", "num_baskets must be >= 1"),
    ("--pool-decay", "1", "within_pool_decay must be in [0, 1)"),
    ("--pool-floor", "1.5", "within_pool_floor must be in [0, 1]"),
], ids=["num_patterns", "noise_prob", "num_baskets", "pool_decay", "pool_floor"])
def test_gen_synth_rejects_out_of_range_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "synth"
    _assert_error_exit(["gen-synth", "--out", str(out), flag, value], message, capsys)
    assert not out.exists()


def test_evaluate_cp_warns_of_unseen_input_items(workspace, capsys):
    train = workspace / "seen.txt"
    train.write_text("t0,0,1\nt1,1,2\n", encoding="utf-8")
    test = workspace / "unseen.txt"
    # e0's two input items never occur in training; e1's three items all do.
    test.write_text("e0,5,6,7,8\ne1,0,1,2\n", encoding="utf-8")
    rc = main(["evaluate", "--baseline", "cp", "--train-data", str(train), "--data", str(test),
               "--catalog", str(workspace / "data" / "catalog.tsv"), "--k", "20"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == "warning unseen_items=2\n"
    assert "instances=2 skipped=0" in captured.out


@pytest.mark.parametrize("path", ["baseline", "model"])
def test_evaluate_catalog_too_small_for_cutoffs_fails_before_any_query(workspace, capsys,
                                                                      monkeypatch, path):
    # No --catalog: the ids 0-8 make a 9-item catalog, and e0's two input
    # items leave 7 to rank, fewer than the cutoff 20.
    data = workspace / "small.txt"
    data.write_text("e0,5,6,7,8\ne1,0,1,2\n", encoding="utf-8")
    if path == "baseline":
        argv = ["--baseline", "cp", "--train-data", str(data)]
    else:
        config = ModelConfig(num_items=9, embedding_dim=8, num_layers=1, channels_per_layer=[2],
                             num_patterns=8, max_sequence_length=12)
        save_checkpoint(workspace / "small.ckpt", config, init_params(config, seed=1))
        argv = ["--ckpt", str(workspace / "small.ckpt")]

    def no_query(*args, **kwargs):
        raise AssertionError("a query ran")

    monkeypatch.setattr(rec, "recommend_topk", no_query)
    monkeypatch.setattr("npa.metrics.CountBaseline.ranked", no_query)
    _assert_error_exit(["evaluate", "--data", str(data), "--k", "20"] + argv,
                       "evaluate: catalog of 9 items leaves 7 to rank after the largest input "
                       "basket (2 items); the metrics need 20", capsys)


def test_basket_file_blank_lines_are_skipped(workspace, capsys):
    lines = (workspace / "data" / "baskets.txt").read_text(encoding="utf-8").splitlines()
    gapped = workspace / "gapped.txt"
    gapped.write_text("\n".join(lines[:10] + [""] + lines[10:]) + "\n", encoding="utf-8")
    outs = []
    for data in (workspace / "data" / "baskets.txt", gapped):
        assert main(["evaluate", "--baseline", "pop", "--train-data", str(data),
                     "--data", str(data), "--k", "20", "--seed", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "npa", "gen-synth", "--out", str(tmp_path),
                           "--num-baskets", "0"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 1
    assert done.stderr == "error: num_baskets must be >= 1\n"


# Records each BLAS variable as numpy starts to load, then imports npa.
_BLAS_AT_NUMPY_LOAD = """
import os, sys
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in BLAS])
sys.meta_path.insert(0, Watch())
import npa
print(*seen[0])
"""


@pytest.mark.parametrize("preset, want", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")],
                         ids=["unset", "user_count_wins"])
def test_npa_pins_blas_before_numpy_loads(preset, want):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", _BLAS_AT_NUMPY_LOAD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == want + "\n"
