"""CLI subcommands: workflows, determinism, and failure exits."""

import re

import pytest

from npa import recommend as rec
from npa.cli import main

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
                   "--catalog", str(catalog), "--out", str(out), "--seed", "7",
                   "--optimizer-out", str(out) + ".opt"])
        assert rc == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    opt_a = (workspace / "one.ckpt.opt").read_bytes()
    opt_b = (workspace / "two.ckpt.opt").read_bytes()
    assert opt_a == opt_b


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


def self_train(workspace):
    ckpt = workspace / "m.ckpt"
    if ckpt.exists():
        return
    rc = main(["train", "--config", str(workspace / "model.cfg"),
               "--data", str(workspace / "data" / "baskets.txt"),
               "--catalog", str(workspace / "data" / "catalog.tsv"),
               "--out", str(ckpt), "--seed", "7"])
    assert rc == 0
