"""The whole command-line workflow in one script.

Generates a dataset, trains, evaluates against a baseline, recommends,
exports attention records, and prints checkpoint info, all into a
temporary directory via the same entry point the `npa` command uses.

Run:  python demos/06_cli_walkthrough.py
"""

import tempfile
from pathlib import Path

from npa.cli import main

root = Path(tempfile.mkdtemp(prefix="npa-demo-"))
print("working in", root)

run = lambda *args: main(list(args)) == 0 or (_ for _ in ()).throw(RuntimeError(args))

run("gen-synth", "--out", str(root / "data"), "--num-baskets", "600",
    "--num-patterns", "4", "--items-per-pattern", "12", "--min-patterns", "1",
    "--max-patterns", "2", "--noise-prob", "0.05", "--min-len", "4",
    "--max-len", "7", "--pool-decay", "0.75", "--seed", "1")

(root / "model.cfg").write_text("""\
embedding_dim = 16
num_layers = 2
channels_per_layer = 2,2
num_patterns = 12
variant = SC
dropout_rate = 0.1
max_sequence_length = 10
use_positions = false

epochs = 4
batch_size = 32
learning_rate = 0.003
mode = any_order
seed = 2
""", encoding="utf-8")

run("train", "--config", str(root / "model.cfg"),
    "--data", str(root / "data" / "baskets.txt"),
    "--catalog", str(root / "data" / "catalog.tsv"),
    "--out", str(root / "model.ckpt"))

print("\n--- evaluate the trained model ---")
run("evaluate", "--ckpt", str(root / "model.ckpt"),
    "--data", str(root / "data" / "baskets.txt"),
    "--catalog", str(root / "data" / "catalog.tsv"), "--k", "20", "--seed", "3")

print("\n--- evaluate the co-purchase baseline on the same instances ---")
run("evaluate", "--baseline", "cp",
    "--train-data", str(root / "data" / "baskets.txt"),
    "--data", str(root / "data" / "baskets.txt"),
    "--catalog", str(root / "data" / "catalog.tsv"), "--k", "20", "--seed", "3")

print("\n--- complete a basket ---")
run("recommend", "--ckpt", str(root / "model.ckpt"), "--basket", "0,1,2", "--k", "5")

print("\n--- export per-step attention records ---")
run("inspect-attention", "--ckpt", str(root / "model.ckpt"),
    "--basket", "0,1,2", "--out", str(root / "attention.txt"), "--k", "5")
print((root / "attention.txt").read_text(encoding="utf-8")[:400], "...")

print("\n--- checkpoint info ---")
run("checkpoint-info", "--ckpt", str(root / "model.ckpt"))
