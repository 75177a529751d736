"""Shared fixtures: small model factories and the trained synthetic experiment.

BLAS is pinned to one thread before numpy is first imported, as the
benchmark pins it: with a threaded BLAS a row of a product can round
differently by the rows beside it, and the kernels' promise that a row's
bits do not depend on the other rows (``tensor.BLOCK_ROWS``) holds only
with one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import struct  # noqa: E402

import pytest  # noqa: E402

from npa import tensor as T  # noqa: E402
from npa.checkpoint import VERSION  # noqa: E402
from npa.data import SynthSpec, gen_synthetic, split_dataset  # noqa: E402
from npa.model import ModelConfig, init_params  # noqa: E402
from npa.training import TrainConfig, train  # noqa: E402

# Constants of the synthetic recovery experiment; the generator profile and
# training pacing were fixed once against the brute-force conditional oracle
# (see tests/test_acceptance.py).
EXPERIMENT = dict(
    spec=dict(num_patterns=8, items_per_pattern=25, patterns_per_basket=(1, 1),
              noise_probability=0.02, basket_length=(5, 9), num_baskets=5000,
              seed=11, within_pool_decay=0.72, within_pool_floor=0.18),
    split_seed=3,
    model=dict(embedding_dim=32, num_layers=2, channels_per_layer=[4, 4],
               num_patterns=64, variant="SC", dropout_rate=0.1,
               max_sequence_length=16, use_positions=False),
    train=dict(epochs=10, batch_size=64, learning_rate=2.5e-3, mode="any_order",
               permutations_per_basket=1, seed=7),
)


def small_sc_config(**overrides):
    base = dict(num_items=20, embedding_dim=8, num_layers=2,
                channels_per_layer=[2, 2], num_patterns=6, variant="SC",
                max_sequence_length=8, use_positions=True)
    base.update(overrides)
    return ModelConfig(**base)


def force_split(monkeypatch, cpus):
    """Run as if on ``cpus`` allowed CPUs, with no size floor for
    tensor._split_rows: with 2, every kernel of 4 rows or more outside a
    concurrent section splits, and training overlaps a cut MC batch's
    buckets; with 1, nothing runs on a second thread. Returns a list that
    grows by one entry per call of _concurrently."""
    monkeypatch.setattr(T, "SPLIT_CELLS", 0)
    monkeypatch.setattr(T, "_allowed_cpus", lambda: cpus)
    calls = []
    real = T._concurrently
    monkeypatch.setattr(T, "_concurrently", lambda *fns: calls.append(1) or real(*fns))
    return calls


def one_tensor_payload(dims):
    """A checkpoint payload (what the checksum covers) of an empty config
    and one tensor with these dims and no values."""
    return (struct.pack("<III", VERSION, 0, 1) + struct.pack("<H", 1) + b"w"
            + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims))


def small_mc_config(**overrides):
    base = dict(num_items=20, embedding_dim=8, num_layers=2,
                channels_per_layer=[2, 2], num_patterns=6, variant="MC",
                mc_last_layer_heads=2, max_sequence_length=8, use_positions=True)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def synth_experiment():
    """Data, baselines input, and the 10-epoch trained model (about 16 s on
    2 vCPUs, 0.3 s of it generating the data)."""
    spec = SynthSpec(**EXPERIMENT["spec"])
    catalog, baskets, truth = gen_synthetic(spec)
    train_set, valid_set, test_set = split_dataset(
        baskets, (0.6, 0.2, 0.2), seed=EXPERIMENT["split_seed"])
    config = ModelConfig(num_items=catalog.num_items, **EXPERIMENT["model"])
    params = init_params(config, seed=EXPERIMENT["train"]["seed"])
    train_config = TrainConfig(**EXPERIMENT["train"])
    params, reports = train(train_set, config, params, train_config)
    return dict(spec=spec, catalog=catalog, truth=truth,
                train=train_set, valid=valid_set, test=test_set,
                config=config, params=params, reports=reports)
