"""Bit-exact model persistence and attention export.

Checkpoint layout (all integers little-endian):

    bytes 0..3   magic "NPA1"
    u32          format version (currently 1)
    u32          config block length, then that many UTF-8 bytes of
                 flat key=value model config
    u32          tensor count
    per tensor:  u16 name length + UTF-8 name, u8 ndim, u32 per dim,
                 float32 little-endian values in row-major order
    u64          64-bit CRC-composition checksum of everything after the magic and
                 before the checksum itself

Values are stored as float32, so load(save(m)) reproduces every tensor
exactly after float32 rounding. Writes are atomic (temp file then
rename).
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from . import model as npa_model
from . import recommend as rec
from .config_io import config_to_kv, model_config_from_kv
from .errors import CheckpointError, ConfigError
from .tensor import Tensor, no_grad

MAGIC = b"NPA1"
VERSION = 1
EXPORT_SCHEMA_VERSION = 1

__all__ = [
    "EXPORT_SCHEMA_VERSION",
    "MAGIC",
    "VERSION",
    "checkpoint_info",
    "export_attention",
    "load_checkpoint",
    "save_checkpoint",
]


def _checksum64(data: bytes) -> int:
    # Two differently seeded CRC32 passes composed into one 64-bit word.
    hi = zlib.crc32(data)
    lo = zlib.crc32(data, 0x4E504131)
    return (hi << 32) | lo


def _pack_tensors(named) -> bytes:
    parts = [struct.pack("<I", len(named))]
    for name, arr in named:
        encoded = name.encode("utf-8")
        arr = np.asarray(arr)
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(arr.astype("<f4").tobytes(order="C"))
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint file")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def uint(self, size: int) -> int:
        """The next ``size`` bytes as a little-endian unsigned integer."""
        return int.from_bytes(self.take(size), "little")


def _unpack_tensors(r: _Reader):
    count = r.uint(4)
    named = []
    for _ in range(count):
        name = r.take(r.uint(2)).decode("utf-8")
        ndim = r.uint(1)
        shape = tuple(r.uint(4) for _ in range(ndim))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(4 * size)
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
        named.append((name, arr))
    return named


def _write_container(path, config_text: str, named_tensors):
    cfg = config_text.encode("utf-8")
    payload = struct.pack("<I", VERSION)
    payload += struct.pack("<I", len(cfg)) + cfg
    payload += _pack_tensors(named_tensors)
    blob = MAGIC + payload + struct.pack("<Q", _checksum64(payload))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def _read_container(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    payload, stored = blob[4:-8], struct.unpack("<Q", blob[-8:])[0]
    if _checksum64(payload) != stored:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    r = _Reader(payload, path)
    version = r.uint(4)
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {VERSION}")
    config_text = r.take(r.uint(4)).decode("utf-8")
    named = _unpack_tensors(r)
    if r.pos != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - r.pos} trailing bytes")
    return config_text, named


def save_checkpoint(path, config, params) -> None:
    named = [(n, t.data) for n, t in npa_model.named_parameters(params)]
    _write_container(path, config_to_kv(config), named)


def load_checkpoint(path):
    """Rebuild (config, params) from a checkpoint file."""
    config_text, named = _read_container(path)
    config = model_config_from_kv(config_text)
    table = dict(named)
    expected = npa_model.parameter_shapes(config)
    missing = [n for n, _ in expected if n not in table]
    extra = [n for n in table if n not in {n for n, _ in expected}]
    if missing or extra:
        raise CheckpointError(
            f"{path}: tensor names do not match config (missing {missing}, extra {extra})")
    for name, shape in expected:
        if table[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {table[name].shape}, expected {shape}")
    return config, npa_model.params_from_tensors(
        config, {n: Tensor(a, requires_grad=True) for n, a in table.items()})


def checkpoint_info(path) -> dict:
    """Config text and per-tensor shapes, without building a model."""
    config_text, named = _read_container(path)
    return {
        "version": VERSION,
        "config_text": config_text,
        "tensors": [(name, tuple(arr.shape)) for name, arr in named],
    }


def _fmt(values) -> str:
    return ",".join(f"{v:.8e}" for v in np.asarray(values, dtype=np.float64))


def export_attention(basket, config, params, path, k: int = 10, rng_seed=0,
                     scoring_kind=None, fesf_temperature: float = 1.0) -> None:
    """Write one basket's per-step attention records as key=value lines.

    One block per prefix step: the prefix, every layer/channel's pattern
    belief, the context-attention weights over the prefix items, and the
    step's top-k recommendations (k >= 1, clipped to the candidate count).
    The basket is checked as ``recommend_topk`` checks it, and the forward
    pass runs inside ``tensor.no_grad``.
    """
    items = [int(i) for i in basket]
    if not items:
        raise ConfigError("export_attention: empty basket")
    npa_model.check_baskets([items], [",".join(map(str, items))], config, "export_attention")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    with no_grad():
        state = npa_model.forward(items, config, params, rng_seed=rng_seed)
    emb = npa_model.output_embeddings(params).data
    plan = npa_model.layer_channel_plan(config)

    lines = [
        f"schema_version={EXPORT_SCHEMA_VERSION}",
        f"basket={','.join(str(i) for i in items)}",
        f"variant={config.variant}",
        f"num_layers={config.num_layers}",
        f"channels={','.join(str(c) for c, _, _ in plan)}",
        f"num_patterns={config.num_patterns}",
        f"steps={len(items)}",
    ]
    final = state.context.data  # (contexts, steps, dim)
    for t in range(len(items)):
        prefix = items[:t + 1]
        lines.append(f"step={t} prefix={','.join(str(i) for i in prefix)}")
        for li, states in enumerate(state.unit_states):
            for ci, unit_state in enumerate(states):
                abar = unit_state.prefix_attention.data[t]
                lines.append(f"pattern step={t} layer={li} channel={ci} probs={_fmt(abar)}")
                b_row = unit_state.context_attention.data[t, :t + 1]
                lines.append(f"context step={t} layer={li} channel={ci} weights={_fmt(b_row)}")
        vec = rec.score_contexts(final[:, t, :], emb, scoring_kind, fesf_temperature)
        # The prefix holds t + 1 distinct items, so as many candidates drop out.
        ranked = rec.rank_items(vec.scores, exclude=prefix, k=min(k, config.num_items - t - 1))
        lines.append(
            f"topk step={t} items={','.join(str(i) for i in ranked)}"
            f" scores={_fmt([vec.scores[i] for i in ranked])}")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
