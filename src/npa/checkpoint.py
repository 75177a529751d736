"""Bit-exact model persistence.

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

import math
import os
import struct
import zlib

import numpy as np

from . import model as npa_model
from .config_io import config_to_kv, model_config_from_kv
from .errors import CheckpointError

MAGIC = b"NPA1"
VERSION = 1

__all__ = [
    "MAGIC",
    "VERSION",
    "checkpoint_info",
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


def _unpack_tensors(r: _Reader) -> dict:
    """The file's tensors by name, in file order; a repeated name is an error."""
    count = r.uint(4)
    named = {}
    for _ in range(count):
        name = r.take(r.uint(2)).decode("utf-8")
        ndim = r.uint(1)
        shape = tuple(r.uint(4) for _ in range(ndim))
        raw = r.take(4 * math.prod(shape))
        if name in named:
            raise CheckpointError(f"{r.path}: tensor {name} appears more than once")
        named[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
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


class _Placeholders:
    """A generator that draws nothing: each draw is a read-only placeholder
    of the drawn shape whose every cell views one zero, so
    model._build_params lays out the model without random numbers or value
    arrays."""

    def normal(self, loc, scale, size):
        return np.ndarray(size, buffer=bytes(8), strides=(0,) * len(size))


def load_checkpoint(path):
    """Rebuild (config, params) from a checkpoint file: init_params' walk,
    on a generator that draws nothing, lays out the model, and the file
    fills its tensors."""
    config_text, table = _read_container(path)
    config = model_config_from_kv(config_text)
    params = npa_model._build_params(config, _Placeholders())
    expected = dict(npa_model.named_parameters(params))
    missing = [n for n in expected if n not in table]
    extra = [n for n in table if n not in expected]
    if missing or extra:
        raise CheckpointError(
            f"{path}: tensor names do not match config (missing {missing}, extra {extra})")
    for name, t in expected.items():
        if table[name].shape != t.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {table[name].shape}, expected {t.shape}")
        t.data = table[name].astype(np.float64)
    return config, params


def checkpoint_info(path) -> dict:
    """Config text and per-tensor shapes, without building a model."""
    config_text, named = _read_container(path)
    return {
        "version": VERSION,
        "config_text": config_text,
        "tensors": [(name, tuple(arr.shape)) for name, arr in named.items()],
    }
