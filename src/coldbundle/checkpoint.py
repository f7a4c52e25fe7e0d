"""Checkpoint file format.

Layout of a ``.ckpt`` file:

    magic  b"CBCK1\\n"
    u64 LE header length
    header JSON (utf-8, sorted keys, no whitespace)
    concatenated tensor payloads, little-endian float64, header order

The header carries ``{"stage": str, "config": {...}, "payload_sha256": hex,
"tensors": [{"name", "shape"}, ...]}``.  Saving is byte-deterministic for
identical inputs; load-then-save round-trips exactly.  Checkpoints and the
run directory's JSON, CSV and TSV files are written through `atomic_open`,
so a failed write leaves the previous file as it was; `write_json` and
`read_json` are the run directory's one JSON writer and reader.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, OrderingError

_MAGIC = b"CBCK1\n"

STAGE_ORDER = {"stage1": 1, "stage2": 2, "stage3": 3}

_HEADER_KEYS = {"stage", "config", "payload_sha256", "tensors"}


@dataclass
class Checkpoint:
    stage: str
    config: dict
    tensors: dict  # name -> float64 ndarray


def _payload(tensors: dict) -> bytes:
    chunks = []
    for name in tensors:
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside `path` for writing; on a clean exit it
    replaces `path`, on an exception it is removed and `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write `obj` as sorted, compact JSON plus a newline, atomically."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_json(path, keys=()) -> dict:
    """Read a JSON object that holds every one of `keys`; anything else is a
    ContractError naming the file.  A missing file stays an OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise ContractError(f"{path}: unreadable JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ContractError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ContractError(f"{path}: lacks keys {missing}")
    return obj


def save_checkpoint(path, stage: str, config: dict, tensors: dict) -> None:
    if stage not in STAGE_ORDER:
        raise ContractError(f"unknown stage tag {stage!r}")
    payload = _payload(tensors)
    header = {
        "stage": stage,
        "config": config,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "tensors": [{"name": name, "shape": list(np.asarray(arr).shape)}
                    for name, arr in tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path, expect_stage: str | None = None, require=()) -> Checkpoint:
    """Read and verify a checkpoint.  `require` names the tensors the caller
    reads; a checkpoint lacking any of them raises ContractError naming
    every missing one."""
    path = Path(path)
    if not path.exists():
        if expect_stage is not None:
            raise OrderingError(f"missing {expect_stage} checkpoint at {path}; "
                                f"run the earlier pipeline stage first")
        raise FileNotFoundError(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ContractError(f"{path} is not a checkpoint file")
        header_len = int.from_bytes(fh.read(8), "little")
        # Checked before reading: a corrupt length must not size a buffer.
        if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ContractError(f"{path}: header length {header_len} runs past the end of file")
        raw = fh.read(header_len)
        payload = fh.read()
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ContractError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict) or not _HEADER_KEYS <= header.keys():
        raise ContractError(f"{path}: header lacks one of {sorted(_HEADER_KEYS)}")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise ContractError(f"{path}: payload hash mismatch (corrupt checkpoint)")
    if expect_stage is not None and header["stage"] != expect_stage:
        raise OrderingError(f"{path}: expected stage {expect_stage!r}, found {header['stage']!r}")
    try:
        entries = [(e["name"], tuple(operator.index(n) for n in e["shape"]))
                   for e in header["tensors"]]
    except (KeyError, TypeError) as exc:
        raise ContractError(f"{path}: malformed tensor table ({exc!r})") from None
    if any(not isinstance(name, str) or min(shape, default=0) < 0 for name, shape in entries):
        raise ContractError(f"{path}: malformed tensor table")
    missing = sorted(set(require) - {name for name, _ in entries})
    if missing:
        raise ContractError(f"{path}: {header['stage']} checkpoint lacks tensors {missing}")
    counts = [math.prod(shape) for _, shape in entries]
    if 8 * sum(counts) != len(payload):
        raise ContractError(f"{path}: tensor shapes disagree with the payload length")
    tensors = {}
    offset = 0
    for (name, shape), count in zip(entries, counts):
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    return Checkpoint(stage=header["stage"], config=header["config"], tensors=tensors)
