"""Checkpoint format: round trips, corruption detection, stage ordering."""

import json
import os

import numpy as np
import pytest

from coldbundle import checkpoint
from coldbundle.checkpoint import load_checkpoint, save_checkpoint, write_json
from coldbundle.data import InteractionSet, Kind, ingest_remap, save_interactions
from coldbundle.errors import ContractError, OrderingError
from coldbundle.rng import Rng


def test_roundtrip(tmp_path):
    t = {"a": Rng(0).normal((3, 4)), "b": np.arange(5, dtype=np.float64)}
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "stage1", {"seed": 1}, t)
    back = load_checkpoint(path, expect_stage="stage1")
    assert back.config == {"seed": 1}
    np.testing.assert_array_equal(back.tensors["a"], t["a"])
    np.testing.assert_array_equal(back.tensors["b"], t["b"])


def test_required_tensors(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "stage1", {}, {"a": np.zeros(2), "b": np.ones(3)})
    assert set(load_checkpoint(path, require=("a", "b")).tensors) == {"a", "b"}
    with pytest.raises(ContractError, match=r"\['c', 'd'\]"):
        load_checkpoint(path, require=("a", "d", "c"))


def test_save_deterministic(tmp_path):
    t = {"a": Rng(0).normal((3, 4))}
    save_checkpoint(tmp_path / "one.ckpt", "stage2", {"k": 2}, t)
    save_checkpoint(tmp_path / "two.ckpt", "stage2", {"k": 2}, t)
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()


def test_corruption_detected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "stage1", {}, {"a": np.ones(4)})
    good = path.read_bytes()
    magic, start = good[:6], 14
    header_len = int.from_bytes(good[6:start], "little")
    header = json.loads(good[start:start + header_len])
    payload = good[start + header_len:]

    def framed(raw: bytes) -> bytes:
        return magic + len(raw).to_bytes(8, "little") + raw + payload

    def edited(**changes) -> bytes:
        return framed(json.dumps({**header, **changes}).encode())

    def without(key: str) -> bytes:
        return framed(json.dumps({k: v for k, v in header.items() if k != key}).encode())

    cases = {
        "payload bit flip": good[:-1] + bytes([good[-1] ^ 0xFF]),
        "header length 5": magic + (5).to_bytes(8, "little") + good[start:],
        "header length past end of file": magic + len(good).to_bytes(8, "little") + good[start:],
        "header length 2**63": magic + (2 ** 63).to_bytes(8, "little") + good[start:],
        "header not utf-8": framed(b"\xff\xfe{}"),
        "header not json": framed(b'{"stage": '),
        "header not an object": framed(b"[1, 2]"),
        "missing stage": without("stage"),
        "missing payload_sha256": without("payload_sha256"),
        "missing tensors": without("tensors"),
        "shape larger than payload": edited(tensors=[{"name": "a", "shape": [5]}]),
        "shape smaller than payload": edited(tensors=[{"name": "a", "shape": [3]}]),
        "negative dimensions": edited(tensors=[{"name": "a", "shape": [-2, -2]}]),
        "shape not a list of ints": edited(tensors=[{"name": "a", "shape": "4"}]),
        "tensor entry without name": edited(tensors=[{"shape": [4]}]),
    }
    for label, blob in cases.items():
        path.write_bytes(blob)
        with pytest.raises(ContractError):
            load_checkpoint(path)


def test_stage_ordering_errors(tmp_path):
    with pytest.raises(OrderingError):
        load_checkpoint(tmp_path / "missing.ckpt", expect_stage="stage1")
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "stage1", {}, {"a": np.ones(2)})
    with pytest.raises(OrderingError):
        load_checkpoint(path, expect_stage="stage2")
    with pytest.raises(ContractError):
        save_checkpoint(tmp_path / "y.ckpt", "stage9", {}, {})


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not")
    with pytest.raises(ContractError):
        load_checkpoint(path)


class _FailingWrites:
    """File wrapper whose third write raises, as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def test_failed_writes_leave_previous_file(tmp_path, monkeypatch):
    ckpt, report, tsv = tmp_path / "x.ckpt", tmp_path / "metrics.json", tmp_path / "train.tsv"
    save_checkpoint(ckpt, "stage1", {"seed": 1}, {"a": np.arange(4.0)})
    write_json(report, {"recall": 0.5})
    save_interactions(tsv, InteractionSet.from_pairs(Kind.USER_BUNDLE, [0, 1, 2, 3], [1, 2, 3, 0]))
    raw, dense = tmp_path / "raw", tmp_path / "dense"
    raw.mkdir()
    for name in ("user_bundle.tsv", "user_item.tsv", "bundle_item.tsv"):
        (raw / name).write_text("10\t20\n30\t40\n50\t60\n")
    ingest_remap(raw, dense)
    written = [ckpt, report, tsv, *sorted(dense.iterdir())]
    before = {path: path.read_bytes() for path in written}

    # json.dump streams chunks, so the temp file is part-written when it raises.
    with pytest.raises(TypeError):
        write_json(report, {"recall": 0.25, "z": object()})
    monkeypatch.setattr(checkpoint, "open",
                        lambda *a, **kw: _FailingWrites(open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(ckpt, "stage1", {"seed": 2}, {"a": np.ones(4)})
    with pytest.raises(OSError, match="no space"):
        save_interactions(tsv, InteractionSet.from_pairs(Kind.USER_BUNDLE, [5, 6, 7, 8], [0, 0, 0, 0]))
    (raw / "user_item.tsv").write_text("11\t15\n")  # new ids: every output file changes
    with pytest.raises(OSError, match="no space"):
        ingest_remap(raw, dense)  # in idmap.tsv, the first file it writes

    assert {path: path.read_bytes() for path in written} == before
    assert sorted(os.listdir(tmp_path)) == ["dense", "metrics.json", "raw", "train.tsv", "x.ckpt"]

    # Only the last dense TSV fails: the files before it are replaced whole.
    monkeypatch.setattr(checkpoint, "open", lambda path, *a, **kw: (
        _FailingWrites(open(path, *a, **kw)) if "bundle_item" in str(path)
        else open(path, *a, **kw)), raising=False)
    with pytest.raises(OSError, match="no space"):
        ingest_remap(raw, dense)
    assert [path for path in written if path.read_bytes() != before[path]] == [
        dense / "idmap.tsv", dense / "user_bundle.tsv", dense / "user_item.tsv"]
    assert sorted(os.listdir(dense)) == ["bundle_item.tsv", "idmap.tsv", "user_bundle.tsv",
                                         "user_item.tsv"]
