"""The shared file container: every corrupted, truncated, inconsistent or
wrong-kind file of the four kinds must raise DecodeError in its loader."""
from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from peaknetfp import container
from peaknetfp.encoder import BranchSpec, EncoderConfig, PeakEncoder, StageSpec
from peaknetfp.errors import ContractError, DecodeError
from peaknetfp.index import FingerprintDB
from peaknetfp.quadfp import QuadDB
from peaknetfp.signal.peaks import PeakEntry, read_peaks, write_peaks

LOADERS = {
    "checkpoint": PeakEncoder.from_checkpoint,
    "fp.db": FingerprintDB.load,
    "quad.db": QuadDB.load,
    "peaks": read_peaks,
}


def write_small(kind: str, path) -> None:
    """A small valid file of each kind, so fuzzing every byte stays fast."""
    rng = np.random.default_rng(5)
    if kind == "checkpoint":
        config = EncoderConfig(
            stage1=StageSpec(4, (BranchSpec(2, 0.3, (2,)),)),
            stage2=StageSpec(2, (BranchSpec(2, 0.4, (2,)),)),
            global_mlp=(2, 2),
        )
        PeakEncoder(config, seed=1).save(path)
    elif kind == "fp.db":
        db = FingerprintDB(meta={"checkpoint_id": "abc"})
        for tid, n in (("a", 3), ("b", 2)):
            v = rng.normal(size=(n, 4)).astype(np.float32)
            db.add_track(tid, v / np.linalg.norm(v, axis=1, keepdims=True))
        db.save(path)
    elif kind == "quad.db":
        db = QuadDB(meta={"note": "x"})
        for tid, n in (("a", 2), ("b", 0), ("c", 1)):
            db.add_track_quads(
                tid, {"hash": rng.random((n, 4)), "t0": rng.random(n), "dt": rng.random(n)}
            )
        db.save(path)
    else:
        write_peaks(
            path,
            [
                PeakEntry(tid, seg, rng.random((2, 3)).astype(np.float32))
                for tid, seg in (("a", 0), ("a", 1), ("b", 0))
            ],
        )


def corruptions(blob: bytes):
    for n in range(len(blob)):
        yield blob[:n]
    for i in range(len(blob)):
        for mask in (0xFF, 0x80, 0x01):
            bad = bytearray(blob)
            bad[i] ^= mask
            yield bytes(bad)


@pytest.mark.parametrize("kind", LOADERS)
def test_every_corruption_and_every_other_kind_is_a_decode_error(kind, tmp_path):
    good = tmp_path / "good"
    write_small(kind, good)
    LOADERS[kind](good)
    bad = tmp_path / "bad"
    outcomes = {}
    for blob in corruptions(good.read_bytes()):
        bad.write_bytes(blob)
        try:
            LOADERS[kind](bad)
            outcome = "loaded"
        except DecodeError:
            continue
        except Exception as exc:  # any other outcome fails the test
            outcome = type(exc).__name__
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes == {}
    for other, load in LOADERS.items():
        if other != kind:
            with pytest.raises(DecodeError, match="not a"):
                load(good)


@pytest.mark.parametrize("kind", LOADERS)
def test_consistent_container_with_inconsistent_content(kind, tmp_path):
    path = tmp_path / "f"
    write_small(kind, path)
    arrays, meta = container.read(path, kind)

    def miscount(a, m):
        m["tracks"][0][1] += 1

    def non_text_id(a, m):
        m["tracks"][0][0] = 7

    def no_runs(a, m):
        m["tracks"] = []

    def negative_width(a, m):
        m["config"]["global_mlp"][0] = -1

    # every meta key missing in turn (a table-less fp.db among them), every
    # array missing, every array one row short in another dtype
    edits = [lambda a, m, key=key: m.pop(key) for key in meta]
    edits += [lambda a, m, name=name: a.pop(name) for name in arrays]
    edits += [
        lambda a, m, name=name: a.update({name: a[name].astype(np.float64)[:-1]})
        for name in arrays
        if arrays[name].size
    ]
    if "tracks" in meta:
        edits += [miscount, non_text_id, no_runs]
    if "config" in meta:
        edits.append(negative_width)
    for edit in edits:
        edited_arrays, edited_meta = dict(arrays), json.loads(json.dumps(meta))
        edit(edited_arrays, edited_meta)
        container.write(path, kind, edited_arrays, edited_meta)
        with pytest.raises(DecodeError):
            LOADERS[kind](path)


def test_header_sizes_checked_before_any_allocation(tmp_path):
    header = json.dumps(
        {"kind": "fp.db", "meta": {}, "arrays": [["matrix", "<f4", [2**40, 2**40]]]},
        sort_keys=True,
    ).encode()
    body = container.MAGIC + struct.pack("<I", len(header)) + header
    path = tmp_path / "huge.db"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(DecodeError, match="sizes"):
        container.read(path, "fp.db")


def test_roundtrip_of_every_dtype_and_unsupported_dtype(tmp_path):
    arrays = {
        dtype: np.arange(6).astype(dtype).reshape(2, 3) for dtype in container.DTYPES
    }
    path = tmp_path / "all"
    container.write(path, "test", arrays, {"n": 2**63 + 1})
    back, meta = container.read(path, "test")
    assert meta == {"n": 2**63 + 1}
    for dtype, arr in arrays.items():
        assert back[dtype].dtype == np.dtype(dtype)
        np.testing.assert_array_equal(back[dtype], arr)
    with pytest.raises(ContractError):
        container.write(path, "test", {"b": np.zeros(2, dtype=bool)}, {})
