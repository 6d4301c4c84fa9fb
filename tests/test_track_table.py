"""The per-track row layout that fingerprint databases, quad databases and
peak files share: its joined view, its file bytes and its track-table check."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from peaknetfp import container
from peaknetfp.errors import DataError, DecodeError
from peaknetfp.index import FingerprintDB
from peaknetfp.quadfp import QuadDB
from peaknetfp.signal.peaks import PeakEntry, write_peaks

# SHA-256 of the files write_literal_files makes; a change to any of them
# changes the bytes every existing fp.db, quad.db or peak file was written in
PINNED_SHA256 = {
    "fp.db": "263a704d37592803ba413fadc1e78095eb23b788b0636f37118acefdd821c625",
    "quad.db": "420f676ef27e54ddb84aa676e1bafa2696d2a0bbbbd119d6f6776b9425ed8a8d",
    "peaks": "f71baf741c884ef7c76bc7789f839dcea1225edc72d83c7f626e356c57ff76a5",
}


def write_literal_files(out) -> None:
    db = FingerprintDB(meta={"model": "m"})
    db.add_track("a", [[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0]])
    db.add_track("b", [[0.0, 0.0, 0.0, -1.0]])
    db.save(out / "fp.db")
    qdb = QuadDB(meta={"note": "n"})
    qdb.add_track_quads(
        "a",
        {
            "hash": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.25, 0.75, 0.125]],
            "t0": [0.5, 1.0],
            "dt": [0.25, 2.0],
        },
    )
    qdb.add_track_quads("b", {"hash": np.zeros((0, 4)), "t0": [], "dt": []})
    qdb.add_track_quads("c", {"hash": [[0.0, 1.0, 0.5, 0.5]], "t0": [3.0], "dt": [1.5]})
    qdb.save(out / "quad.db")
    pts = np.arange(6, dtype=np.float32).reshape(2, 3) / 8
    entries = [PeakEntry("a", 0, pts), PeakEntry("b", 4, pts + 1), PeakEntry("a", 1, pts * 2)]
    write_peaks(out / "peaks", entries)


def test_file_bytes_are_pinned(tmp_path):
    write_literal_files(tmp_path)
    for name, digest in PINNED_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_joined_layout_is_cached_until_a_track_is_added():
    table = container.TrackTable()
    table.add("x", {"v": np.arange(3.0)})
    table.add("y", {"v": np.zeros(0)})
    first = table.joined()
    assert table.joined() is first
    table.add("z", {"v": np.array([7.0, 8.0])})
    lay = table.joined()
    assert lay is not first
    np.testing.assert_array_equal(lay["v"], [0.0, 1.0, 2.0, 7.0, 8.0])
    assert lay["ids"] == ["x", "y", "z"]
    np.testing.assert_array_equal(lay["track"], [0, 0, 0, 2, 2])
    np.testing.assert_array_equal(lay["starts"], [0, 3, 3])
    with pytest.raises(DataError):
        table.add("y", {"v": np.ones(1)})
    with pytest.raises(DataError):
        container.TrackTable().joined()


@pytest.mark.parametrize(
    "tracks", [[["a", 2], ["b", 2]], [["a", 4]], [], [["a", 1], ["b", -1]], [["a", 2.0]], "a"]
)
def test_track_table_that_misses_a_row_count_is_a_decode_error(tmp_path, tracks):
    path = tmp_path / "t.bin"
    arrays = {"v": np.arange(3.0), "w": np.zeros((3, 2))}
    container.write(path, "t", arrays, {"tracks": tracks})
    with pytest.raises(DecodeError):
        container.read_tracks(path, "t")


def test_array_that_misses_the_table_is_a_decode_error(tmp_path):
    path = tmp_path / "t.bin"
    arrays = {"v": np.arange(3.0), "w": np.zeros((4, 2))}
    container.write(path, "t", arrays, {"tracks": [["a", 3]]})
    with pytest.raises(DecodeError):
        container.read_tracks(path, "t")


def test_runs_come_back_in_file_order(tmp_path):
    path = tmp_path / "t.bin"
    runs = [("a", {"v": np.arange(2.0)}), ("b", {"v": np.zeros(0)}), ("a", {"v": np.ones(1)})]
    container.write_tracks(path, "t", runs, {"x": 1})
    back, meta = container.read_tracks(path, "t")
    assert meta == {"x": 1, "tracks": [["a", 2], ["b", 0], ["a", 1]]}
    assert [tid for tid, _ in back] == ["a", "b", "a"]
    for (_, want), (_, got) in zip(runs, back):
        np.testing.assert_array_equal(got["v"], want["v"])
