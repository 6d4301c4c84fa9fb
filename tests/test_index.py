"""Fingerprint database, exact and approximate retrieval, sequence matching."""
import numpy as np
import pytest

import peaknetfp.reference as ref
from peaknetfp.errors import ConfigError, ContractError, DataError, DecodeError
from peaknetfp.index import (
    FingerprintDB,
    IVFPQIndex,
    SequenceMatch,
    alignment_score,
    kmeans,
    sequence_match,
)


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.normal(size=(n, d))
    return (z / np.linalg.norm(z, axis=1, keepdims=True)).astype(np.float32)


def make_db(track_sizes: dict, dim: int = 16, seed: int = 0) -> FingerprintDB:
    rng = np.random.default_rng(seed)
    db = FingerprintDB()
    for tid, n in track_sizes.items():
        db.add_track(tid, unit_rows(rng, n, dim))
    return db


class TestExactSearch:
    def test_matches_loop_oracle(self):
        db = make_db({"a": 80, "b": 70, "c": 50}, dim=16, seed=1)
        rng = np.random.default_rng(2)
        queries = unit_rows(rng, 20, 16)
        rows, scores = db.search(queries, k=5)
        for qi in range(20):
            want = ref.naive_mips(db.matrix, queries[qi], 5)
            assert list(rows[qi]) == [r for r, _ in want]
            for got_s, (_, want_s) in zip(scores[qi], want):
                assert got_s == pytest.approx(want_s, rel=1e-5, abs=1e-6)

    def test_duplicate_rows_tie_to_lowest_row(self):
        rng = np.random.default_rng(3)
        v = unit_rows(rng, 6, 8)
        v[4] = v[1]  # duplicate of an earlier row
        db = FingerprintDB()
        db.add_track("t", v)
        rows, _ = db.search(v[1][None, :], k=3)
        assert rows[0][0] == 1 and rows[0][1] == 4

    def test_k_clamped_to_row_count(self):
        db = make_db({"a": 7}, dim=8)
        rows, scores = db.search(unit_rows(np.random.default_rng(0), 2, 8), k=50)
        assert rows.shape == (2, 7) and scores.shape == (2, 7)

    def test_query_validation(self):
        db = make_db({"a": 7}, dim=8)
        with pytest.raises(DataError):
            db.search(np.zeros((2, 5), dtype=np.float32), k=1)
        with pytest.raises(ConfigError):
            db.search(unit_rows(np.random.default_rng(0), 1, 8), k=0)


class TestDBContainer:
    def test_row_info_and_track_access(self):
        db = make_db({"a": 4, "b": 3}, dim=8, seed=5)
        assert db.n_rows == 7
        assert db.track_ids == ["a", "b"]
        assert db.row_info(0) == ("a", 0)
        assert db.row_info(5) == ("b", 1)
        assert len(db.track_vectors("b")) == 3
        np.testing.assert_array_equal(db.track_vectors("b"), db.matrix[4:])

    def test_rejects_bad_blocks(self):
        db = make_db({"a": 4}, dim=8)
        with pytest.raises(DataError):
            db.add_track("a", unit_rows(np.random.default_rng(0), 2, 8))
        with pytest.raises(DataError):
            db.add_track("b", unit_rows(np.random.default_rng(0), 2, 5))
        with pytest.raises(ContractError):
            db.add_track("c", 2.0 * unit_rows(np.random.default_rng(0), 2, 8))
        with pytest.raises(DataError):
            db.add_track("d", np.zeros((0, 8), dtype=np.float32))

    def test_nan_rows_rejected(self):
        v = unit_rows(np.random.default_rng(0), 3, 8)
        v[1] = np.nan
        with pytest.raises(ContractError):
            FingerprintDB().add_track("n", v)

    def test_empty_database_rejected(self, tmp_path):
        with pytest.raises(DataError):
            FingerprintDB().search(np.zeros((1, 8), dtype=np.float32), k=1)
        with pytest.raises(DataError):
            FingerprintDB().save(tmp_path / "empty.db")


class TestSerialization:
    def test_roundtrip_and_deterministic_bytes(self, tmp_path):
        db = make_db({"a": 5, "b": 8}, dim=16, seed=7)
        db.meta["model"] = "abc123"
        p1, p2 = tmp_path / "one.db", tmp_path / "two.db"
        db.save(p1)
        db.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = FingerprintDB.load(p1)
        assert back.track_ids == db.track_ids
        assert back.meta == db.meta
        np.testing.assert_array_equal(back.matrix, db.matrix)
        assert back.row_info(9) == db.row_info(9)

    def test_corrupt_files_rejected(self, tmp_path):
        db = make_db({"a": 5}, dim=8)
        good = tmp_path / "good.db"
        db.save(good)
        blob = good.read_bytes()
        bad = tmp_path / "bad.db"
        bad.write_bytes(b"WRONGMAG" + blob[8:])
        with pytest.raises(DecodeError):
            FingerprintDB.load(bad)
        bad.write_bytes(blob[:-4])
        with pytest.raises(DecodeError):
            FingerprintDB.load(bad)
        bad.write_bytes(blob + b"xx")
        with pytest.raises(DecodeError):
            FingerprintDB.load(bad)
        with pytest.raises(DataError):
            FingerprintDB.load(tmp_path / "missing.db")


class TestKMeans:
    def test_deterministic(self):
        x = np.random.default_rng(0).normal(size=(200, 8))
        c1, l1 = kmeans(x, 16, seed=[3, 0])
        c2, l2 = kmeans(x, 16, seed=[3, 0])
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(l1, l2)

    def test_k_equal_n_reconstructs_points(self):
        x = np.random.default_rng(1).normal(size=(40, 4))
        c, labels = kmeans(x, 40, seed=0)
        assert c.shape == (40, 4)
        np.testing.assert_allclose(c[labels], x, atol=1e-12)

    def test_two_blobs_separate(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(50, 4)) * 0.05 + 10.0
        b = rng.normal(size=(50, 4)) * 0.05 - 10.0
        _, labels = kmeans(np.concatenate([a, b]), 2, seed=0)
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[50]

    def test_duplicate_points_shrink_k(self):
        x = np.tile(np.arange(4.0)[:, None], (1, 3)).repeat(5, axis=0)  # 4 distinct
        c, labels = kmeans(x, 10, seed=0)
        assert c.shape[0] == 4
        np.testing.assert_allclose(c[labels], x, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((0, 3)), 2, seed=0)
        with pytest.raises(ConfigError):
            kmeans(np.zeros((5, 3)), 0, seed=0)


class TestIVFPQ:
    def test_degenerate_settings_reproduce_exact_search(self):
        db = make_db({"a": 120, "b": 80}, dim=32, seed=11)
        index = IVFPQIndex.build(db, n_list=4, n_probe=4, m=16, seed=0)
        rng = np.random.default_rng(12)
        noisy = db.matrix[rng.choice(200, size=20, replace=False)] + 0.05 * rng.normal(
            size=(20, 32)
        ).astype(np.float32)
        queries = noisy / np.linalg.norm(noisy, axis=1, keepdims=True)
        rows_e, scores_e = db.search(queries, k=10)
        rows_a, scores_a = index.search(queries, k=10)
        np.testing.assert_array_equal(rows_a, rows_e)
        np.testing.assert_allclose(scores_a, scores_e, rtol=1e-5, atol=1e-5)

    def test_tie_handling_matches_exact(self):
        rng = np.random.default_rng(3)
        v = unit_rows(rng, 10, 32)
        v[7] = v[2]
        db = FingerprintDB()
        db.add_track("t", v)
        index = IVFPQIndex.build(db, n_list=2, n_probe=2, m=16, seed=0)
        rows, _ = index.search(v[2][None, :], k=4)
        assert rows[0][0] == 2 and rows[0][1] == 7

    def test_recall_at_20_on_large_clustered_db(self):
        # fingerprints of real audio come in correlated runs, so neighboring
        # rows share direction; model that with latent cluster centers
        rng = np.random.default_rng(42)
        centers = rng.normal(size=(200, 128))
        rows = centers[np.repeat(np.arange(200), 50)] + 0.35 * rng.normal(
            size=(10000, 128)
        )
        rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
        db = FingerprintDB()
        for t in range(10):
            db.add_track(f"t{t:02d}", rows[t * 1000 : (t + 1) * 1000])
        index = IVFPQIndex.build(db, n_list=64, n_probe=8, m=16, seed=0)
        pick = rng.choice(db.n_rows, size=50, replace=False)
        noisy = db.matrix[pick] + 0.05 * rng.normal(size=(50, 128)).astype(np.float32)
        queries = noisy / np.linalg.norm(noisy, axis=1, keepdims=True)
        rows_e, _ = db.search(queries, k=20)
        rows_a, _ = index.search(queries, k=20)
        recall = np.mean(
            [
                len(set(rows_a[i]) & set(rows_e[i])) / 20.0
                for i in range(queries.shape[0])
            ]
        )
        assert recall >= 0.9

    def test_padding_when_probe_covers_too_little(self):
        db = make_db({"a": 8}, dim=16, seed=1)
        index = IVFPQIndex.build(db, n_list=8, n_probe=1, m=16, seed=0)
        rows, scores = index.search(db.matrix[:1], k=8)
        assert (rows[0] == -1).any()
        assert np.isneginf(scores[0][rows[0] == -1]).all()

    def test_from_meta_uses_the_stored_parameters(self):
        db = make_db({"a": 30, "b": 20}, dim=16, seed=2)
        db.meta["ivfpq"] = {"n_list": 5, "n_probe": 2, "m": 4, "seed": 3}
        got = IVFPQIndex.from_meta(db)
        want = IVFPQIndex.build(db, n_list=5, n_probe=2, m=4, seed=3)
        assert (got.centroids.shape[0], got.n_probe, got.codes.shape[1]) == (5, 2, 4)
        np.testing.assert_array_equal(got.centroids, want.centroids)
        np.testing.assert_array_equal(got.codes, want.codes)
        del db.meta["ivfpq"]  # nothing stored: build's defaults at seed 0
        np.testing.assert_array_equal(
            IVFPQIndex.from_meta(db).codes, IVFPQIndex.build(db, seed=0).codes
        )

    def test_dim_must_split_into_subspaces(self):
        db = make_db({"a": 10}, dim=20, seed=1)
        with pytest.raises(ConfigError):
            IVFPQIndex.build(db, m=16)


@pytest.fixture(scope="module")
def seq_db() -> FingerprintDB:
    return make_db({"a": 40, "b": 40, "c": 40}, dim=16, seed=21)


class TestSequenceMatch:

    def test_exact_excerpt_aligns_at_full_score(self, seq_db):
        q = seq_db.track_vectors("b")[10:15]
        results = sequence_match(seq_db, q, k=5)
        top = results[0]
        assert (top.track_id, top.offset) == ("b", 10)
        assert top.score == pytest.approx(5.0, abs=1e-4)
        assert results[1].score < top.score

    def test_single_segment_equals_exact_top1(self, seq_db):
        rng = np.random.default_rng(5)
        queries = unit_rows(rng, 10, 16)
        for qi in range(10):
            rows, scores = seq_db.search(queries[qi][None, :], k=20)
            want_track, want_seg = seq_db.row_info(int(rows[0][0]))
            top = sequence_match(seq_db, queries[qi][None, :], k=20)[0]
            assert (top.track_id, top.offset) == (want_track, want_seg)
            assert top.score == pytest.approx(float(scores[0][0]), abs=1e-5)

    def test_alignment_score_matches_hand_loop(self, seq_db):
        rng = np.random.default_rng(6)
        q = unit_rows(rng, 4, 16)
        for offset in (-2, 0, 5, 38, 39):
            got = alignment_score(seq_db, "a", offset, q)
            track = seq_db.track_vectors("a")
            want = 0.0
            for i in range(4):
                j = offset + i
                if 0 <= j < track.shape[0]:
                    want += float(
                        np.dot(q[i].astype(np.float64), track[j].astype(np.float64))
                    )
            assert got == pytest.approx(want, abs=1e-9)

    def test_overhang_is_clipped_not_wrapped(self, seq_db):
        rng = np.random.default_rng(7)
        q = np.concatenate([unit_rows(rng, 2, 16), seq_db.track_vectors("c")[0:3]])
        results = sequence_match(seq_db, q, k=5)
        match = next(r for r in results if r.track_id == "c" and r.offset == -2)
        # only query rows 2..4 overlap the track; each contributes ~1
        track = seq_db.track_vectors("c").astype(np.float64)
        want = sum(float(np.dot(q[i].astype(np.float64), track[i - 2])) for i in (2, 3, 4))
        assert match.score == pytest.approx(want, abs=1e-9)
        assert 3.0 - 1e-4 <= match.score < 3.5

    def test_ties_break_by_track_then_offset(self):
        rng = np.random.default_rng(8)
        block = unit_rows(rng, 10, 16)
        db = FingerprintDB()
        db.add_track("b", block)
        db.add_track("a", block)  # identical content, later insertion
        q = block[3:6]
        results = sequence_match(db, q, k=10)
        assert results[0].track_id == "a" and results[1].track_id == "b"
        assert results[0].offset == results[1].offset == 3
        assert results[0].score == pytest.approx(results[1].score, abs=1e-9)

        one = np.tile(unit_rows(np.random.default_rng(9), 1, 16), (6, 1))
        db2 = FingerprintDB()
        db2.add_track("flat", one)
        flat_q = one[:2]
        flat = sequence_match(db2, flat_q, k=6)
        assert flat[0].offset == 0  # every full-overlap offset scores 2.0
        assert flat[0].score == pytest.approx(2.0, abs=1e-5)

    def test_backend_object_is_used(self, seq_db):
        q = seq_db.track_vectors("a")[4:8]
        index = IVFPQIndex.build(seq_db, n_list=4, n_probe=4, m=16, seed=0)
        via_index = sequence_match(seq_db, q, k=5, backend=index)
        assert (via_index[0].track_id, via_index[0].offset) == ("a", 4)
        assert via_index[0].score == pytest.approx(4.0, abs=1e-4)

    def test_result_type(self, seq_db):
        top = sequence_match(seq_db, seq_db.track_vectors("a")[:2], k=3)[0]
        assert isinstance(top, SequenceMatch)
        with pytest.raises(DataError):
            sequence_match(seq_db, np.zeros(16, dtype=np.float32), k=3)
