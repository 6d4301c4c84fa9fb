"""Fingerprint database, exact and approximate retrieval, sequence matching."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import kmeans_loop
import peaknetfp.index as index_mod
import peaknetfp.reference as ref
from ivfpq_loop import loop_search
from peaknetfp.errors import ConfigError, ContractError, DataError, DecodeError
from peaknetfp.index import (
    FingerprintDB,
    IVFPQIndex,
    SLOPES,
    SequenceMatch,
    alignment_score,
    kmeans,
    sequence_match,
    smallest_k,
)
from peaknetfp.signal.audio import STRETCH_MAX, STRETCH_MIN


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.normal(size=(n, d))
    return (z / np.linalg.norm(z, axis=1, keepdims=True)).astype(np.float32)


def make_db(track_sizes: dict, dim: int = 16, seed: int = 0) -> FingerprintDB:
    rng = np.random.default_rng(seed)
    db = FingerprintDB()
    for tid, n in track_sizes.items():
        db.add_track(tid, unit_rows(rng, n, dim))
    return db


class TestSmallestK:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_stable_argsort_under_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            # values on a coarse grid, so most rows have runs of equal values
            v = rng.integers(-3, 4, size=(int(rng.integers(1, 8)), n)) / 2.0
            if seed % 2:
                v = v.astype(np.float32)
            for k in sorted({1, max(1, n // 2), n}):
                cols, vals = smallest_k(v, k)
                want = np.argsort(v, axis=1, kind="stable")[:, :k]
                np.testing.assert_array_equal(cols, want)
                np.testing.assert_array_equal(vals, np.take_along_axis(v, want, axis=1))

    def test_nan_ranks_as_inf(self):
        v = np.array(
            [
                [np.nan, 2.0, np.inf, 1.0, np.nan, np.inf],
                [np.nan, np.nan, 0.0, np.nan, -1.0, 0.0],
            ]
        )
        cols, vals = smallest_k(v, 6)
        # after every finite value, tied with +inf by index
        np.testing.assert_array_equal(cols, [[3, 1, 0, 2, 4, 5], [4, 2, 5, 0, 1, 3]])
        np.testing.assert_array_equal(vals[:, 2:], [[np.inf] * 4, [0.0, np.inf, np.inf, np.inf]])
        np.testing.assert_array_equal(smallest_k(v, 3)[0], [[3, 1, 0], [4, 2, 5]])
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = rng.integers(0, 3, size=(4, 12)).astype(np.float64)
            w[rng.random(w.shape) < 0.3] = np.nan
            w[rng.random(w.shape) < 0.2] = np.inf
            k = int(rng.integers(1, 13))
            as_inf = np.where(np.isnan(w), np.inf, w)
            want = np.argsort(as_inf, axis=1, kind="stable")[:, :k]
            cols, vals = smallest_k(w, k)
            np.testing.assert_array_equal(cols, want)
            np.testing.assert_array_equal(vals, np.take_along_axis(as_inf, want, axis=1))


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
        queries = unit_rows(np.random.default_rng(0), 2, 8)
        rows, scores = db.search(queries, k=50)
        assert rows.shape == (2, 7) and scores.shape == (2, 7)
        full = queries @ db.matrix.T
        np.testing.assert_array_equal(rows, np.argsort(-full, axis=1, kind="stable"))
        np.testing.assert_array_equal(scores, np.take_along_axis(full, rows, axis=1))

    def test_query_validation(self):
        db = make_db({"a": 7}, dim=8)
        with pytest.raises(DataError):
            db.search(np.zeros((2, 5), dtype=np.float32), k=1)
        with pytest.raises(ConfigError):
            db.search(unit_rows(np.random.default_rng(0), 1, 8), k=0)

    def test_no_queries(self):
        db = make_db({"a": 7}, dim=8)
        rows, scores = db.search(np.zeros((0, 8), dtype=np.float32), k=3)
        assert rows.shape == (0, 3) and scores.shape == (0, 3)
        assert sequence_match(db, np.zeros((0, 8), dtype=np.float32), k=3) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        db = make_db({"a": 40}, dim=16)
        index = IVFPQIndex.build(db, n_list=4, n_probe=2, m=4, seed=0)
        q = unit_rows(np.random.default_rng(0), 3, 16)
        q[1, 5] = bad
        for backend in (db, index):
            with pytest.raises(DataError):
                backend.search(q, k=5)
            with pytest.raises(DataError):
                sequence_match(db, q, k=5, backend=backend)


class TestDBContainer:
    def test_row_info_and_track_access(self):
        db = make_db({"a": 4, "b": 3}, dim=8, seed=5)
        assert db.n_rows == 7
        assert db.track_ids == ["a", "b"]
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
        for tid in db.track_ids:
            np.testing.assert_array_equal(back.track_vectors(tid), db.track_vectors(tid))

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

    def test_centroids_equal_add_at_means_bytes(self):
        # values over six decades, so another summation order shows in the bits
        rng = np.random.default_rng(5)
        centers = 1e7 * np.arange(6.0)[:, None] * np.ones((1, 3))
        noise = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 3))
        x = centers[rng.integers(0, 6, size=300)] + noise
        c, labels = kmeans(x, 6, seed=0)
        sums = np.zeros_like(c)
        np.add.at(sums, labels, x)
        assert c.tobytes() == (sums / np.bincount(labels)[:, None]).tobytes()

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


def assert_kmeans_equal(points, k, seed, got=None):
    """``kmeans`` returns (or returned, as ``got``) the whole-matrix oracle's
    centroids and labels, byte for byte."""
    got = kmeans(points, k, seed) if got is None else got
    for a, b in zip(got, kmeans_loop.kmeans(points, k, seed), strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    return got


@pytest.fixture
def kmeans_rounds(monkeypatch):
    """``kmeans`` that also returns how many Lloyd rounds it ran: each round
    calls ``_nearest`` once, and the final labelling once more."""
    calls = []
    nearest = index_mod._nearest

    def spy(*args):
        calls.append(1)
        return nearest(*args)

    monkeypatch.setattr(index_mod, "_nearest", spy)

    def run(points, k, seed):
        calls.clear()
        out = kmeans(points, k, seed)
        return len(calls) - 1, out

    return run


class TestKMeansOracle:
    def test_search_benchmark_collection(self, kmeans_rounds):
        # the coarse run and all 16 product-quantizer runs of an IVFPQ build
        db, _ = clustered_search_db(seed=1)
        v = db.matrix.astype(np.float64)
        rounds, (c, labels) = kmeans_rounds(v, 55, [0, 0])
        assert_kmeans_equal(v, 55, [0, 0], got=(c, labels))
        assert rounds == 3
        residuals = v - c[labels]
        pq_rounds = []
        for j in range(16):
            sub, seed = residuals[:, j * 8 : (j + 1) * 8], [0, 1 + j]
            rounds, got = kmeans_rounds(sub, 256, seed)
            assert_kmeans_equal(sub, 256, seed, got=got)
            pq_rounds.append(rounds)
        # some runs end at their fixed point, some run every round
        assert min(pq_rounds) < index_mod.KMEANS_ITERS == max(pq_rounds)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 127, 128, 129, 300])
    def test_widths(self, width):
        # more rows than one assignment block, values over six decades
        rng = np.random.default_rng(width)
        x = rng.normal(size=(1100, width)) * 10.0 ** rng.uniform(-3, 3, size=width)
        assert_kmeans_equal(x, 24, seed=[width, 0])

    def test_k_above_distinct_points(self):
        x = np.repeat(np.random.default_rng(4).normal(size=(7, 5)), 90, axis=0)
        c, _ = assert_kmeans_equal(x, 12, seed=3)
        assert len(c) == 7

    def test_fixed_point_in_round_one(self, kmeans_rounds):
        # every point its own centroid: the first round gives the seeds back
        x = np.random.default_rng(6).normal(size=(40, 3))
        rounds, got = kmeans_rounds(x, 40, 0)
        assert_kmeans_equal(x, 40, 0, got=got)
        assert rounds == 1

    def test_run_capped_at_kmeans_iters(self, kmeans_rounds, monkeypatch):
        x = np.random.default_rng(703).normal(size=(700, 3))
        rounds, got = kmeans_rounds(x, 30, 0)
        assert_kmeans_equal(x, 30, 0, got=got)
        assert rounds == index_mod.KMEANS_ITERS
        # the cap binds: allowed more rounds, the same run goes on
        monkeypatch.setattr(index_mod, "KMEANS_ITERS", 100)
        assert index_mod.KMEANS_ITERS > kmeans_rounds(x, 30, 0)[0] > rounds

    def test_ivfpq_build(self, monkeypatch):
        db, _ = clustered_search_db(seed=1)
        got = IVFPQIndex.build(db)
        monkeypatch.setattr(index_mod, "kmeans", kmeans_loop.kmeans)
        want = IVFPQIndex.build(db)
        for field in ("centroids", "assignments", "cell_rows", "cell_starts", "codes"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        assert len(got.codebooks) == len(want.codebooks) == 16
        for a, b in zip(got.codebooks, want.codebooks):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert got.n_probe == want.n_probe


class TestPairwiseRows:
    def test_matches_numpy_summation_order(self):
        # kmeans seeds with these sums; if a numpy adds a row's terms in
        # another order, this fails before any IVFPQ result shifts
        differ = []
        for width in range(1, 301):
            rng = np.random.default_rng(width)
            x = rng.normal(size=(64, width)) * 10.0 ** rng.uniform(-4, 4, size=(64, width))
            c = x[5] * rng.uniform(-2, 2, size=width)
            got = index_mod._pairwise_rows((np.ascontiguousarray(x.T) - c[:, None]) ** 2)
            if got.tobytes() != ((x - c) ** 2).sum(axis=1).tobytes():
                differ.append(width)
        assert not differ, f"numpy sums rows of these widths in another order: {differ}"


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

    def test_rig_database_defaults(self, eval_rig):
        # the default configuration on the 92-row, 16-d database the
        # command-line tests query
        index = IVFPQIndex.build(eval_rig.db)
        sizes = np.diff(index.cell_starts)
        assert (eval_rig.db.n_rows, eval_rig.db.dim) == (92, 16)
        assert (index.centroids.shape[0], sizes.min(), sizes.max()) == (10, 2, 20)
        assert index.n_probe == 8

    def test_codes_are_bytes(self):
        db = make_db({"a": 300}, dim=16, seed=3)
        index = IVFPQIndex.build(db, n_list=4, n_probe=2, m=4, seed=0)
        assert index.codes.dtype == np.uint8
        assert int(index.codes.max()) == max(len(cb) for cb in index.codebooks) - 1

    def test_dim_must_split_into_subspaces(self):
        db = make_db({"a": 10}, dim=20, seed=1)
        with pytest.raises(ConfigError):
            IVFPQIndex.build(db, m=16)

    @pytest.mark.parametrize("dim, m", [(16, 16), (20, 10), (6, 6), (128, 16)])
    def test_default_subspaces_split_the_dimension(self, dim, m):
        # the defaults index a database of any dimension, 16 subspaces where they fit
        db = make_db({"a": 40}, dim=dim, seed=1)
        assert IVFPQIndex.build(db).codes.shape == (40, m)

    @pytest.mark.parametrize(
        "params",
        [{"m": 0}, {"m": -1}, {"n_list": 0}, {"n_list": -3}, {"n_probe": 0}, {"n_probe": -1},
         {"seed": -1}],
    )
    def test_parameters_below_one_rejected(self, params):
        db = make_db({"a": 30}, dim=16, seed=1)
        with pytest.raises(ConfigError):
            IVFPQIndex.build(db, **params)


def clustered_search_db(seed: int):
    """The search benchmark's collection: 50 tracks of 59 rows, 128-d unit
    vectors around latent centres (50 rows each, 0.35 noise), and 19-row
    queries cut from it with 0.05 noise."""
    rng = np.random.default_rng(seed)
    n_tracks, n_rows = 50, 50 * 59
    centers = rng.normal(size=(-(-n_rows // 50), 128))
    v = centers[np.repeat(np.arange(len(centers)), 50)[:n_rows]]
    v = v + 0.35 * rng.normal(size=(n_rows, 128))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    db = FingerprintDB()
    for t in range(n_tracks):
        db.add_track(f"t{t:04d}", v[t * 59 : (t + 1) * 59])
    queries = []
    for _ in range(12):
        start = int(rng.integers(n_rows // 59)) * 59 + int(rng.integers(59 - 19 + 1))
        q = v[start : start + 19] + 0.05 * rng.normal(size=(19, 128)).astype(np.float32)
        queries.append((q / np.linalg.norm(q, axis=1, keepdims=True)).astype(np.float32))
    return db, queries


def assert_loop_equal(index, queries, k):
    """The batched search returns the per-row loop's rows and scores, byte for byte."""
    rows, scores = index.search(queries, k)
    want_rows, want_scores = loop_search(index, queries, k)
    assert (rows.dtype, rows.shape) == (want_rows.dtype, want_rows.shape)
    assert (scores.dtype, scores.shape) == (want_scores.dtype, want_scores.shape)
    assert rows.tobytes() == want_rows.tobytes()
    assert scores.tobytes() == want_scores.tobytes()
    return rows, scores


class TestIVFPQLoopOracle:
    def test_search_benchmark_collection(self):
        db, queries = clustered_search_db(seed=11)
        index = IVFPQIndex.build(db)
        assert index.n_probe == 8 and len(index.centroids) == 55
        for q in queries:
            rows, _ = assert_loop_equal(index, q, k=20)
            assert (rows >= 0).all()  # every row reaches more than RERANK candidates
        assert_loop_equal(index, np.concatenate(queries[:3])[:50], k=20)

    @pytest.mark.parametrize("n_queries", [0, 1, 19, 50])
    @pytest.mark.parametrize("m", [4, 16])
    def test_query_row_counts_and_subspaces(self, n_queries, m):
        db = make_db({"a": 150, "b": 90}, dim=32, seed=5)
        index = IVFPQIndex.build(db, n_list=12, n_probe=3, m=m, seed=1)
        queries = unit_rows(np.random.default_rng(6), n_queries, 32)
        for k in (1, 20, 200):
            assert_loop_equal(index, queries, k)

    def test_padded_probe(self):
        db = make_db({"a": 40}, dim=16, seed=1)
        index = IVFPQIndex.build(db, n_list=8, n_probe=1, m=4, seed=0)
        queries = unit_rows(np.random.default_rng(2), 19, 16)
        rows, scores = assert_loop_equal(index, queries, k=30)
        assert (rows == -1).any() and np.isneginf(scores[rows == -1]).all()
        # a ninth cell that holds no row pads every slot of a query probing
        # only it, in a call with other queries and in a call of its own
        lonely = unit_rows(np.random.default_rng(3), 1, 16)
        index = dataclasses.replace(
            index,
            centroids=np.concatenate([index.centroids, lonely.astype(np.float64)]),
            cell_starts=np.r_[index.cell_starts, db.n_rows],
        )
        rows, scores = assert_loop_equal(index, np.concatenate([queries[:3], lonely]), k=30)
        assert (rows[3] == -1).all() and np.isneginf(scores[3]).all() and (rows[0] >= 0).any()
        assert_loop_equal(index, lonely, k=30)

    def test_duplicate_rows_tie_to_the_lower_row(self):
        rng = np.random.default_rng(3)
        v = unit_rows(rng, 60, 16)
        v[[7, 31, 44]] = v[2]
        v[50:] = v[40:50]
        db = FingerprintDB()
        db.add_track("t", v)
        index = IVFPQIndex.build(db, n_list=4, n_probe=2, m=4, seed=0)
        rows, _ = assert_loop_equal(index, v[[2, 44, 45, 55]], k=6)
        assert rows[0, :4].tolist() == [2, 7, 31, 44] == rows[1, :4].tolist()
        assert rows[2, :2].tolist() == [45, 55]

    def test_ties_across_cells_go_to_the_lower_row(self):
        # a zero query scores every cell and every candidate 0, so the best
        # RERANK of the two probed cells' rows are the lowest rows of both
        db = make_db({"a": 600}, dim=16, seed=12)
        index = IVFPQIndex.build(db, n_list=4, n_probe=2, m=4, seed=0)
        rows, _ = assert_loop_equal(index, np.zeros((2, 16)), k=20)
        probed = np.flatnonzero(np.isin(index.assignments, [0, 1]))
        assert rows[0].tolist() == probed[:20].tolist() == rows[1].tolist()

    def test_k_above_the_row_count(self):
        db = make_db({"a": 9, "b": 4}, dim=16, seed=8)
        index = IVFPQIndex.build(db, n_list=3, n_probe=2, m=4, seed=0)
        rows, _ = assert_loop_equal(index, unit_rows(np.random.default_rng(9), 5, 16), k=50)
        assert rows.shape == (5, 13)

    def test_subspace_with_fewer_codewords(self):
        # subspace 0 holds one of three fixed patterns, so with one coarse
        # cell its residuals take three values and its k-means three codewords
        rng = np.random.default_rng(4)
        patterns = unit_rows(rng, 3, 4) * 0.6
        v = np.concatenate([patterns[rng.integers(3, size=300)], unit_rows(rng, 300, 12) * 0.8], axis=1)
        db = FingerprintDB()
        db.add_track("t", v)
        index = IVFPQIndex.build(db, n_list=1, n_probe=1, m=4, seed=0)
        assert len(index.codebooks[0]) == 3 and len(index.codebooks[1]) == 256
        assert_loop_equal(index, unit_rows(np.random.default_rng(5), 19, 16), k=20)


@pytest.fixture(scope="module")
def seq_db() -> FingerprintDB:
    return make_db({"a": 40, "b": 40, "c": 40}, dim=16, seed=21)


def row_info(db, row: int) -> tuple[str, int]:
    """(track_id, segment index) of a matrix row, counted from the track lengths."""
    for tid in db.track_ids:
        n = len(db.track_vectors(tid))
        if row < n:
            return tid, row
        row -= n
    raise IndexError(row)


# the 13 tempo slopes 2^(k/6), k = -6..6, that sequence_match aligns along
GRID = [2.0 ** (k / 6) for k in range(-6, 7)]


def row_info_candidates(db, queries, k, backend=None) -> list[SequenceMatch]:
    """``sequence_match`` with candidates gathered by a per-hit ``row_info`` loop.

    A hit of query segment i on track segment j proposes (track, j - round(s·i))
    at every slope s of the grid, halves rounded up; each is scored by
    ``alignment_score`` and a (track, offset) keeps its best slope, ties going
    to the slope nearest 1, then to the lower one.
    """
    q = np.asarray(queries, dtype=np.float32)
    rows, _ = (backend or db).search(q, k)
    candidates = set()
    for i in range(q.shape[0]):
        for row in rows[i]:
            if row < 0:
                continue
            track_id, seg = row_info(db, int(row))
            for s in GRID:
                candidates.add((track_id, seg - math.floor(s * i + 0.5), s))
    best = {}
    for tid, off, s in candidates:
        m = SequenceMatch(tid, off, alignment_score(db, tid, off, q, s), s)
        held = best.get((tid, off))
        if held is None or (-m.score, abs(s - 1), s) < (-held.score, abs(held.slope - 1), held.slope):
            best[(tid, off)] = m
    return sorted(best.values(), key=lambda sm: (-sm.score, sm.track_id, sm.offset))


class TestSequenceMatch:
    def test_candidates_equal_row_info_loop(self, seq_db):
        rng = np.random.default_rng(10)
        for start in (0, 17, 33):
            noisy = seq_db.matrix[start : start + 6] + 0.3 * rng.normal(size=(6, 16))
            q = (noisy / np.linalg.norm(noisy, axis=1, keepdims=True)).astype(np.float32)
            for k in (1, 7, 200):
                assert sequence_match(seq_db, q, k=k) == row_info_candidates(seq_db, q, k)

    def test_candidates_equal_row_info_loop_with_padded_backend(self):
        # the padding test's setup: one probed cell leaves -1 rows to skip
        db = make_db({"a": 8}, dim=16, seed=1)
        index = IVFPQIndex.build(db, n_list=8, n_probe=1, m=16, seed=0)
        q = db.matrix[:3]
        assert (index.search(q, k=8)[0] == -1).any()
        got = sequence_match(db, q, k=8, backend=index)
        assert got == row_info_candidates(db, q, 8, backend=index)
        assert len(got) > 0

    def test_candidates_equal_row_info_loop_on_longer_queries(self, seq_db):
        # past 8 segments numpy's pairwise sum is no longer the sequential one
        rng = np.random.default_rng(14)
        noisy = seq_db.matrix[20:34] + 0.3 * rng.normal(size=(14, 16))
        q = (noisy / np.linalg.norm(noisy, axis=1, keepdims=True)).astype(np.float32)
        assert sequence_match(seq_db, q, k=9) == row_info_candidates(seq_db, q, 9)

    def test_exact_excerpt_aligns_at_full_score(self, seq_db):
        q = seq_db.track_vectors("b")[10:15]
        results = sequence_match(seq_db, q, k=5)
        top = results[0]
        assert (top.track_id, top.offset) == ("b", 10)
        assert top.score == pytest.approx(5.0, abs=1e-4)
        assert results[1].score < top.score

    @pytest.mark.parametrize("slope", [2.0, 0.5])
    def test_stretched_excerpt_aligns_at_full_score(self, seq_db, slope):
        # segment i of a query at tempo factor s holds track segment offset + round(s·i)
        steps = [math.floor(slope * i + 0.5) for i in range(8)]
        q = seq_db.track_vectors("b")[[10 + j for j in steps]]
        results = sequence_match(seq_db, q, k=5)
        top = results[0]
        assert (top.track_id, top.offset) == ("b", 10)
        assert top.score == pytest.approx(8.0, abs=1e-4)
        # the reported slope puts every segment on its source row
        assert [math.floor(top.slope * i + 0.5) for i in range(8)] == steps
        assert results[1].score < top.score

    def test_slope_grid(self):
        assert sorted(SLOPES.tolist()) == pytest.approx(GRID, rel=1e-15)
        assert SLOPES[0] == 1.0
        # the grid spans exactly the factors training and evaluation use
        assert (SLOPES.min(), SLOPES.max()) == (STRETCH_MIN, STRETCH_MAX)

    def test_blocks_do_not_change_scores(self, seq_db, monkeypatch):
        rng = np.random.default_rng(11)
        q = unit_rows(rng, 9, 16)
        want = sequence_match(seq_db, q, k=12)
        monkeypatch.setattr("peaknetfp.index.SCORE_BLOCK", 20)  # two candidates per block
        assert sequence_match(seq_db, q, k=12) == want

    def test_long_query_memory_is_not_quadratic(self):
        # 400 segments at k=10 on one long track give ~50k (track, offset,
        # slope) candidates: one float64 array of all their positions takes
        # over 100 MB
        rng = np.random.default_rng(12)
        db = make_db({"long": 800, "short": 20}, dim=16, seed=13)
        q = unit_rows(rng, 400, 16)
        tracemalloc.start()
        try:
            results = sequence_match(db, q, k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) > 0
        assert peak < 40e6

    def test_single_segment_equals_exact_top1(self, seq_db):
        rng = np.random.default_rng(5)
        queries = unit_rows(rng, 10, 16)
        for qi in range(10):
            rows, scores = seq_db.search(queries[qi][None, :], k=20)
            want_track, want_seg = row_info(seq_db, int(rows[0][0]))
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
