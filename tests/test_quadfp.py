"""Quad hashing, emission, grid lookup, and the voting cascade."""
import numpy as np
import pytest

import peaknetfp.reference as ref
from peaknetfp.errors import DataError, DecodeError
from peaknetfp.quadfp import (
    HASH_EPSILON,
    QUERY_QUADS_PER_SECOND,
    REF_QUADS_PER_SECOND,
    QuadDB,
    QuadMatch,
    box_matches,
    enumerate_quads,
    parabolic_refine,
    quad_hash,
    spectrogram_peaks,
)
from peaknetfp.signal.audio import AudioClip, stretch_audio
from peaknetfp.signal.spectral import SpectrogramConfig, melspectrogram, stretch_spectrogram


def synth_track(seconds: float, seed: int) -> np.ndarray:
    sr = 8000
    n = int(seconds * sr)
    t = np.arange(n) / sr
    rng = np.random.default_rng(seed)
    x = 0.01 * rng.normal(size=n)
    for _ in range(8):
        f0 = rng.uniform(300.0, 3500.0)
        start = rng.uniform(0.0, seconds - 0.5)
        env = np.exp(-np.maximum(t - start, 0.0) * rng.uniform(1.0, 3.0))
        env[t < start] = 0.0
        x += rng.uniform(0.3, 0.7) * env * np.sin(2 * np.pi * f0 * t)
    return (0.9 * x / np.max(np.abs(x))).astype(np.float32)


class TestQuadHash:
    def test_hand_worked_example(self):
        a, b = np.array([0.0, 0.0, 1.0]), np.array([10.0, 20.0, 1.0])
        c, d = np.array([2.0, 5.0, 1.0]), np.array([7.0, 15.0, 1.0])
        np.testing.assert_allclose(quad_hash(a, b, c, d), [0.2, 0.25, 0.7, 0.75])

    def test_canonical_order_swaps_arguments(self):
        a, b = np.array([0.0, 0.0, 1.0]), np.array([10.0, 20.0, 1.0])
        c, d = np.array([2.0, 5.0, 1.0]), np.array([7.0, 15.0, 1.0])
        np.testing.assert_array_equal(quad_hash(a, b, c, d), quad_hash(a, b, d, c))
        # equal x: order decided by y
        c2, d2 = np.array([2.0, 15.0, 1.0]), np.array([2.0, 5.0, 1.0])
        h = quad_hash(a, b, c2, d2)
        assert h[0] == h[2] == pytest.approx(0.2)
        assert h[1] < h[3]

    def test_descending_frequency_box(self):
        a, b = np.array([0.0, 30.0, 1.0]), np.array([8.0, 10.0, 1.0])
        c = np.array([2.0, 25.0, 1.0])
        d = np.array([6.0, 15.0, 1.0])
        h = quad_hash(a, b, c, d)
        assert np.all(h > 0.0) and np.all(h < 1.0)
        np.testing.assert_allclose(h, [0.25, 0.25, 0.75, 0.75])

    def test_time_stretch_invariance_synthetic(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            ta = rng.uniform(0, 100)
            tb = ta + rng.uniform(8, 60)
            fa, fb = rng.choice(256, size=2, replace=False).astype(float)
            lo_f, hi_f = min(fa, fb), max(fa, fb)
            tc, td = sorted(rng.uniform(ta + 1e-3, tb - 1e-3, size=2))
            fc, fd = rng.uniform(lo_f + 1e-3, hi_f - 1e-3, size=2)
            quad = [
                np.array([ta, fa, 1.0]),
                np.array([tb, fb, 1.0]),
                np.array([tc, fc, 1.0]),
                np.array([td, fd, 1.0]),
            ]
            base = quad_hash(*quad)
            for s in (0.5, 0.9, 1.1, 2.0):
                scaled = [np.array([p[0] / s, p[1], p[2]]) for p in quad]
                assert np.abs(quad_hash(*scaled) - base).max() <= 1e-9


class TestParabolicRefine:
    def test_hand_worked_vertex(self):
        spec = np.zeros((5, 5), dtype=np.float64)
        spec[2, 1:4] = [1.0, 4.0, 3.0]  # vertex at 2 + 0.5*(1-3)/(1-8+3) = 2.25
        spec[1:4, 2] += [0.0, 0.0, 0.0]
        t, f = parabolic_refine(spec, np.array([2]), np.array([2]))
        assert t[0] == pytest.approx(2.25)
        # frequency slice is [0, 4, 0]: symmetric, stays centered
        assert f[0] == pytest.approx(2.0)

    def test_border_peaks_keep_integer_coordinate(self):
        spec = np.zeros((4, 4))
        spec[0, 0] = 1.0
        t, f = parabolic_refine(spec, np.array([0]), np.array([0]))
        assert t[0] == 0.0 and f[0] == 0.0

    def test_recovers_off_grid_gaussian(self):
        true_t, true_f = 10.37, 7.81
        cols, rows = np.meshgrid(np.arange(21), np.arange(16))
        spec = np.exp(-((cols - true_t) ** 2) / 3.0 - ((rows - true_f) ** 2) / 3.0)
        t, f = parabolic_refine(spec, np.array([8]), np.array([10]))
        assert abs(t[0] - true_t) < 0.1
        assert abs(f[0] - true_f) < 0.1


class TestSpectrogramPeaks:
    def test_matches_naive_bucket_selection(self):
        rng = np.random.default_rng(1)
        spec = rng.random((64, 200)).astype(np.float32)
        fps = 31.25
        got = spectrogram_peaks(spec, fps, per_second=10)
        want = []
        by_sec = {}
        s64 = spec.astype(np.float64)
        for r, c, v in ref.naive_local_maxima(spec):
            tc, fc = float(c), float(r)
            if 0 < c < spec.shape[1] - 1:
                den = s64[r, c - 1] - 2.0 * s64[r, c] + s64[r, c + 1]
                tc += min(0.5, max(-0.5, 0.5 * (s64[r, c - 1] - s64[r, c + 1]) / den))
            if 0 < r < spec.shape[0] - 1:
                den = s64[r - 1, c] - 2.0 * s64[r, c] + s64[r + 1, c]
                fc += min(0.5, max(-0.5, 0.5 * (s64[r - 1, c] - s64[r + 1, c]) / den))
            by_sec.setdefault(int(tc / fps), []).append((-float(v), c, r, tc, fc))
        for sec in sorted(by_sec):
            for negv, c, r, tc, fc in sorted(by_sec[sec])[:10]:
                want.append((tc, fc, -negv))
        want = np.array(sorted(want, key=lambda p: (p[0], p[1])))
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_bucket_budget_respected(self):
        rng = np.random.default_rng(2)
        spec = rng.random((128, 400)).astype(np.float32)
        peaks = spectrogram_peaks(spec, 31.25, per_second=7)
        seconds = (peaks[:, 0] / 31.25).astype(int)
        assert max(np.bincount(seconds)) <= 7

    def test_empty_spectrogram(self):
        assert spectrogram_peaks(np.zeros((16, 50), dtype=np.float32), 31.25).shape == (0, 3)


@pytest.fixture(scope="module")
def peaks():
    spec = melspectrogram(synth_track(8.0, seed=3), SpectrogramConfig())
    return spectrogram_peaks(spec, 31.25)


class TestEnumerateQuads:

    def test_deterministic_and_dense_enough(self, peaks):
        a = enumerate_quads(peaks, 31.25, REF_QUADS_PER_SECOND)
        b = enumerate_quads(peaks, 31.25, REF_QUADS_PER_SECOND)
        np.testing.assert_array_equal(a["hash"], b["hash"])
        np.testing.assert_array_equal(a["t0"], b["t0"])
        n = a["hash"].shape[0]
        assert n >= 0.5 * REF_QUADS_PER_SECOND * 8  # at least half the target
        assert n <= REF_QUADS_PER_SECOND * 9

    def test_hash_geometry_constraints(self, peaks):
        q = enumerate_quads(peaks, 31.25, REF_QUADS_PER_SECOND)
        h = q["hash"]
        assert np.all(h > 0.0) and np.all(h < 1.0)  # strictly inside the box
        assert np.all(
            (h[:, :2] < h[:, 2:]).any(axis=1)
        )  # canonical order: C before D somewhere
        lex = (h[:, 0] < h[:, 2]) | ((h[:, 0] == h[:, 2]) & (h[:, 1] <= h[:, 3]))
        assert lex.all()
        assert np.all(q["dt"] >= 0.25 - 1e-9) and np.all(q["dt"] <= 2.0 + 1e-9)

    def test_empty_peaks(self):
        out = enumerate_quads(np.zeros((0, 3)), 31.25, 25)
        assert out["hash"].shape == (0, 4)


class TestGridLookup:
    def test_grid_equals_linear_scan(self):
        rng = np.random.default_rng(4)
        hashes = rng.random((2000, 4))
        db = QuadDB(epsilon=HASH_EPSILON)
        db.add_track_quads(
            "t",
            {"hash": hashes, "t0": np.zeros(2000), "dt": np.full(2000, 0.5)},
        )
        for qi in range(50):
            q = rng.random(4)
            got = db.candidates(q)
            want = box_matches(hashes, q, HASH_EPSILON)
            np.testing.assert_array_equal(got, want)

    def test_boundary_inclusive(self):
        # a dyadic epsilon keeps the +-epsilon boundary exactly representable
        eps = 0.015625
        base = np.array([[0.5, 0.5, 0.5, 0.5]])
        db = QuadDB(epsilon=eps)
        db.add_track_quads("t", {"hash": base, "t0": [0.0], "dt": [0.5]})
        on_edge = np.array([0.5 + eps, 0.5, 0.5, 0.5])
        assert db.candidates(on_edge).size == 1
        beyond = np.array([0.5 + eps * 1.01, 0.5, 0.5, 0.5])
        assert db.candidates(beyond).size == 0


class TestVotingCascade:
    def make_reference(self):
        rng = np.random.default_rng(5)
        hashes = rng.uniform(0.05, 0.95, size=(120, 4))
        t0 = rng.uniform(0.0, 25.0, size=120)
        dt = rng.uniform(0.3, 1.9, size=120)
        db = QuadDB()
        db.add_track_quads("target", {"hash": hashes, "t0": t0, "dt": dt})
        noise = np.random.default_rng(6)
        db.add_track_quads(
            "decoy",
            {
                "hash": noise.uniform(0.05, 0.95, size=(120, 4)),
                "t0": noise.uniform(0.0, 25.0, size=120),
                "dt": noise.uniform(0.3, 1.9, size=120),
            },
        )
        return db, hashes, t0, dt

    def test_consistent_hits_vote_into_one_bin(self):
        db, hashes, t0, dt = self.make_reference()
        s, offset = 1.3, 2.0
        take = slice(10, 40)
        query = {
            "hash": hashes[take] + 0.004,  # inside the epsilon box
            "t0": (t0[take] - offset) / s,
            "dt": dt[take] / s,
        }
        ranked = db.match_quads(query)
        top = ranked[0]
        assert top.track_id == "target"
        assert top.votes >= 25
        assert abs(np.log2(top.stretch) - np.log2(s)) <= 1.5 * (2.0 / 32)
        assert abs(top.offset_seconds - offset) <= 0.25

    def test_stretch_outside_range_is_rejected(self):
        db, hashes, t0, dt = self.make_reference()
        query = {"hash": hashes[:30], "t0": t0[:30] / 3.0, "dt": dt[:30] / 3.0}
        ranked = db.match_quads(query)
        assert not ranked or ranked[0].votes <= 2

    def test_equal_votes_tie_by_track_id(self):
        db = QuadDB()
        h = np.array([[0.3, 0.3, 0.7, 0.7]])
        for tid in ("zeta", "alpha"):
            db.add_track_quads(tid, {"hash": h, "t0": [1.0], "dt": [1.0]})
        ranked = db.match_quads({"hash": h, "t0": [1.0], "dt": [1.0]})
        assert [m.track_id for m in ranked] == ["alpha", "zeta"]
        assert ranked[0].votes == ranked[1].votes == 1


@pytest.fixture(scope="module")
def corpus_db():
    db = QuadDB()
    for i in range(3):
        db.add_track(f"track{i}", synth_track(6.0, seed=30 + i))
    return db


class TestEndToEndAudio:

    def test_untouched_excerpt_matches_source(self, corpus_db):
        x = synth_track(6.0, seed=31)  # == track1
        excerpt = x[8000 : 8000 + 3 * 8000]
        ranked = corpus_db.match(excerpt)
        assert ranked[0].track_id == "track1"
        assert abs(np.log2(ranked[0].stretch)) <= 1.5 * (2.0 / 32)
        assert abs(ranked[0].offset_seconds - 1.0) <= 0.5

    def test_spectrogram_stretched_excerpt_matches_source(self, corpus_db):
        x = synth_track(6.0, seed=32)  # == track2
        for s in (0.8, 1.25):
            excerpt = x[4000 : 4000 + int(round(3 * 8000 * s))]
            spec = stretch_spectrogram(
                melspectrogram(excerpt, SpectrogramConfig()), s
            )
            peaks = spectrogram_peaks(spec, corpus_db.fps)
            ranked = corpus_db.match_quads(
                enumerate_quads(peaks, corpus_db.fps, QUERY_QUADS_PER_SECOND)
            )
            assert ranked[0].track_id == "track2", f"factor {s}"
            assert abs(np.log2(ranked[0].stretch) - np.log2(s)) <= 2 * (2.0 / 32)

    def test_wsola_stretched_excerpt_matches_source(self, corpus_db):
        x = synth_track(6.0, seed=30)  # == track0
        excerpt = stretch_audio(AudioClip(x[:4 * 8000]), 1.25).samples
        ranked = corpus_db.match(excerpt)
        assert ranked[0].track_id == "track0"


class TestSerialization:
    def test_roundtrip_and_deterministic_bytes(self, tmp_path):
        db = QuadDB()
        for i in range(2):
            db.add_track(f"t{i}", synth_track(4.0, seed=40 + i))
        db.meta["note"] = "x"
        p1, p2 = tmp_path / "a.quad", tmp_path / "b.quad"
        db.save(p1)
        db.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = QuadDB.load(p1)
        assert back.track_ids == db.track_ids
        assert back.epsilon == db.epsilon
        assert back.meta["note"] == "x"
        assert back.n_quads == db.n_quads
        np.testing.assert_array_equal(back._layout()["hash"], db._layout()["hash"])
        np.testing.assert_array_equal(back._layout()["dt"], db._layout()["dt"])

    def test_corrupt_files_rejected(self, tmp_path):
        db = QuadDB()
        db.add_track("t", synth_track(3.0, seed=50))
        good = tmp_path / "good.quad"
        db.save(good)
        blob = good.read_bytes()
        bad = tmp_path / "bad.quad"
        bad.write_bytes(b"BADMAGIC" + blob[8:])
        with pytest.raises(DecodeError):
            QuadDB.load(bad)
        bad.write_bytes(blob[:-8])
        with pytest.raises(DecodeError):
            QuadDB.load(bad)
        bad.write_bytes(blob + b"!")
        with pytest.raises(DecodeError):
            QuadDB.load(bad)
        with pytest.raises(DataError):
            QuadDB.load(tmp_path / "absent.quad")

    def test_duplicate_and_empty_db(self, tmp_path):
        db = QuadDB()
        db.add_track("t", synth_track(3.0, seed=51))
        with pytest.raises(DataError):
            db.add_track("t", synth_track(3.0, seed=52))
        with pytest.raises(DataError):
            QuadDB().match_quads({"hash": np.zeros((0, 4)), "t0": [], "dt": []})
        with pytest.raises(DataError):
            QuadDB().save(tmp_path / "empty.quad")
