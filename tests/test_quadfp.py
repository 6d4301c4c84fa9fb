"""Quad hashing, emission, lookup, and the voting cascade."""
import json
from collections import defaultdict

import numpy as np
import pytest

import peaknetfp.reference as ref
from peaknetfp import container
from peaknetfp.errors import DataError, DecodeError
from peaknetfp.quadfp import (
    DT_MAX_SECONDS,
    DT_MIN_SECONDS,
    HASH_EPSILON,
    MAX_QUADS_PER_ROOT,
    MIN_DF_BINS,
    OFFSET_BIN_SECONDS,
    PEAKS_PER_SECOND,
    QUAD_KIND,
    QUERY_QUADS_PER_SECOND,
    REF_QUADS_PER_SECOND,
    STRETCH_BINS,
    STRETCH_MAX,
    STRETCH_MIN,
    QuadDB,
    QuadMatch,
    box_matches,
    enumerate_quads,
    parabolic_refine,
    quad_hash,
    spectrogram_peaks,
)
from peaknetfp.signal.audio import stretch_audio
from peaknetfp.signal.spectral import FRAMES_PER_SECOND, melspectrogram, stretch_spectrogram


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

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(7)
        a, b, c, d = rng.uniform(0.0, 100.0, size=(4, 60, 3))
        c[:10, 0] = d[:10, 0]  # equal x: order decided by y
        c[10:15] = d[10:15]
        got = quad_hash(a, b, c, d)
        want = np.stack([quad_hash(a[i], b[i], c[i], d[i]) for i in range(60)])
        assert got.shape == (60, 4) and got.tobytes() == want.tobytes()


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
        fps = FRAMES_PER_SECOND
        got = spectrogram_peaks(spec)
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
            for negv, c, r, tc, fc in sorted(by_sec[sec])[:PEAKS_PER_SECOND]:
                want.append((tc, fc, -negv))
        want = np.array(sorted(want, key=lambda p: (p[0], p[1])))
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_bucket_budget_respected(self):
        rng = np.random.default_rng(2)
        spec = rng.random((128, 400)).astype(np.float32)
        peaks = spectrogram_peaks(spec)
        seconds = (peaks[:, 0] / FRAMES_PER_SECOND).astype(int)
        assert max(np.bincount(seconds)) == PEAKS_PER_SECOND

    def test_empty_spectrogram(self):
        assert spectrogram_peaks(np.zeros((16, 50), dtype=np.float32)).shape == (0, 3)


@pytest.fixture(scope="module")
def peaks():
    spec = melspectrogram(synth_track(8.0, seed=3))
    return spectrogram_peaks(spec)


class TestEnumerateQuads:

    def test_deterministic_and_dense_enough(self, peaks):
        a = enumerate_quads(peaks, REF_QUADS_PER_SECOND)
        b = enumerate_quads(peaks, REF_QUADS_PER_SECOND)
        np.testing.assert_array_equal(a["hash"], b["hash"])
        np.testing.assert_array_equal(a["t0"], b["t0"])
        n = a["hash"].shape[0]
        assert n >= 0.5 * REF_QUADS_PER_SECOND * 8  # at least half the target
        assert n <= REF_QUADS_PER_SECOND * 9

    def test_hash_geometry_constraints(self, peaks):
        q = enumerate_quads(peaks, REF_QUADS_PER_SECOND)
        h = q["hash"]
        assert np.all(h > 0.0) and np.all(h < 1.0)  # strictly inside the box
        assert np.all(
            (h[:, :2] < h[:, 2:]).any(axis=1)
        )  # canonical order: C before D somewhere
        lex = (h[:, 0] < h[:, 2]) | ((h[:, 0] == h[:, 2]) & (h[:, 1] <= h[:, 3]))
        assert lex.all()
        assert np.all(q["dt"] >= 0.25 - 1e-9) and np.all(q["dt"] <= 2.0 + 1e-9)

    def test_empty_peaks(self):
        out = enumerate_quads(np.zeros((0, 3)), 25)
        assert out["hash"].shape == (0, 4)

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("per_second", [0, 1, 5, REF_QUADS_PER_SECOND, 1000])
    def test_roots_visited_round_robin_over_seconds(self, peaks, per_second, tied):
        fps = FRAMES_PER_SECOND
        if tied:  # amplitudes on a coarse grid, so (t, f) break many ties
            peaks = peaks.copy()
            peaks[:, 2] = np.round(peaks[:, 2] / peaks[:, 2].max(), 1)
        t, f, amp = peaks[:, 0], peaks[:, 1], peaks[:, 2]

        def strongest_first(idx):
            return sorted(idx, key=lambda i: (-amp[i], t[i], f[i], i))

        def root_quads(ai):
            # far corners B in the time and frequency window, strongest first,
            # each with the two strongest peaks strictly inside the A-B box
            out = []
            dt = t - t[ai]
            window = (dt >= DT_MIN_SECONDS * fps) & (dt <= DT_MAX_SECONDS * fps)
            for bi in strongest_first(np.flatnonzero(window & (np.abs(f - f[ai]) >= MIN_DF_BINS))):
                lo, hi = sorted((f[ai], f[bi]))
                inside = np.flatnonzero((t > t[ai]) & (t < t[bi]) & (f > lo) & (f < hi))
                if inside.size >= 2 and len(out) < MAX_QUADS_PER_ROOT:
                    out.append((ai, bi, *strongest_first(inside)[:2]))
            return out

        def quad_hash_loop(ai, bi, ci, di):
            span_t, span_f = t[bi] - t[ai], f[bi] - f[ai]
            c = ((t[ci] - t[ai]) / span_t, (f[ci] - f[ai]) / span_f)
            d = ((t[di] - t[ai]) / span_t, (f[di] - f[ai]) / span_f)
            return [*min(c, d), *max(c, d)]

        buckets: dict[int, list[int]] = {}
        for i in range(len(peaks)):
            buckets.setdefault(int(t[i] / fps), []).append(i)
        for idx in buckets.values():
            idx[:] = strongest_first(idx)
        target = int(round(per_second * ((t.max() + 1) / fps)))
        want: list[tuple] = []
        for rank in range(max(len(b) for b in buckets.values())):
            for sec in sorted(buckets):
                if rank < len(buckets[sec]) and len(want) < target:
                    want.extend(root_quads(buckets[sec][rank]))
        want = want[:target]
        got = enumerate_quads(peaks, per_second)
        assert got["t0"].tobytes() == np.array([t[a] / fps for a, *_ in want]).tobytes()
        assert got["dt"].tobytes() == np.array([(t[b] - t[a]) / fps for a, b, *_ in want]).tobytes()
        assert got["hash"].shape == (len(want), 4)
        assert got["hash"].tobytes() == np.array([quad_hash_loop(*q) for q in want]).tobytes()


class TestLookup:
    def test_lookup_equals_linear_scan(self):
        rng = np.random.default_rng(4)
        hashes = rng.random((2000, 4))
        db = QuadDB()
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
        # a stored hash at 0 keeps the +-epsilon boundary exactly representable
        base = np.zeros((1, 4))
        db = QuadDB()
        db.add_track_quads("t", {"hash": base, "t0": [0.0], "dt": [0.5]})
        on_edge = np.array([HASH_EPSILON, 0.0, 0.0, 0.0])
        assert db.candidates(on_edge).size == 1
        beyond = np.array([HASH_EPSILON * 1.01, 0.0, 0.0, 0.0])
        assert db.candidates(beyond).size == 0

    @pytest.mark.parametrize("axis", range(4))
    def test_box_edge_within_ulps_equals_linear_scan(self, axis):
        # stored points a few ulp inside and outside +-epsilon on one axis,
        # well inside the box on the others
        rng = np.random.default_rng(10 + axis)
        queries = rng.uniform(0.05, 0.95, size=(20, 4))
        stored = []
        for q in queries:
            for sign in (-1.0, 1.0):
                edge = q[axis] + sign * HASH_EPSILON
                for ulps in range(-3, 4):
                    p = q + rng.uniform(-0.5, 0.5, size=4) * HASH_EPSILON
                    p[axis] = edge
                    for _ in range(abs(ulps)):
                        p[axis] = np.nextafter(p[axis], np.copysign(np.inf, ulps))
                    stored.append(p)
        hashes = np.array(stored)
        db = QuadDB()
        n = len(hashes)
        db.add_track_quads("t", {"hash": hashes, "t0": np.zeros(n), "dt": np.ones(n)})
        n_edge_hits = 0
        for q in queries:
            want = box_matches(hashes, q, HASH_EPSILON)
            np.testing.assert_array_equal(db.candidates(q), want)
            n_edge_hits += want.size
        assert 0 < n_edge_hits < n  # some edge points in, some out

    def test_tracks_without_quads(self):
        db = QuadDB()
        for tid in ("a", "b"):
            db.add_track_quads(tid, {"hash": np.zeros((0, 4)), "t0": [], "dt": []})
        got = db.candidates(np.full(4, 0.5))
        assert got.dtype == np.int64 and got.shape == (0,)
        query = {"hash": np.full((3, 4), 0.5), "t0": np.zeros(3), "dt": np.ones(3)}
        assert db.match_quads(query) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_hash_rejected(self, bad):
        db = QuadDB()
        db.add_track_quads("t", {"hash": np.full((1, 4), 0.5), "t0": [0.0], "dt": [1.0]})
        q = np.full(4, 0.5)
        q[2] = bad
        with pytest.raises(DataError):
            db.candidates(q)
        with pytest.raises(DataError):
            db.match_quads({"hash": q[None, :], "t0": [0.0], "dt": [1.0]})

    @pytest.mark.parametrize(
        "shapes", [((3, 4), (5,), (5,)), ((5, 4), (4,), (5,)), ((5, 4), (5,), (6,))]
    )
    def test_quad_arrays_of_unequal_length_rejected(self, shapes):
        quads = {key: np.full(shape, 0.5) for key, shape in zip(("hash", "t0", "dt"), shapes)}
        db = QuadDB()
        with pytest.raises(DataError, match="disagree in length"):
            db.add_track_quads("t", quads)
        assert db.track_ids == []

    @pytest.mark.parametrize("shape", [(4, 5), (5, 3), (5,), (20,), (5, 1, 4)])
    def test_hash_not_n_by_4_rejected(self, shape):
        # (4, 5) would reshape to five scrambled 4-d hashes beside five t0/dt
        n = 5
        quads = {"hash": np.full(shape, 0.5), "t0": np.zeros(n), "dt": np.ones(n)}
        db = QuadDB()
        with pytest.raises(DataError, match=r"hash must be \(n, 4\)"):
            db.add_track_quads("t", quads)
        assert db.track_ids == []

    @pytest.mark.parametrize("key", ["hash", "t0", "dt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stored_quad_rejected(self, key, bad):
        quads = {"hash": np.full((2, 4), 0.5), "t0": np.zeros(2), "dt": np.ones(2)}
        quads[key][-1] = bad
        db = QuadDB()
        with pytest.raises(DataError):
            db.add_track_quads("t", quads)
        assert db.track_ids == []


def loop_match_quads(db: QuadDB, quads: dict) -> list[QuadMatch]:
    """``match_quads`` as a loop over every box hit, voting into a dict."""
    lay = db._layout()
    votes: dict[tuple, int] = defaultdict(int)
    log_lo, log_hi = np.log2(STRETCH_MIN), np.log2(STRETCH_MAX)
    for h, t0_q, dt_q in zip(quads["hash"], quads["t0"], quads["dt"]):
        for qi in box_matches(lay["hash"], np.asarray(h, dtype=np.float64), HASH_EPSILON):
            s_hat = lay["dt"][qi] / dt_q
            if not STRETCH_MIN <= s_hat <= STRETCH_MAX:
                continue
            s_bin = int(
                np.clip(
                    (np.log2(s_hat) - log_lo) / (log_hi - log_lo) * STRETCH_BINS,
                    0,
                    STRETCH_BINS - 1,
                )
            )
            offset = lay["t0"][qi] - s_hat * t0_q
            o_bin = int(np.floor(offset / OFFSET_BIN_SECONDS))
            votes[(int(lay["track"][qi]), s_bin, o_bin)] += 1
    best: dict[int, tuple] = {}
    for (ti, s_bin, o_bin), count in votes.items():
        key = (-count, s_bin, o_bin)
        if ti not in best or key < best[ti][0]:
            center = 2.0 ** (log_lo + (s_bin + 0.5) / STRETCH_BINS * (log_hi - log_lo))
            best[ti] = (key, count, center, o_bin * OFFSET_BIN_SECONDS)
    return sorted(
        (
            QuadMatch(lay["ids"][ti], count, float(center), float(off))
            for ti, (_, count, center, off) in best.items()
        ),
        key=lambda m: (-m.votes, m.track_id),
    )


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

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_loop_oracle_on_random_quads(self, seed):
        # coarse hash, time and duration grids make many hits collide in a
        # cell; stretches outside [0.5, 2] and far-off hashes vote nowhere
        rng = np.random.default_rng(seed)
        db = QuadDB()
        for tid in ("delta", "bravo", "charlie", "alpha"):
            n = int(rng.integers(20, 80))
            db.add_track_quads(
                tid,
                {
                    "hash": rng.integers(1, 20, size=(n, 4)) / 20.0,
                    "t0": rng.integers(0, 40, size=n) / 4.0,
                    "dt": rng.integers(2, 8, size=n) / 4.0,
                },
            )
        lay = db._layout()
        m = 300
        pick = rng.integers(0, len(lay["t0"]), size=m)
        stretch = rng.choice([0.3, 0.45, 0.5, 0.8, 1.0, 1.25, 2.0, 2.2, 3.0], size=m)
        noise = rng.integers(-2, 3, size=(m, 4)) * (HASH_EPSILON / 4)
        far = rng.random(m) < 0.2
        query = {
            "hash": np.where(far[:, None], 5.0, lay["hash"][pick] + noise),
            "t0": (lay["t0"][pick] - rng.integers(0, 8, size=m) / 4.0) / stretch,
            "dt": lay["dt"][pick] / stretch,
        }
        got = db.match_quads(query)
        assert got == loop_match_quads(db, query)
        assert len(got) >= 2

    def test_equals_loop_oracle_on_ties_and_no_hits(self):
        db = QuadDB()
        h1, h2, h3 = [0.2] * 4, [0.5] * 4, [0.8] * 4
        # one track, one vote each at stretch 1.0: offsets 3.0 and 1.0
        db.add_track_quads("two", {"hash": [h3, h3], "t0": [3.0, 1.0], "dt": [1.0, 1.0]})
        # one track, one vote each: stretch 1.0 and stretch 0.8 (lower bin)
        db.add_track_quads("one", {"hash": [h1, h2], "t0": [5.0, 5.0], "dt": [1.0, 0.8]})
        query = {"hash": [h1, h2, h3], "t0": [0.0, 0.0, 0.0], "dt": [1.0, 1.0, 1.0]}
        got = db.match_quads(query)
        assert got == loop_match_quads(db, query)
        by_id = {m.track_id: m for m in got}
        assert by_id["one"].votes == 1 and by_id["one"].stretch < 0.85
        assert by_id["two"].offset_seconds == 1.0
        assert [m.track_id for m in got] == ["one", "two"]  # tied: lower id first
        no_hits = {"hash": [[0.35] * 4], "t0": [0.0], "dt": [1.0]}
        empty = {"hash": np.zeros((0, 4)), "t0": [], "dt": []}
        for q in (no_hits, empty):
            assert db.match_quads(q) == loop_match_quads(db, q) == []


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
            spec = stretch_spectrogram(melspectrogram(excerpt), s)
            ranked = corpus_db.match_quads(
                enumerate_quads(spectrogram_peaks(spec), QUERY_QUADS_PER_SECOND)
            )
            assert ranked[0].track_id == "track2", f"factor {s}"
            assert abs(np.log2(ranked[0].stretch) - np.log2(s)) <= 2 * (2.0 / 32)

    def test_wsola_stretched_excerpt_matches_source(self, corpus_db):
        x = synth_track(6.0, seed=30)  # == track0
        excerpt = stretch_audio(x[:4 * 8000], 1.25)
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
        assert back.meta["note"] == "x"
        assert back.n_quads == db.n_quads
        np.testing.assert_array_equal(back._layout()["hash"], db._layout()["hash"])
        np.testing.assert_array_equal(back._layout()["dt"], db._layout()["dt"])

    def test_stored_front_end_is_byte_stable(self, tmp_path):
        # the fixed front end as every quad.db stores it, so older files keep loading
        db = QuadDB()
        db.add_track("t", synth_track(3.0, seed=50))
        db.save(tmp_path / "a.quad")
        _, meta = container.read(tmp_path / "a.quad", QUAD_KIND)
        assert json.dumps(meta["spectrogram"], sort_keys=True) == (
            '{"fmax": 4000.0, "fmin": 300.0, "hop": 256, "n_fft": 1024, '
            '"n_mels": 256, "sample_rate": 8000}'
        )

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

    def test_non_finite_hash_in_file_is_decode_error(self, tmp_path):
        db = QuadDB()
        db.add_track("t", synth_track(3.0, seed=50))
        path = tmp_path / "nan.quad"
        db.save(path)
        arrays, meta = container.read(path, QUAD_KIND)
        arrays["hash"] = arrays["hash"].copy()
        arrays["hash"][3, 1] = np.nan
        container.write(path, QUAD_KIND, arrays, meta)  # a valid container
        with pytest.raises(DecodeError):
            QuadDB.load(path)

    def test_duplicate_and_empty_db(self, tmp_path):
        db = QuadDB()
        db.add_track("t", synth_track(3.0, seed=51))
        with pytest.raises(DataError):
            db.add_track("t", synth_track(3.0, seed=52))
        with pytest.raises(DataError):
            QuadDB().match_quads({"hash": np.zeros((0, 4)), "t0": [], "dt": []})
        with pytest.raises(DataError):
            QuadDB().save(tmp_path / "empty.quad")
