"""Quad-constellation fingerprinting baseline.

Tracks are reduced to strong spectrogram maxima; groups of four peaks
(A, B inner C, D) are hashed by expressing C and D in the coordinate frame
that sends A to (0,0) and B to (1,1). Those four numbers are invariant to any
affine rescaling of the time axis, so a tempo-modified query emits (nearly)
the same hashes as the reference track. Retrieval finds the stored hashes
within an epsilon box (a KD-tree query in the max norm), derives the implied
stretch factor and track offset from each hit, and lets consistent (track,
stretch, offset) cells vote.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import KDTree

from . import container
from .errors import DataError, DecodeError
from .signal.audio import DEFAULT_SAMPLE_RATE
from .signal.peaks import local_maxima, strength_order
from .signal.spectral import FMAX, FMIN, FRAMES_PER_SECOND, HOP, N_FFT, N_MELS, melspectrogram

QUAD_KIND = "quad.db"
# the front end every quad.db is hashed with, stored in its meta
SPECTROGRAM = {
    "sample_rate": DEFAULT_SAMPLE_RATE, "n_fft": N_FFT, "hop": HOP,
    "n_mels": N_MELS, "fmin": FMIN, "fmax": FMAX,
}

PEAKS_PER_SECOND = 30
REF_QUADS_PER_SECOND = 25
QUERY_QUADS_PER_SECOND = 100
DT_MIN_SECONDS = 0.25
DT_MAX_SECONDS = 2.0
MIN_DF_BINS = 16.0
HASH_EPSILON = 0.01
STRETCH_MIN = 0.5
STRETCH_MAX = 2.0
STRETCH_BINS = 32
OFFSET_BIN_SECONDS = 0.25
MAX_QUADS_PER_ROOT = 8


def parabolic_refine(
    spec: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sub-bin peak positions from a parabola through each maximum.

    Quantized peak positions wobble by up to a full bin when the spectrogram
    is resampled, which is fatal for box-normalized hashes; the vertex of the
    parabola through (v[-1], v[0], v[+1]) tracks the true position to a small
    fraction of a bin. Peaks on the image border keep their integer
    coordinate along that axis.
    """
    s = np.asarray(spec, dtype=np.float64)
    n_rows, n_cols = s.shape
    t = cols.astype(np.float64)
    f = rows.astype(np.float64)
    inner = (cols > 0) & (cols < n_cols - 1)
    if inner.any():
        r, c = rows[inner], cols[inner]
        num = 0.5 * (s[r, c - 1] - s[r, c + 1])
        den = s[r, c - 1] - 2.0 * s[r, c] + s[r, c + 1]
        t[inner] += np.clip(num / den, -0.5, 0.5)
    inner = (rows > 0) & (rows < n_rows - 1)
    if inner.any():
        r, c = rows[inner], cols[inner]
        num = 0.5 * (s[r - 1, c] - s[r + 1, c])
        den = s[r - 1, c] - 2.0 * s[r, c] + s[r + 1, c]
        f[inner] += np.clip(num / den, -0.5, 0.5)
    return t, f


def spectrogram_peaks(spec: np.ndarray) -> np.ndarray:
    """The ``PEAKS_PER_SECOND`` strongest local maxima per one-second bucket,
    as (frame, bin, amp) rows.

    Within a bucket peaks rank by amplitude (ties: earlier frame, lower bin).
    """
    rows, cols, values = local_maxima(spec)
    if cols.size == 0:
        return np.zeros((0, 3), dtype=np.float64)
    order = strength_order(cols, rows, values)
    rows, cols, values = rows[order], cols[order], values[order]
    t, f = parabolic_refine(spec, rows, cols)
    # by second, amplitude order kept within each; a peak's rank is its place in its second
    seconds = (t / FRAMES_PER_SECOND).astype(np.int64)
    by_sec = np.argsort(seconds, kind="stable")
    sec = seconds[by_sec]
    keep = by_sec[np.arange(sec.size) - np.searchsorted(sec, sec) < PEAKS_PER_SECOND]
    out = np.stack([t[keep], f[keep], values[keep].astype(np.float64)], axis=1)
    return out[np.lexsort((out[:, 1], out[:, 0]))]  # by (time, freq)


def quad_hash(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(cx, cy, dx, dy) of C and D in the frame mapping A->(0,0), B->(1,1).

    Each argument is one (t, f, ...) point or a stack of them, one per quad.
    """
    a, b, c, d = (np.asarray(p)[..., :2] for p in (a, b, c, d))
    c, d = (c - a) / (b - a), (d - a) / (b - a)
    (cx, cy), (dx, dy) = np.moveaxis(c, -1, 0), np.moveaxis(d, -1, 0)
    swap = ((cx > dx) | ((cx == dx) & (cy > dy)))[..., None]
    return np.concatenate([np.where(swap, d, c), np.where(swap, c, d)], axis=-1)


def enumerate_quads(peaks: np.ndarray, per_second: int) -> dict[str, np.ndarray]:
    """Emit up to ``per_second`` quads per second of material.

    All three choices follow one strength order, strongest first (ties:
    earlier frame, lower bin). Roots are visited round-robin across one-second
    buckets: every bucket's strongest root in time order, then every bucket's
    second strongest, and so on, so coverage stays even in time. For each root
    A, candidate far corners B (0.25-2 s later, at least MIN_DF_BINS away in
    frequency, so the box never degenerates) are tried strongest first; the
    two strongest peaks strictly inside the A-B box become C, D. A root
    yields at most MAX_QUADS_PER_ROOT quads.
    """
    fps = FRAMES_PER_SECOND
    peaks = peaks[strength_order(peaks[:, 0], peaks[:, 1], peaks[:, 2])]
    t, f = peaks[:, 0], peaks[:, 1]
    target = int(round(per_second * ((t.max() + 1) / fps))) if t.size else 0

    # by second, strength order kept within each; a root's rank is its place in its second
    seconds = (t / fps).astype(np.int64)
    by_sec = np.argsort(seconds, kind="stable")
    sec = seconds[by_sec]
    rank = np.arange(sec.size) - np.searchsorted(sec, sec)
    quads: list[tuple[int, int, int, int]] = []
    for ai in by_sec[np.lexsort((sec, rank))]:
        if len(quads) >= target:
            break
        dt = t - t[ai]
        far = np.flatnonzero(
            (dt >= DT_MIN_SECONDS * fps)
            & (dt <= DT_MAX_SECONDS * fps)
            & (np.abs(f - f[ai]) >= MIN_DF_BINS)
        )
        first = len(quads)
        for bi in far:
            lo_f, hi_f = min(f[ai], f[bi]), max(f[ai], f[bi])
            inner = np.flatnonzero((t > t[ai]) & (t < t[bi]) & (f > lo_f) & (f < hi_f))[:2]
            if inner.size == 2:
                quads.append((ai, bi, *inner))
                if len(quads) - first == MAX_QUADS_PER_ROOT:
                    break
    a, b, c, d = peaks[np.array(quads[:target], dtype=np.int64).reshape(-1, 4).T]
    return {"hash": quad_hash(a, b, c, d), "t0": a[:, 0] / fps, "dt": (b[:, 0] - a[:, 0]) / fps}


def box_matches(hashes: np.ndarray, query: np.ndarray, eps: float) -> np.ndarray:
    """Rows of ``hashes`` within +-eps of ``query`` in every coordinate."""
    if hashes.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.abs(hashes - query[None, :]).max(axis=1) <= eps)


@dataclass(frozen=True)
class QuadMatch:
    track_id: str
    votes: int
    stretch: float
    offset_seconds: float


class QuadDB:
    """Reference-side quad store with a KD-tree over hash space."""

    def __init__(self, meta: dict | None = None):
        self.meta = dict(meta or {})
        self.tracks = container.TrackTable()  # "hash", "t0", "dt" per track

    @property
    def track_ids(self) -> list[str]:
        return list(self.tracks.rows)

    @property
    def n_quads(self) -> int:
        return sum(len(rows["hash"]) for rows in self.tracks.rows.values())

    def add_track(self, track_id: str, samples: np.ndarray) -> None:
        spec = melspectrogram(np.asarray(samples, dtype=np.float32))
        quads = enumerate_quads(spectrogram_peaks(spec), REF_QUADS_PER_SECOND)
        self.add_track_quads(track_id, quads)

    def add_track_quads(self, track_id: str, quads: dict[str, np.ndarray]) -> None:
        arrays = {key: np.asarray(quads[key], dtype=np.float64) for key in ("hash", "t0", "dt")}
        hashes, t0, dt = arrays.values()
        if hashes.ndim != 2 or hashes.shape[1] != 4:
            raise DataError(f"track {track_id!r}: hash must be (n, 4), got {hashes.shape}")
        if not t0.shape == dt.shape == (len(hashes),):
            raise DataError(f"track {track_id!r}: quad arrays disagree in length")
        if not all(np.isfinite(a).all() for a in arrays.values()):
            raise DataError(f"track {track_id!r}: quad values must be finite")
        self.tracks.add(track_id, arrays)

    # -- lookup ---------------------------------------------------------------

    def candidates(self, query_hash: np.ndarray) -> np.ndarray:
        """Quad ids within +-HASH_EPSILON of the query hash, ascending: the rows
        ``box_matches`` returns, found by a KD-tree query in the max norm."""
        if not np.isfinite(query_hash).all():
            raise DataError("query hash must be finite")
        lay = self.tracks.joined()
        if "tree" not in lay:  # a new track drops the joined layout and its tree
            lay["tree"] = KDTree(lay["hash"])
        found = lay["tree"].query_ball_point(query_hash, HASH_EPSILON, p=np.inf, return_sorted=True)
        return np.asarray(found, dtype=np.int64)

    def query_quads(self, samples: np.ndarray) -> dict[str, np.ndarray]:
        spec = melspectrogram(np.asarray(samples, dtype=np.float32))
        return enumerate_quads(spectrogram_peaks(spec), QUERY_QUADS_PER_SECOND)

    def match(self, samples: np.ndarray) -> list[QuadMatch]:
        """Rank tracks for a (possibly tempo-modified) audio excerpt."""
        return self.match_quads(self.query_quads(samples))

    def match_quads(self, quads: dict[str, np.ndarray]) -> list[QuadMatch]:
        lay = self.tracks.joined()
        hits = [self.candidates(np.asarray(h, dtype=np.float64)) for h in quads["hash"]]
        qi = np.concatenate([np.zeros(0, dtype=np.int64), *hits])
        owner = np.repeat(np.arange(len(hits)), [ids.size for ids in hits])  # query quad per hit
        s_hat = lay["dt"][qi] / np.asarray(quads["dt"], dtype=np.float64)[owner]
        ok = (STRETCH_MIN <= s_hat) & (s_hat <= STRETCH_MAX)
        qi, s_hat, owner = qi[ok], s_hat[ok], owner[ok]
        log_lo, log_hi = np.log2(STRETCH_MIN), np.log2(STRETCH_MAX)
        s_bin = np.clip(
            (np.log2(s_hat) - log_lo) / (log_hi - log_lo) * STRETCH_BINS, 0, STRETCH_BINS - 1
        ).astype(np.int64)
        offset = lay["t0"][qi] - s_hat * np.asarray(quads["t0"], dtype=np.float64)[owner]
        o_bin = np.floor(offset / OFFSET_BIN_SECONDS).astype(np.int64)
        cell = np.stack([lay["track"][qi], s_bin, o_bin], axis=1)
        cells, votes = np.unique(cell, axis=0, return_counts=True)
        # each track's best cell: most votes, then lower stretch bin, then lower offset bin
        order = np.lexsort((cells[:, 2], cells[:, 1], -votes, cells[:, 0]))
        best = order[np.unique(cells[order, 0], return_index=True)[1]]
        ranked = []
        for (ti, s_bin, o_bin), count in zip(cells[best].tolist(), votes[best].tolist()):
            center = 2.0 ** (log_lo + (s_bin + 0.5) / STRETCH_BINS * (log_hi - log_lo))
            ranked.append(QuadMatch(lay["ids"][ti], count, float(center), o_bin * OFFSET_BIN_SECONDS))
        return sorted(ranked, key=lambda m: (-m.votes, m.track_id))

    # -- serialization ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        meta = {"info": self.meta, "epsilon": HASH_EPSILON, "spectrogram": SPECTROGRAM}
        self.tracks.save(path, QUAD_KIND, meta)

    @classmethod
    def load(cls, path: str | Path) -> "QuadDB":
        runs, meta = container.read_tracks(path, QUAD_KIND)
        try:
            if meta["spectrogram"] != SPECTROGRAM:
                raise DataError(f"front end {meta['spectrogram']!r} is not {SPECTROGRAM!r}")
            if meta["epsilon"] != HASH_EPSILON:
                raise DataError(f"hash epsilon {meta['epsilon']!r} is not {HASH_EPSILON!r}")
            db = cls(meta=meta["info"])
            for tid, rows in runs:
                db.add_track_quads(tid, rows)
        except (LookupError, TypeError, ValueError, DataError) as exc:
            raise DecodeError(f"{path}: inconsistent quad database: {exc}") from exc
        return db
