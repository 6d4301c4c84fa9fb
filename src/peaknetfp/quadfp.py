"""Quad-constellation fingerprinting baseline.

Tracks are reduced to strong spectrogram maxima; groups of four peaks
(A, B inner C, D) are hashed by expressing C and D in the coordinate frame
that sends A to (0,0) and B to (1,1). Those four numbers are invariant to any
affine rescaling of the time axis, so a tempo-modified query emits (nearly)
the same hashes as the reference track. Retrieval matches hashes within an
epsilon box, derives the implied stretch factor and track offset from each
hit, and lets consistent (track, stretch, offset) cells vote.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .errors import ConfigError, DataError, DecodeError
from .signal.peaks import local_maxima
from .signal.spectral import SpectrogramConfig, melspectrogram

QUAD_KIND = "quad.db"

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


def spectrogram_peaks(
    spec: np.ndarray, fps: float, per_second: int = PEAKS_PER_SECOND
) -> np.ndarray:
    """Strongest local maxima per one-second bucket, as (frame, bin, amp) rows.

    Within a bucket peaks rank by amplitude (ties: earlier frame, lower bin).
    """
    rows, cols, values = local_maxima(spec)
    if cols.size == 0:
        return np.zeros((0, 3), dtype=np.float64)
    order = np.lexsort((rows, cols, -values.astype(np.float64)))
    rows, cols, values = rows[order], cols[order], values[order]
    t, f = parabolic_refine(spec, rows, cols)
    seconds = (t / fps).astype(np.int64)
    keep = []
    for sec in np.unique(seconds):
        bucket = np.flatnonzero(seconds == sec)[:per_second]
        keep.append(bucket)
    keep = np.concatenate(keep)
    out = np.stack([t[keep], f[keep], values[keep].astype(np.float64)], axis=1)
    return out[np.lexsort((out[:, 1], out[:, 0]))]  # by (time, freq)


def quad_hash(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(cx, cy, dx, dy) of C and D in the frame mapping A->(0,0), B->(1,1)."""
    span_t = b[0] - a[0]
    span_f = b[1] - a[1]
    cx, cy = (c[0] - a[0]) / span_t, (c[1] - a[1]) / span_f
    dx, dy = (d[0] - a[0]) / span_t, (d[1] - a[1]) / span_f
    if (cx, cy) > (dx, dy):
        cx, cy, dx, dy = dx, dy, cx, cy
    return np.array([cx, cy, dx, dy], dtype=np.float64)


def enumerate_quads(peaks: np.ndarray, fps: float, per_second: int) -> dict[str, np.ndarray]:
    """Emit up to ``per_second`` quads per second of material.

    Roots are drained round-robin across one-second buckets, strongest roots
    first, so coverage stays even in time. For each root A, candidate far
    corners B (0.25-2 s later, at least MIN_DF_BINS away in frequency, so the
    box never degenerates) are tried strongest first; the two strongest peaks
    strictly inside the A-B box become C, D. A root yields at most
    MAX_QUADS_PER_ROOT quads.
    """
    if peaks.shape[0] == 0:
        return {
            "hash": np.zeros((0, 4)),
            "t0": np.zeros(0),
            "dt": np.zeros(0),
        }
    t, f, amp = peaks[:, 0], peaks[:, 1], peaks[:, 2]
    duration = (t.max() + 1) / fps
    target = int(round(per_second * duration))

    # per-root quad generators, grouped into one-second buckets
    def root_quads(ai: int) -> list[tuple[np.ndarray, float, float]]:
        dt = t - t[ai]
        cand = np.flatnonzero(
            (dt >= DT_MIN_SECONDS * fps)
            & (dt <= DT_MAX_SECONDS * fps)
            & (np.abs(f - f[ai]) >= MIN_DF_BINS)
        )
        cand = cand[np.lexsort((f[cand], t[cand], -amp[cand]))]
        out = []
        for bi in cand:
            lo_f, hi_f = min(f[ai], f[bi]), max(f[ai], f[bi])
            inside = np.flatnonzero(
                (t > t[ai]) & (t < t[bi]) & (f > lo_f) & (f < hi_f)
            )
            if inside.size < 2:
                continue
            inside = inside[np.lexsort((f[inside], t[inside], -amp[inside]))]
            ci, di = inside[0], inside[1]
            h = quad_hash(peaks[ai], peaks[bi], peaks[ci], peaks[di])
            out.append((h, t[ai] / fps, (t[bi] - t[ai]) / fps))
            if len(out) >= MAX_QUADS_PER_ROOT:
                break
        return out

    seconds = (t / fps).astype(np.int64)
    buckets: list[list[int]] = []
    for sec in np.unique(seconds):
        idx = np.flatnonzero(seconds == sec)
        idx = idx[np.lexsort((f[idx], t[idx], -amp[idx]))]
        buckets.append(list(idx))

    emitted: list[tuple[np.ndarray, float, float]] = []
    rank = 0
    while len(emitted) < target:
        produced = False
        for bucket in buckets:
            if rank >= len(bucket):
                continue
            ai = bucket[rank]
            for item in root_quads(ai):
                emitted.append(item)
                produced = True
                if len(emitted) >= target:
                    break
            if len(emitted) >= target:
                break
        rank += 1
        if not produced and rank > max(len(b) for b in buckets):
            break
    if not emitted:
        return {"hash": np.zeros((0, 4)), "t0": np.zeros(0), "dt": np.zeros(0)}
    return {
        "hash": np.stack([h for h, _, _ in emitted]),
        "t0": np.array([t0 for _, t0, _ in emitted]),
        "dt": np.array([dt for _, _, dt in emitted]),
    }


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
    """Reference-side quad store with an epsilon-grid over hash space."""

    def __init__(
        self,
        spec_cfg: SpectrogramConfig | None = None,
        epsilon: float = HASH_EPSILON,
        meta: dict | None = None,
    ):
        if epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        self.spec_cfg = spec_cfg or SpectrogramConfig()
        self.epsilon = float(epsilon)
        self.meta = dict(meta or {})
        # track id -> {"hash", "t0", "dt"} arrays, in insertion order
        self._quads: dict[str, dict[str, np.ndarray]] = {}
        self._grid: dict | None = None

    @property
    def fps(self) -> float:
        return self.spec_cfg.frames_per_second

    @property
    def track_ids(self) -> list[str]:
        return list(self._quads)

    @property
    def n_quads(self) -> int:
        return sum(q["hash"].shape[0] for q in self._quads.values())

    def add_track(self, track_id: str, samples: np.ndarray) -> None:
        if track_id in self._quads:
            raise DataError(f"duplicate track id {track_id!r}")
        spec = melspectrogram(np.asarray(samples, dtype=np.float32), self.spec_cfg)
        peaks = spectrogram_peaks(spec, self.fps)
        quads = enumerate_quads(peaks, self.fps, REF_QUADS_PER_SECOND)
        self.add_track_quads(track_id, quads)

    def add_track_quads(self, track_id: str, quads: dict[str, np.ndarray]) -> None:
        if track_id in self._quads:
            raise DataError(f"duplicate track id {track_id!r}")
        self._quads[track_id] = {
            "hash": np.asarray(quads["hash"], dtype=np.float64).reshape(-1, 4),
            "t0": np.asarray(quads["t0"], dtype=np.float64).reshape(-1),
            "dt": np.asarray(quads["dt"], dtype=np.float64).reshape(-1),
        }
        self._grid = None

    def _arrays(self) -> dict[str, np.ndarray]:
        """Every track's quad arrays, concatenated in insertion order."""
        quads = self._quads.values()
        return {key: np.concatenate([q[key] for q in quads]) for key in ("hash", "t0", "dt")}

    # -- lookup ---------------------------------------------------------------

    def _layout(self) -> dict:
        if self._grid is None:
            if not self._quads:
                raise DataError("empty quad database")
            sizes = [q["hash"].shape[0] for q in self._quads.values()]
            arrays = self._arrays()
            cells: dict[tuple, list[int]] = defaultdict(list)
            keys = np.floor(arrays["hash"] / self.epsilon).astype(np.int64)
            for i, key in enumerate(map(tuple, keys)):
                cells[key].append(i)
            self._grid = {
                **arrays,
                "ids": list(self._quads),
                "track": np.repeat(
                    np.arange(len(sizes), dtype=np.int64), sizes
                ),
                "cells": dict(cells),
            }
        return self._grid

    def candidates(self, query_hash: np.ndarray) -> np.ndarray:
        """Quad ids within +-epsilon of the query hash (grid-accelerated)."""
        lay = self._layout()
        lo = np.floor((query_hash - self.epsilon) / self.epsilon).astype(np.int64)
        hi = np.floor((query_hash + self.epsilon) / self.epsilon).astype(np.int64)
        found: list[int] = []
        cells = lay["cells"]
        for k0 in range(lo[0], hi[0] + 1):
            for k1 in range(lo[1], hi[1] + 1):
                for k2 in range(lo[2], hi[2] + 1):
                    for k3 in range(lo[3], hi[3] + 1):
                        found.extend(cells.get((k0, k1, k2, k3), ()))
        if not found:
            return np.zeros(0, dtype=np.int64)
        ids = np.array(sorted(found), dtype=np.int64)
        keep = (
            np.abs(lay["hash"][ids] - query_hash[None, :]).max(axis=1)
            <= self.epsilon
        )
        return ids[keep]

    def query_quads(self, samples: np.ndarray) -> dict[str, np.ndarray]:
        spec = melspectrogram(np.asarray(samples, dtype=np.float32), self.spec_cfg)
        peaks = spectrogram_peaks(spec, self.fps)
        return enumerate_quads(peaks, self.fps, QUERY_QUADS_PER_SECOND)

    def match(self, samples: np.ndarray) -> list[QuadMatch]:
        """Rank tracks for a (possibly tempo-modified) audio excerpt."""
        return self.match_quads(self.query_quads(samples))

    def match_quads(self, quads: dict[str, np.ndarray]) -> list[QuadMatch]:
        lay = self._layout()
        votes: dict[tuple, int] = defaultdict(int)
        log_lo, log_hi = np.log2(STRETCH_MIN), np.log2(STRETCH_MAX)
        for h, t0_q, dt_q in zip(quads["hash"], quads["t0"], quads["dt"]):
            for qi in self.candidates(np.asarray(h, dtype=np.float64)):
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
            key = (
                -count,
                s_bin,
                o_bin,
            )
            if ti not in best or key < best[ti][0]:
                center = 2.0 ** (log_lo + (s_bin + 0.5) / STRETCH_BINS * (log_hi - log_lo))
                best[ti] = (key, count, center, o_bin * OFFSET_BIN_SECONDS)
        ranked = sorted(
            (
                QuadMatch(lay["ids"][ti], count, float(center), float(off))
                for ti, (_, count, center, off) in best.items()
            ),
            key=lambda m: (-m.votes, m.track_id),
        )
        return ranked

    # -- serialization ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        if not self._quads:
            raise DataError("empty quad database")
        tracks = [[tid, len(q["hash"])] for tid, q in self._quads.items()]
        meta = {"info": self.meta, "epsilon": self.epsilon, "tracks": tracks}
        meta["spectrogram"] = self.spec_cfg.to_dict()
        container.write(path, QUAD_KIND, self._arrays(), meta)

    @classmethod
    def load(cls, path: str | Path) -> "QuadDB":
        arrays, meta = container.read(path, QUAD_KIND)
        try:
            hashes, t0, dt = arrays["hash"], arrays["t0"], arrays["dt"]
            total = len(t0)
            if (hashes.shape, t0.shape, dt.shape) != ((total, 4), (total,), (total,)):
                raise DataError("quad arrays disagree in length")
            spec_cfg = SpectrogramConfig.from_dict(meta["spectrogram"])
            db = cls(spec_cfg=spec_cfg, epsilon=meta["epsilon"], meta=meta["info"])
            start = 0
            for tid, n in container.track_runs(meta, total):
                sl = slice(start, start + n)
                db.add_track_quads(tid, {"hash": hashes[sl], "t0": t0[sl], "dt": dt[sl]})
                start += n
        except (LookupError, TypeError, ValueError, DataError, ConfigError) as exc:
            raise DecodeError(f"{path}: inconsistent quad database: {exc}") from exc
        return db
