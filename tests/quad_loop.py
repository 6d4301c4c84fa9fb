"""Per-root and per-hash reference for the quad baseline.

Used as an oracle: ``enumerate_quads`` scans every peak once per root and
again for every far corner, and ``match_quads`` makes one KD-tree range query
per query hash. Their quads and rankings are the ones
``quadfp.enumerate_quads`` and ``QuadDB.match_quads`` must return, byte for
byte.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import KDTree

from peaknetfp.quadfp import (
    DT_MAX_SECONDS,
    DT_MIN_SECONDS,
    HASH_EPSILON,
    MAX_QUADS_PER_ROOT,
    MIN_DF_BINS,
    OFFSET_BIN_SECONDS,
    STRETCH_BINS,
    QuadMatch,
    quad_hash,
)
from peaknetfp.signal.audio import STRETCH_MAX, STRETCH_MIN
from peaknetfp.signal.peaks import strength_order
from peaknetfp.signal.spectral import FRAMES_PER_SECOND


def enumerate_quads(peaks: np.ndarray, per_second: int) -> dict[str, np.ndarray]:
    """Up to ``per_second`` quads per second, roots round-robin over seconds,
    far corners and inner peaks strongest first, found by full scans."""
    fps = FRAMES_PER_SECOND
    peaks = peaks[strength_order(peaks[:, 0], peaks[:, 1], peaks[:, 2])]
    t, f = peaks[:, 0], peaks[:, 1]
    target = int(round(per_second * ((t.max() + 1) / fps))) if t.size else 0

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


def match_quads(db, quads: dict[str, np.ndarray]) -> list[QuadMatch]:
    """``QuadDB.match_quads`` with one KD-tree range query per query hash."""
    lay = db.tracks.joined()
    tree = KDTree(lay["hash"])
    hits = [
        np.asarray(
            tree.query_ball_point(np.asarray(h, dtype=np.float64), HASH_EPSILON, p=np.inf,
                                  return_sorted=True),
            dtype=np.int64,
        )
        for h in quads["hash"]
    ]
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
    order = np.lexsort((cells[:, 2], cells[:, 1], -votes, cells[:, 0]))
    best = order[np.unique(cells[order, 0], return_index=True)[1]]
    ranked = []
    for (ti, s_bin, o_bin), count in zip(cells[best].tolist(), votes[best].tolist()):
        center = 2.0 ** (log_lo + (s_bin + 0.5) / STRETCH_BINS * (log_hi - log_lo))
        ranked.append(QuadMatch(lay["ids"][ti], count, float(center), o_bin * OFFSET_BIN_SECONDS))
    return sorted(ranked, key=lambda m: (-m.votes, m.track_id))
