"""Naive reference implementations used to cross-check the fast paths.

Everything here is deliberately written the slow, obvious way (python loops,
float64 accumulation, no shared helpers with the production code) so it can
serve as an independent oracle in tests and in the ``selftest`` CLI command.
Do not "optimize" these by delegating to the functions they are meant to
check.
"""
from __future__ import annotations

import math

import numpy as np


def naive_local_maxima(spec: np.ndarray) -> list[tuple[int, int, float]]:
    """Strict 3x3 local maxima by scanning every cell's neighborhood."""
    s = np.asarray(spec)
    n_rows, n_cols = s.shape
    out: list[tuple[int, int, float]] = []
    for i in range(n_rows):
        for j in range(n_cols):
            v = s[i, j]
            block = s[max(0, i - 1) : i + 2, max(0, j - 1) : j + 2]
            # strict: v beats every neighbor, i.e. nothing else in the block
            # reaches v
            if (block >= v).sum() == 1:
                out.append((i, j, float(v)))
    return out


def naive_select(
    maxima: list[tuple[int, int, float]], k: int
) -> list[tuple[int, int, float]]:
    """Strongest-k selection, ties by ascending (time, frequency)."""
    return sorted(maxima, key=lambda rcv: (-rcv[2], rcv[1], rcv[0]))[:k]


def naive_cloud(spec: np.ndarray, n_peaks: int) -> np.ndarray:
    """Reference peak cloud: naive maxima, naive selection, same normalization."""
    s = np.asarray(spec)
    n_mels, n_frames = s.shape
    chosen = naive_select(naive_local_maxima(s), n_peaks)
    cloud = np.zeros((n_peaks, 3), dtype=np.float32)
    if not chosen:
        return cloud
    amps = np.array([v for _, _, v in chosen], dtype=np.float64)
    amax, amin = float(amps.max()), float(amps.min())
    rows_norm = []
    for r, c, v in chosen:
        t = np.float32(c) / np.float32(n_frames)
        f = np.float32(r) / np.float32(n_mels)
        a = np.float32((v - amin) / (amax - amin)) if amax > amin else np.float32(1.0)
        rows_norm.append((t, f, a))
    for i in range(n_peaks):
        cloud[i] = rows_norm[i % len(rows_norm)]
    return cloud


def naive_bilinear_stretch(spec: np.ndarray, factor: float) -> np.ndarray:
    """Loop-coded time-axis bilinear resize, align-corners convention."""
    s = np.asarray(spec, dtype=np.float64)
    n_in = s.shape[1]
    n_out = max(1, int(round(n_in / factor)))
    out = np.zeros((s.shape[0], n_out))
    for j in range(n_out):
        if n_in == 1:
            out[:, j] = s[:, 0]
            continue
        u = (n_in - 1) / 2.0 if n_out == 1 else j * (n_in - 1) / (n_out - 1)
        i0 = min(int(math.floor(u)), n_in - 2)
        w = u - i0
        out[:, j] = s[:, i0] * (1.0 - w) + s[:, i0 + 1] * w
    return out


def naive_ntxent(embeddings: np.ndarray, tau: float) -> float:
    """Contrastive loss over adjacent positive pairs, written as plain loops."""
    z = np.asarray(embeddings, dtype=np.float64)
    n2 = z.shape[0]
    sim = np.zeros((n2, n2))
    for i in range(n2):
        for j in range(n2):
            sim[i, j] = sum(float(z[i, d]) * float(z[j, d]) for d in range(z.shape[1]))
    total = 0.0
    for k in range(n2 // 2):
        for i, j in ((2 * k, 2 * k + 1), (2 * k + 1, 2 * k)):
            denom = 0.0
            for m in range(n2):
                if m != i:
                    denom += math.exp(sim[i, m] / tau)
            total += -math.log(math.exp(sim[i, j] / tau) / denom)
    return total / n2


def naive_query_ball(
    anchor_indices: np.ndarray,
    points: np.ndarray,
    radius: float,
    group_size: int,
) -> np.ndarray:
    """All-pairs distance scan with the documented tie and padding rules."""
    pts = np.asarray(points, dtype=np.float64)
    groups = np.zeros((len(anchor_indices), group_size), dtype=np.int64)
    r2 = float(radius) * float(radius)
    for ai, a in enumerate(anchor_indices):
        cand: list[tuple[float, int]] = []
        for p in range(pts.shape[0]):
            d2 = 0.0
            for d in range(pts.shape[1]):
                diff = pts[int(a), d] - pts[p, d]
                d2 += diff * diff
            if d2 <= r2:
                cand.append((d2, p))
        cand.sort()
        if not cand:
            groups[ai, :] = int(a)
            continue
        chosen = [p for _, p in cand[:group_size]]
        while len(chosen) < group_size:
            chosen.append(chosen[0])
        groups[ai] = chosen
    return groups


def naive_mips(vectors: np.ndarray, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exhaustive maximum-inner-product scan; ties by ascending row."""
    q = np.asarray(query, dtype=np.float64)
    scored = []
    for i in range(vectors.shape[0]):
        s = 0.0
        for d in range(q.shape[0]):
            s += float(vectors[i, d]) * q[d]
        scored.append((i, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def finite_difference_grad(fn, arrays: dict[str, np.ndarray], h: float = 1e-4) -> dict[str, np.ndarray]:
    """Central-difference gradients of scalar ``fn(arrays)`` per entry."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = fn(arrays)
            flat[i] = keep - h
            lo = fn(arrays)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return grads


def dominant_frequency_hz(samples: np.ndarray, sample_rate: int) -> float:
    """Peak of the magnitude spectrum of the whole clip, in Hz."""
    x = np.asarray(samples, dtype=np.float64)
    mag = np.abs(np.fft.rfft(x * np.hanning(x.size)))
    return float(np.argmax(mag) * sample_rate / x.size)
