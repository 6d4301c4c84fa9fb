"""Spectral peak extraction and peak-cloud files.

A peak cloud is a fixed-size set of the strongest strict local maxima of one
spectrogram segment, as rows ``(t, f, a)``:

- ``t``: frame index / segment frame count, in [0, 1)
- ``f``: mel bin / mel count, in [0, 1)
- ``a``: amplitude min-max normalized over the selected peaks of the segment

Selection order (and therefore row order) is amplitude-descending, ties
broken by ascending (t, f). Clouds with fewer maxima than the target size are
padded by cyclically repeating that ordering; an empty cloud is all zeros.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import maximum_filter

from .. import container
from ..errors import DataError, DecodeError, ShapeError
from .audio import segment_clip
from .spectral import melspectrogram

log = logging.getLogger(__name__)

CLOUD_SIZE = 256

PEAKS_KIND = "peaks"

_NEIGHBORS = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=bool)


def local_maxima(spec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strict 3x3 local maxima of a 2-D array.

    A cell qualifies iff its value is greater than every in-bounds neighbor
    (the neighborhood truncates at the edges). Returns (rows, cols, values)
    in row-major scan order.
    """
    s = np.asarray(spec)
    if s.ndim != 2:
        raise ShapeError(f"expected a 2-D spectrogram, got {s.shape}")
    neighbor_max = maximum_filter(s, footprint=_NEIGHBORS, mode="constant", cval=-np.inf)
    mask = s > neighbor_max
    rows, cols = np.nonzero(mask)
    return rows, cols, s[rows, cols]


def strength_order(t: np.ndarray, f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Indices that sort points strongest first: amplitude descending, then
    ascending t, then ascending f."""
    return np.lexsort((f, t, -np.asarray(a, dtype=np.float64)))


def select_peaks(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, k: int = CLOUD_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the k strongest peaks, ties by ascending (time, frequency).

    Output is in the canonical cloud order: amplitude descending, then
    (col, row) ascending.
    """
    order = strength_order(cols, rows, values)[:k]
    return rows[order], cols[order], values[order]


def extract_peaks(
    spec: np.ndarray, n_peaks: int = CLOUD_SIZE
) -> np.ndarray:
    """Peak cloud of one segment spectrogram, shape (n_peaks, 3) float32."""
    s = np.asarray(spec)
    rows, cols, vals = local_maxima(s)
    rows, cols, vals = select_peaks(rows, cols, vals, n_peaks)
    n_mels, n_frames = s.shape
    cloud = np.zeros((n_peaks, 3), dtype=np.float32)
    n = rows.size
    if n == 0:
        return cloud
    t = cols.astype(np.float32) / np.float32(n_frames)
    f = rows.astype(np.float32) / np.float32(n_mels)
    amax = float(vals.max())
    amin = float(vals.min())
    if amax > amin:
        a = ((vals - amin) / (amax - amin)).astype(np.float32)
    else:
        a = np.ones(n, dtype=np.float32)
    real = np.stack([t, f, a], axis=1).astype(np.float32)
    idx = np.arange(n_peaks) % n
    cloud[:] = real[idx]
    return cloud


def clip_clouds(samples: np.ndarray) -> np.ndarray:
    """All segment peak clouds of 1-D samples at ``DEFAULT_SAMPLE_RATE``,
    shape (n_segments, CLOUD_SIZE, 3)."""
    return np.stack([extract_peaks(melspectrogram(w)) for w in segment_clip(samples)])


@dataclass(frozen=True)
class PeakEntry:
    """One segment's cloud plus where it came from."""

    track_id: str
    segment_index: int
    points: np.ndarray  # (n_peaks, 3) float32


def write_peaks(path: str | Path, entries: list[PeakEntry]) -> None:
    """Peak file: every cloud and its segment index, in runs of track ids."""
    if not entries:
        raise DataError("refusing to write an empty peak file")
    n_peaks = entries[0].points.shape[0]
    if any(e.points.shape != (n_peaks, 3) for e in entries):
        raise ShapeError(f"peak file clouds must all have shape ({n_peaks}, 3)")
    runs = []
    for tid, run in itertools.groupby(entries, key=lambda e: e.track_id):
        run = list(run)
        points = np.stack([e.points for e in run]).astype("<f4", copy=False)
        segment = np.array([e.segment_index for e in run], dtype="<u8")
        runs.append((tid, {"points": points, "segment": segment}))
    container.write_tracks(path, PEAKS_KIND, runs, {})


def read_peaks(path: str | Path) -> list[PeakEntry]:
    """Inverse of write_peaks."""
    runs, _ = container.read_tracks(path, PEAKS_KIND)
    entries = []
    try:
        for tid, rows in runs:
            points, segment = rows["points"], rows["segment"]
            if (points.dtype, points.shape[2:], segment.ndim) != (np.float32, (3,), 1):
                raise DataError("cloud and segment arrays disagree in dtype or shape")
            entries += [PeakEntry(tid, int(seg), pts) for seg, pts in zip(segment, points)]
    except (KeyError, TypeError, DataError) as exc:
        raise DecodeError(f"{path}: inconsistent peak file: {exc}") from exc
    return entries
