"""Mel spectrograms and spectrogram-domain time stretching.

Conventions, fixed here and relied on everywhere else:

- STFT frames are centered: the input is reflect-padded by ``n_fft // 2`` on
  both sides, giving ``1 + n_samples // hop`` frames. At the 8 kHz default
  (window 1024, hop 256) a one-second segment is exactly 32 frames.
- Spectrograms are magnitude (not power, not log), shaped
  ``(n_mels, n_frames)``.
- Mel filters are triangles with peak 1 on the HTK mel scale
  (``2595 * log10(1 + f / 700)``), spanning fmin..fmax.
- ``stretch_spectrogram`` resamples the time axis bilinearly with
  align-corners mapping ``u = j * (n_in - 1) / (n_out - 1)`` and
  ``n_out = round(n_in / factor)``, so factor 1 is the exact identity.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from ..config import JsonConfig
from ..errors import ConfigError, DataError, ShapeError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpectrogramConfig(JsonConfig):
    sample_rate: int = 8000
    n_fft: int = 1024
    hop: int = 256
    n_mels: int = 256
    fmin: float = 300.0
    fmax: float = 4000.0

    def __post_init__(self) -> None:
        if self.n_fft <= 0 or self.hop <= 0 or self.n_mels <= 0:
            raise ConfigError("n_fft, hop and n_mels must be positive")
        if not 0 <= self.fmin < self.fmax <= self.sample_rate / 2:
            raise ConfigError(
                f"need 0 <= fmin < fmax <= Nyquist, got {self.fmin}..{self.fmax}"
            )

    @property
    def frames_per_second(self) -> float:
        return self.sample_rate / self.hop


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def _cached_filterbank(cfg: SpectrogramConfig) -> np.ndarray:
    # one read-only matrix per config, shared by every melspectrogram call
    n_bins = cfg.n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    edges = _mel_to_hz(
        np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    )
    fb = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for j in range(cfg.n_mels):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        up = (bin_hz - left) / (center - left)
        down = (right - bin_hz) / (right - center)
        fb[j] = np.clip(np.minimum(up, down), 0.0, None)
    if not (fb.max(axis=1) > 0).all():
        raise ConfigError(
            "mel filterbank has empty filters; widen fmin..fmax or lower n_mels"
        )
    fb = fb.astype(np.float32)
    fb.flags.writeable = False
    return fb


def mel_filterbank(cfg: SpectrogramConfig) -> np.ndarray:
    """Triangular filter matrix of shape (n_mels, n_fft // 2 + 1).

    Returns a fresh writable copy; ``melspectrogram`` uses a cached read-only
    matrix built once per config.
    """
    return _cached_filterbank(cfg).copy()


def stft_magnitude(samples: np.ndarray, cfg: SpectrogramConfig | None = None) -> np.ndarray:
    """Centered magnitude STFT, shape (n_fft // 2 + 1, 1 + n // hop)."""
    cfg = cfg or SpectrogramConfig()
    x = np.asarray(samples, dtype=np.float32)
    if x.ndim != 1:
        raise ShapeError(f"expected 1-D samples, got {x.shape}")
    if x.size < cfg.hop:
        raise DataError(f"clip too short for STFT: {x.size} samples")
    pad = cfg.n_fft // 2
    xp = np.pad(x, pad, mode="reflect")
    n_frames = 1 + x.size // cfg.hop
    frames = np.lib.stride_tricks.sliding_window_view(xp, cfg.n_fft)[:: cfg.hop]
    frames = frames[:n_frames]
    window = np.hanning(cfg.n_fft + 1)[:-1].astype(np.float32)
    spec = np.abs(np.fft.rfft(frames * window, axis=1)).astype(np.float32)
    return spec.T


def melspectrogram(samples: np.ndarray, cfg: SpectrogramConfig | None = None) -> np.ndarray:
    """Mel magnitude spectrogram, shape (n_mels, n_frames)."""
    cfg = cfg or SpectrogramConfig()
    return _cached_filterbank(cfg) @ stft_magnitude(samples, cfg)


def stretch_spectrogram(spec: np.ndarray, factor: float) -> np.ndarray:
    """Resample the time axis so tempo is multiplied by ``factor``.

    Output has ``round(n_frames / factor)`` columns; frequency content is
    untouched. Bilinear interpolation with align-corners endpoints.
    """
    if not np.isfinite(factor) or factor <= 0:
        raise ConfigError(f"stretch factor must be positive, got {factor!r}")
    s = np.asarray(spec)
    if s.ndim != 2:
        raise ShapeError(f"expected a 2-D spectrogram, got {s.shape}")
    n_in = s.shape[1]
    if n_in == 0:
        raise DataError("cannot stretch an empty spectrogram")
    n_out = max(1, int(round(n_in / factor)))
    if n_out == n_in:
        return s.astype(np.float32, copy=True)
    if n_in == 1:
        return np.repeat(s, n_out, axis=1).astype(np.float32)
    if n_out == 1:
        u = np.array([(n_in - 1) / 2.0])
    else:
        u = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    i0 = np.floor(u).astype(int)
    i0 = np.minimum(i0, n_in - 2)
    w = (u - i0).astype(np.float32)
    out = s[:, i0] * (1.0 - w) + s[:, i0 + 1] * w
    return out.astype(np.float32)


def fit_frames(spec: np.ndarray, n_frames: int) -> np.ndarray:
    """Crop or edge-pad a spectrogram (start-aligned) to exactly n_frames."""
    s = np.asarray(spec)
    if s.shape[1] >= n_frames:
        return s[:, :n_frames]
    pad = n_frames - s.shape[1]
    return np.pad(s, ((0, 0), (0, pad)), mode="edge")
