"""Mel spectrograms and spectrogram-domain time stretching.

Conventions, fixed here and relied on everywhere else:

- One front end: samples at ``DEFAULT_SAMPLE_RATE`` (8 kHz), a periodic Hann
  window of ``N_FFT`` (1024), hop ``HOP`` (256), ``N_MELS`` (256) mel bands
  over ``FMIN``..``FMAX`` (300-4000 Hz).
- STFT frames are centered: the input is reflect-padded by ``N_FFT // 2`` on
  both sides, giving ``1 + n_samples // HOP`` frames, so a one-second segment
  is exactly 32 frames.
- Spectrograms are magnitude (not power, not log), shaped
  ``(N_MELS, n_frames)``.
- Mel filters are triangles with peak 1 on the HTK mel scale
  (``2595 * log10(1 + f / 700)``), spanning FMIN..FMAX.
- ``stretch_spectrogram`` resamples the time axis bilinearly with
  align-corners mapping ``u = j * (n_in - 1) / (n_out - 1)`` and
  ``n_out = round(n_in / factor)``, so factor 1 is the exact identity.
"""
from __future__ import annotations

import functools

import numpy as np

from ..errors import ConfigError, DataError, ShapeError
from .audio import DEFAULT_SAMPLE_RATE

# The NeuralFP front end (Chang et al., ICASSP 2021) at DEFAULT_SAMPLE_RATE.
N_FFT = 1024
HOP = 256
N_MELS = 256
FMIN = 300.0
FMAX = 4000.0
FRAMES_PER_SECOND = DEFAULT_SAMPLE_RATE / HOP

_WINDOW = np.hanning(N_FFT + 1)[:-1].astype(np.float32)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular filter matrix of shape (N_MELS, N_FFT // 2 + 1), built once
    and shared read-only by every ``melspectrogram`` call."""
    n_bins = N_FFT // 2 + 1
    bin_hz = np.arange(n_bins) * DEFAULT_SAMPLE_RATE / N_FFT
    edges = _mel_to_hz(np.linspace(_hz_to_mel(FMIN), _hz_to_mel(FMAX), N_MELS + 2))
    # filter j rises from edges[j] to 1 at edges[j + 1] and falls to 0 at edges[j + 2]
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (bin_hz - left) / (center - left)
    down = (right - bin_hz) / (right - center)
    fb = np.clip(np.minimum(up, down), 0.0, None).astype(np.float32)
    fb.flags.writeable = False
    return fb


def stft_magnitude(samples: np.ndarray) -> np.ndarray:
    """Centered magnitude STFT, shape (N_FFT // 2 + 1, 1 + n // HOP)."""
    x = np.asarray(samples, dtype=np.float32)
    if x.ndim != 1:
        raise ShapeError(f"expected 1-D samples, got {x.shape}")
    if x.size < HOP:
        raise DataError(f"clip too short for STFT: {x.size} samples")
    pad = N_FFT // 2
    xp = np.pad(x, pad, mode="reflect")
    n_frames = 1 + x.size // HOP
    frames = np.lib.stride_tricks.sliding_window_view(xp, N_FFT)[::HOP]
    frames = frames[:n_frames]
    spec = np.abs(np.fft.rfft(frames * _WINDOW, axis=1)).astype(np.float32)
    return spec.T


def melspectrogram(samples: np.ndarray) -> np.ndarray:
    """Mel magnitude spectrogram, shape (N_MELS, n_frames)."""
    return mel_filterbank() @ stft_magnitude(samples)


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
