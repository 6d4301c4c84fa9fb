"""Audio loading, mono resampling (8 kHz by default), segmentation, and time
stretching.

The stretcher is a WSOLA (waveform similarity overlap-add) implementation:
it changes tempo while preserving pitch, which is exactly the distortion the
retrieval systems here are meant to survive. It takes and returns an
:class:`AudioClip`, whose rate sizes its window. ``factor`` multiplies tempo,
so the output has ``round(n / factor)`` samples.
"""
from __future__ import annotations

import logging
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

from ..errors import ConfigError, DataError, ShapeError

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 8000

# WSOLA geometry, in seconds.
_STRETCH_WINDOW_S = 0.040
_STRETCH_TOLERANCE_S = 0.010

SEGMENT_SECONDS = 1.0
SEGMENT_HOP_SECONDS = 0.5


@dataclass(frozen=True)
class AudioClip:
    """Mono float32 samples plus their rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        if self.samples.ndim != 1:
            raise ShapeError(f"clip must be 1-D, got shape {self.samples.shape}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _to_float(raw: bytes, sampwidth: int) -> np.ndarray:
    if sampwidth == 1:  # unsigned 8-bit
        x = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
        return (x - 128.0) / 128.0
    if sampwidth == 2:
        return np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    if sampwidth == 4:
        return np.frombuffer(raw, dtype="<i4").astype(np.float32) / 2147483648.0
    raise DataError(f"unsupported WAV sample width: {sampwidth} bytes")


def load_audio(path: str | Path, target_rate: int = DEFAULT_SAMPLE_RATE) -> AudioClip:
    """Read a PCM WAV file, mix to mono, and resample to ``target_rate``."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            rate = wf.getframerate()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except (wave.Error, EOFError, OSError) as exc:
        raise DataError(f"cannot read WAV file {path}: {exc}") from exc
    x = _to_float(raw, sampwidth)
    if n_channels > 1:
        x = x.reshape(-1, n_channels).mean(axis=1)
    if rate != target_rate:
        g = np.gcd(rate, target_rate)
        x = resample_poly(x.astype(np.float64), target_rate // g, rate // g)
    return AudioClip(np.ascontiguousarray(x, dtype=np.float32), target_rate)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM WAV."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(clip.sample_rate)
        wf.writeframes(pcm.tobytes())


def segment_clip(
    clip: AudioClip | np.ndarray, sample_rate: int = DEFAULT_SAMPLE_RATE
) -> np.ndarray:
    """Cut a clip into full ``SEGMENT_SECONDS`` windows every
    ``SEGMENT_HOP_SECONDS``, so consecutive windows half overlap.

    Returns an array of shape (n_segments, window_samples). Only windows that
    fit entirely inside the clip are produced; a clip shorter than one window
    is an error.
    """
    if isinstance(clip, AudioClip):
        x = clip.samples
        sample_rate = clip.sample_rate
    else:
        x = np.asarray(clip)
    win = int(round(SEGMENT_SECONDS * sample_rate))
    hop = int(round(SEGMENT_HOP_SECONDS * sample_rate))
    if x.size < win:
        raise DataError(
            f"clip too short to segment: {x.size} samples < window {win}"
        )
    n_seg = (x.size - win) // hop + 1
    starts = np.arange(n_seg) * hop
    return np.stack([x[s : s + win] for s in starts])


def _hann_periodic(n: int) -> np.ndarray:
    return np.hanning(n + 1)[:-1].astype(np.float64)


def stretch_audio(clip: AudioClip, factor: float) -> AudioClip:
    """Time-stretch by ``factor`` (tempo multiplier) with pitch preserved.

    factor > 1 speeds the clip up (shorter output), factor < 1 slows it down.
    ``factor == 1`` returns an identical copy. Output length is exactly
    ``round(n / factor)`` samples, at the clip's rate; the WSOLA window is
    sized in seconds at that rate.
    """
    return AudioClip(_wsola(clip.samples, factor, clip.sample_rate), clip.sample_rate)


def _wsola(samples: np.ndarray, factor: float, sr: int) -> np.ndarray:
    if not np.isfinite(factor) or factor <= 0:
        raise ConfigError(f"stretch factor must be positive, got {factor!r}")
    x = np.asarray(samples, dtype=np.float32)
    if factor == 1.0:
        return x.copy()
    out_len = int(round(x.size / factor))
    window = int(round(_STRETCH_WINDOW_S * sr))
    window += window % 2
    if x.size < 2 * window or out_len < 2 * window:
        # Too short for overlap-add; plain linear time-map is the fallback.
        t = np.linspace(0.0, x.size - 1, max(out_len, 1))
        return np.interp(t, np.arange(x.size), x).astype(np.float32)
    hop = window // 2
    tol = int(round(_STRETCH_TOLERANCE_S * sr))
    win = _hann_periodic(window)
    xs = x.astype(np.float64)

    n_frames = (out_len - window) // hop + 1
    if window + (n_frames - 1) * hop < out_len:
        n_frames += 1
    buf = np.zeros(out_len + window + hop)
    acc = np.zeros_like(buf)
    pos = 0
    for k in range(n_frames):
        natural = int(round(k * hop * factor))
        natural = min(max(natural, 0), x.size - window)
        if k == 0:
            pos = natural
        else:
            # The segment that would seamlessly continue the last one.
            ref_start = min(pos + hop, x.size - window)
            ref = xs[ref_start : ref_start + window]
            lo = max(natural - tol, 0)
            hi = min(natural + tol, x.size - window)
            if hi > lo:
                region = xs[lo : hi + window]
                corr = np.correlate(region, ref, mode="valid")
                pos = lo + int(np.argmax(corr))
            else:
                pos = natural
        seg = xs[pos : pos + window]
        o = k * hop
        buf[o : o + window] += seg * win
        acc[o : o + window] += win
    out = buf[:out_len] / np.maximum(acc[:out_len], 1e-8)
    return out.astype(np.float32)
