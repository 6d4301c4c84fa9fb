"""Audio loading, mono resampling to 8 kHz, segmentation, and time
stretching.

Audio is a plain 1-D float32 array at ``DEFAULT_SAMPLE_RATE``: ``load_audio``
resamples every file to it, and every other function here takes and returns
samples at that rate.

The stretcher is a WSOLA (waveform similarity overlap-add) implementation:
it changes tempo while preserving pitch, which is exactly the distortion the
retrieval systems here are meant to survive. ``factor`` multiplies tempo, so
the output has ``round(n / factor)`` samples.
"""
from __future__ import annotations

import logging
import wave
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

from ..errors import ConfigError, DataError, ShapeError

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 8000
# the highest WAV rate load_audio resamples from; resample_poly's filter
# grows with the rate ratio, so a bogus header rate could exhaust memory
MAX_SAMPLE_RATE = 384_000

# the tempo factors the system is built for: training replicas, evaluation
# sweeps, the quad baseline's vote and the alignment slopes all span them
STRETCH_MIN, STRETCH_MAX = 0.5, 2.0

# WSOLA geometry at DEFAULT_SAMPLE_RATE: a 40 ms window (an even sample
# count) searched +-10 ms around its natural position.
_STRETCH_WINDOW = DEFAULT_SAMPLE_RATE // 25
_STRETCH_TOLERANCE = DEFAULT_SAMPLE_RATE // 100

# one-second segments every half second
SEGMENT_SAMPLES = DEFAULT_SAMPLE_RATE
SEGMENT_HOP = DEFAULT_SAMPLE_RATE // 2
SEGMENT_HOP_SECONDS = SEGMENT_HOP / DEFAULT_SAMPLE_RATE


def _to_float(raw: bytes, sampwidth: int) -> np.ndarray:
    if sampwidth == 1:  # unsigned 8-bit
        x = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
        return (x - 128.0) / 128.0
    if sampwidth == 2:
        return np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    if sampwidth == 4:
        return np.frombuffer(raw, dtype="<i4").astype(np.float32) / 2147483648.0
    raise DataError(f"unsupported WAV sample width: {sampwidth} bytes")


def _samples(samples: np.ndarray) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float32)
    if x.ndim != 1:
        raise ShapeError(f"samples must be 1-D, got shape {x.shape}")
    return x


def load_audio(path: str | Path) -> np.ndarray:
    """Read a PCM WAV file, mix to mono, and resample to ``DEFAULT_SAMPLE_RATE``.

    A header rate of 0 or above ``MAX_SAMPLE_RATE`` is a :class:`DataError`.
    """
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
    if not 0 < rate <= MAX_SAMPLE_RATE:
        raise DataError(f"{path}: WAV sample rate {rate} Hz is not in 1..{MAX_SAMPLE_RATE} Hz")
    x = _to_float(raw, sampwidth)
    if n_channels > 1:
        x = x.reshape(-1, n_channels).mean(axis=1)
    if rate != DEFAULT_SAMPLE_RATE:
        g = np.gcd(rate, DEFAULT_SAMPLE_RATE)
        x = resample_poly(x.astype(np.float64), DEFAULT_SAMPLE_RATE // g, rate // g)
    return np.ascontiguousarray(x, dtype=np.float32)


def write_wav(path: str | Path, samples: np.ndarray) -> None:
    """Write samples as 16-bit PCM WAV at ``DEFAULT_SAMPLE_RATE``."""
    pcm = np.clip(np.round(_samples(samples) * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(DEFAULT_SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def segment_clip(samples: np.ndarray) -> np.ndarray:
    """Cut samples into full ``SEGMENT_SAMPLES`` windows every
    ``SEGMENT_HOP`` samples, so consecutive windows half overlap.

    Returns a read-only view of shape (n_segments, SEGMENT_SAMPLES). Only
    windows that fit entirely inside the samples are produced; fewer samples
    than one window is an error.
    """
    x = _samples(samples)
    if x.size < SEGMENT_SAMPLES:
        raise DataError(
            f"clip too short to segment: {x.size} samples < window {SEGMENT_SAMPLES}"
        )
    return np.lib.stride_tricks.sliding_window_view(x, SEGMENT_SAMPLES)[::SEGMENT_HOP]


def _hann_periodic(n: int) -> np.ndarray:
    return np.hanning(n + 1)[:-1].astype(np.float64)


def stretch_audio(samples: np.ndarray, factor: float) -> np.ndarray:
    """Time-stretch by ``factor`` (tempo multiplier) with pitch preserved.

    factor > 1 speeds the samples up (shorter output), factor < 1 slows them
    down. ``factor == 1`` returns an identical copy. Output length is exactly
    ``round(n / factor)`` samples.
    """
    if not np.isfinite(factor) or factor <= 0:
        raise ConfigError(f"stretch factor must be positive, got {factor!r}")
    x = _samples(samples)
    if factor == 1.0:
        return x.copy()
    out_len = int(round(x.size / factor))
    window = _STRETCH_WINDOW
    if x.size < 2 * window or out_len < 2 * window:
        # Too short for overlap-add; plain linear time-map is the fallback.
        t = np.linspace(0.0, x.size - 1, max(out_len, 1))
        return np.interp(t, np.arange(x.size), x).astype(np.float32)
    hop = window // 2
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
            lo = max(natural - _STRETCH_TOLERANCE, 0)
            hi = min(natural + _STRETCH_TOLERANCE, x.size - window)
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
