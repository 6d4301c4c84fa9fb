"""Deterministic synthetic track corpus for tests and benchmarks.

Each track mixes three seeded ingredients over a low noise floor, all drawn
from a per-track frequency palette so tracks are spectrally distinctive:

- sustained drone partials with slow tremolo/vibrato — stationary lines that
  put the track's signature frequencies into every analysis window,
- decaying note events on a per-track rhythmic grid — onset structure that
  distinguishes positions within a track,
- narrowband noise patches at per-track center frequencies — localized
  broadband texture.

No external audio dependencies; a track is a pure function of its arguments.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .signal.audio import DEFAULT_SAMPLE_RATE, write_wav

TRACK_SECONDS = 30.0
N_TRACKS = 50


def _palette(rng: np.random.Generator) -> np.ndarray:
    """Per-track anchor frequencies: random ratios stacked over [130, 3500] Hz."""
    freqs = [rng.uniform(130.0, 220.0)]
    while freqs[-1] < 3500.0:
        freqs.append(freqs[-1] * rng.uniform(1.18, 1.52))
    return np.array(freqs[:-1])


def make_track(index: int, seconds: float = TRACK_SECONDS, seed: int = 0) -> np.ndarray:
    """One synthetic track at ``DEFAULT_SAMPLE_RATE``; a pure function of
    (index, seconds, seed)."""
    sample_rate = DEFAULT_SAMPLE_RATE
    if seed < 0 or not 1 / sample_rate <= seconds < np.inf:
        raise ConfigError(f"need seed >= 0 and a finite length of at least one sample, "
                          f"got seed {seed}, seconds {seconds}")
    rng = np.random.default_rng([seed, 7000 + index])
    n = int(round(seconds * sample_rate))
    t = np.arange(n) / sample_rate
    x = 0.004 * rng.normal(size=n)
    palette = _palette(rng)

    # sustained drones: track-signature lines present in every window
    n_drones = int(rng.integers(3, 6))
    drone_freqs = rng.choice(palette, size=min(n_drones, palette.size), replace=False)
    for f in drone_freqs:
        trem = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.2, 2.5) * t + rng.uniform(0, 2 * np.pi))
        vib = 1.0 + 0.002 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * t + rng.uniform(0, 2 * np.pi))
        amp = rng.uniform(0.06, 0.16)
        phase = 2 * np.pi * np.cumsum(f * vib) / sample_rate
        x += amp * (0.4 + 0.6 * trem) * np.sin(phase)

    # note events on a jittered per-track rhythmic grid
    period = rng.uniform(0.35, 0.65)
    starts = np.arange(0.1, seconds - 0.3, period)
    starts = starts + rng.uniform(-0.1, 0.1, size=starts.size)
    for start in starts:
        f0 = float(rng.choice(palette))
        decay = rng.uniform(1.5, 6.0)
        amp = rng.uniform(0.18, 0.42)
        i0 = max(0, int(start * sample_rate))
        i1 = min(n, i0 + int(5.0 / decay * sample_rate) + 1)
        if i1 <= i0:
            continue
        tt = t[i0:i1] - t[i0]
        env = np.exp(-tt * decay)
        seg = np.zeros(i1 - i0)
        for p in range(1, int(rng.integers(2, 5)) + 1):
            f = f0 * p
            if f > 3700.0:
                break
            seg += (amp / p) * env * np.sin(2 * np.pi * f * tt + rng.uniform(0, 2 * np.pi))
        x[i0:i1] += seg

    # narrowband noise patches at per-track bands
    n_bands = int(rng.integers(2, 4))
    for _ in range(n_bands):
        center = rng.uniform(400.0, 3600.0)
        width = rng.uniform(80.0, 260.0)
        for _ in range(max(1, int(seconds / 8))):
            start = rng.uniform(0.0, max(seconds - 1.5, 0.1))
            dur = rng.uniform(0.8, 1.6)
            i0 = int(start * sample_rate)
            i1 = min(n, i0 + int(dur * sample_rate))
            if i1 - i0 < 64:
                continue
            burst = rng.normal(size=i1 - i0)
            spec = np.fft.rfft(burst)
            fr = np.fft.rfftfreq(i1 - i0, 1.0 / sample_rate)
            spec *= np.exp(-0.5 * ((fr - center) / (width / 2.355)) ** 2)
            burst = np.fft.irfft(spec, n=i1 - i0)
            burst /= max(np.max(np.abs(burst)), 1e-12)
            fade = min(256, (i1 - i0) // 4)
            window = np.ones(i1 - i0)
            ramp = np.linspace(0.0, 1.0, fade)
            window[:fade] = ramp
            window[-fade:] = ramp[::-1]
            x[i0:i1] += rng.uniform(0.08, 0.18) * window * burst
    peak = np.max(np.abs(x))
    return (0.9 * x / peak).astype(np.float32)


def make_corpus(
    n_tracks: int = N_TRACKS, seconds: float = TRACK_SECONDS, seed: int = 0
) -> list[tuple[str, np.ndarray]]:
    if n_tracks < 1:
        raise ConfigError(f"need at least one track, got n_tracks {n_tracks}")
    return [(f"track{i:03d}", make_track(i, seconds, seed)) for i in range(n_tracks)]


def write_corpus(
    out_dir: str | Path,
    n_tracks: int = N_TRACKS,
    seconds: float = TRACK_SECONDS,
    seed: int = 0,
) -> list[Path]:
    """Write the corpus as wav files; returns the paths in track order."""
    tracks = make_corpus(n_tracks, seconds, seed)  # refuses bad arguments before any write
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, samples in tracks:
        path = out / f"{name}.wav"
        write_wav(path, samples)
        paths.append(path)
    return paths
