"""Signal front end: audio I/O, time stretching, spectrograms, peak clouds."""
from __future__ import annotations

from .audio import (
    DEFAULT_SAMPLE_RATE,
    load_audio,
    segment_clip,
    stretch_audio,
    write_wav,
)
from .peaks import (
    PeakEntry,
    clip_clouds,
    extract_peaks,
    local_maxima,
    read_peaks,
    select_peaks,
    write_peaks,
)
from .spectral import (
    mel_filterbank,
    melspectrogram,
    stft_magnitude,
    stretch_spectrogram,
)

__all__ = [
    "DEFAULT_SAMPLE_RATE",
    "PeakEntry",
    "clip_clouds",
    "extract_peaks",
    "load_audio",
    "local_maxima",
    "mel_filterbank",
    "melspectrogram",
    "read_peaks",
    "segment_clip",
    "select_peaks",
    "stft_magnitude",
    "stretch_audio",
    "stretch_spectrogram",
    "write_peaks",
    "write_wav",
]
