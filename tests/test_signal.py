"""Signal front-end tests: audio I/O, stretching, spectrograms, peak clouds.

Expected values come from naive reference implementations (peaknetfp.reference)
or from hand-worked examples frozen inline; none are produced by the code
under test.
"""
from __future__ import annotations

import wave

import numpy as np
import pytest

from peaknetfp import reference as ref
from peaknetfp.errors import ConfigError, DataError, DecodeError, ShapeError
from peaknetfp.signal.audio import load_audio, segment_clip, stretch_audio, write_wav
from peaknetfp.signal.peaks import (
    PeakEntry,
    extract_peaks,
    local_maxima,
    read_peaks,
    select_peaks,
    write_peaks,
)
from peaknetfp.signal.spectral import (
    mel_filterbank,
    melspectrogram,
    stft_magnitude,
    stretch_spectrogram,
)


def tone(freq_hz: float, duration_s: float, rate: int) -> np.ndarray:
    t = np.arange(int(round(duration_s * rate))) / rate
    return np.sin(2.0 * np.pi * freq_hz * t).astype(np.float32)


def write_pcm16(path, x: np.ndarray, rate: int, channels: int = 1) -> None:
    """A 16-bit WAV at any rate, which ``write_wav`` (8 kHz only) cannot write."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes((x * 32767).astype("<i2").tobytes())


class TestLoadAudio:
    def test_wav_roundtrip_8k(self, tmp_path):
        rng = np.random.default_rng(11)
        x = (rng.uniform(-0.5, 0.5, 8000)).astype(np.float32)
        p = tmp_path / "a.wav"
        write_wav(p, x)
        clip = load_audio(p)
        assert clip.shape == (8000,) and clip.dtype == np.float32
        # 16-bit quantization is the only loss
        np.testing.assert_allclose(clip, x, atol=1.0 / 32767)

    def test_downsample_halves_length_and_keeps_tone(self, tmp_path):
        p = tmp_path / "t16.wav"
        write_pcm16(p, tone(440.0, 1.0, 16000), 16000)
        clip = load_audio(p)
        assert clip.size == 8000
        got = ref.dominant_frequency_hz(clip, 8000)
        assert abs(got - 440.0) < 2.0

    def test_stereo_mixes_to_mono(self, tmp_path):
        left = tone(200.0, 0.25, 8000)
        right = np.zeros_like(left)
        inter = np.empty(left.size * 2, dtype=np.float32)
        inter[0::2], inter[1::2] = left, right
        p = tmp_path / "st.wav"
        write_pcm16(p, inter, 8000, channels=2)
        clip = load_audio(p)
        assert clip.shape == (left.size,)
        np.testing.assert_allclose(clip, left / 2.0, atol=2.0 / 32767)

    def test_missing_file_raises_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_audio(tmp_path / "nope.wav")


class TestStretchAudio:
    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 0.2, 12000).astype(np.float32)
        y = stretch_audio(x, 1.0)
        assert y is not x
        np.testing.assert_array_equal(y, x)

    @pytest.mark.parametrize("factor", [0.5, 0.8, 0.9, 1.1, 1.25, 2.0])
    def test_output_length_is_rounded_ratio(self, factor):
        x = tone(440.0, 2.0, 8000)
        y = stretch_audio(x, factor)
        assert y.size == round(x.size / factor)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_pitch_preserved(self, factor):
        x = tone(440.0, 2.0, 8000)
        y = stretch_audio(x, factor)
        got = ref.dominant_frequency_hz(y, 8000)
        assert abs(got - 440.0) < 10.0

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_invalid_factor_raises(self, factor):
        with pytest.raises(ConfigError):
            stretch_audio(np.zeros(8000, dtype=np.float32), factor)

    def test_two_d_samples_rejected(self):
        with pytest.raises(ShapeError):
            stretch_audio(np.zeros((2, 8000), dtype=np.float32), 1.25)


class TestSegmentClip:
    def test_thirty_seconds_gives_59_segments(self):
        x = np.zeros(8000 * 30, dtype=np.float32)
        assert segment_clip(x).shape == (59, 8000)

    @pytest.mark.parametrize("duration", [1.0, 1.5, 2.0, 5.5, 12.0])
    def test_count_matches_closed_form(self, duration):
        x = np.zeros(int(duration * 8000), dtype=np.float32)
        n = segment_clip(x).shape[0]
        assert n == int((duration - 1.0) / 0.5) + 1

    def test_windows_are_half_overlapping_slices(self):
        x = np.arange(16000, dtype=np.float32)
        seg = segment_clip(x)
        assert seg.shape == (3, 8000)
        np.testing.assert_array_equal(seg[1], x[4000:12000])
        np.testing.assert_array_equal(seg[2], x[8000:])

    def test_too_short_raises(self):
        with pytest.raises(DataError):
            segment_clip(np.zeros(7999, dtype=np.float32))

    def test_two_d_samples_rejected(self):
        with pytest.raises(ShapeError):
            segment_clip(np.zeros((2, 8000), dtype=np.float32))


class TestSpectrogram:
    def test_one_second_segment_shape(self):
        spec = melspectrogram(tone(440.0, 1.0, 8000))
        assert spec.shape == (256, 32)
        assert spec.dtype == np.float32

    def test_frame_count_formula_off_grid(self):
        mag = stft_magnitude(np.zeros(8300, dtype=np.float32))
        assert mag.shape == (513, 1 + 8300 // 256)

    def test_tone_lands_in_covering_mel_filter(self):
        # The strongest mel bin's triangle must contain the tone frequency,
        # give or take one FFT bin of window leakage (filters near 440 Hz are
        # only ~14 Hz wide at a 7.8 Hz bin spacing). Filter edges recomputed
        # here from the HTK formula, independently.
        spec = melspectrogram(tone(440.0, 1.0, 8000))
        mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
        hz = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
        edges = hz(np.linspace(mel(300.0), mel(4000.0), 258))
        bin_hz = 8000.0 / 1024.0
        for col in range(spec.shape[1]):
            j = int(np.argmax(spec[:, col]))
            assert edges[j] - bin_hz <= 440.0 <= edges[j + 2] + bin_hz

    def test_filterbank_has_no_empty_filters(self):
        # one cached matrix, shared read-only by every melspectrogram call
        fb = mel_filterbank()
        assert fb is mel_filterbank()
        assert fb.shape == (256, 513)
        assert (fb.max(axis=1) > 0).all()
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0


class TestStretchSpectrogram:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(5)
        s = rng.random((8, 32)).astype(np.float32)
        np.testing.assert_array_equal(stretch_spectrogram(s, 1.0), s)

    def test_hand_worked_row(self):
        s = np.array([[0.0, 2.0, 4.0]], dtype=np.float32)
        np.testing.assert_allclose(stretch_spectrogram(s, 1.5), [[0.0, 4.0]])
        np.testing.assert_allclose(
            stretch_spectrogram(s, 0.75),
            [[0.0, 4.0 / 3.0, 8.0 / 3.0, 4.0]],
            rtol=1e-6,
        )

    @pytest.mark.parametrize("factor", [0.5, 0.7, 0.975, 1.3, 2.0])
    def test_matches_loop_oracle(self, factor):
        rng = np.random.default_rng(int(factor * 1000))
        for _ in range(10):
            s = rng.random((6, int(rng.integers(2, 40)))).astype(np.float32)
            got = stretch_spectrogram(s, factor)
            want = ref.naive_bilinear_stretch(s, factor)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("factor", [0.5, 0.6, 0.9, 1.1, 1.3, 1.7, 2.0])
    def test_roundtrip_frame_count_within_one(self, factor):
        s = np.zeros((4, 32), dtype=np.float32)
        back = stretch_spectrogram(stretch_spectrogram(s, factor), 1.0 / factor)
        assert abs(back.shape[1] - 32) <= 1

    def test_invalid_factor_raises(self):
        with pytest.raises(ConfigError):
            stretch_spectrogram(np.zeros((2, 4), dtype=np.float32), 0.0)


class TestExtractPeaks:
    def test_unique_center_maximum(self):
        m = np.zeros((3, 3), dtype=np.float32)
        m[1, 1] = 5.0
        rows, cols, vals = local_maxima(m)
        assert list(zip(rows, cols, vals)) == [(1, 1, 5.0)]
        cloud = extract_peaks(m, n_peaks=4)
        # one real peak at the normalized center, cyclically repeated
        np.testing.assert_allclose(cloud, [[1 / 3, 1 / 3, 1.0]] * 4, rtol=1e-6)

    def test_constant_matrix_has_no_maxima(self):
        m = np.full((16, 16), 2.5, dtype=np.float32)
        rows, _, _ = local_maxima(m)
        assert rows.size == 0
        np.testing.assert_array_equal(extract_peaks(m, 8), np.zeros((8, 3)))

    def test_plateau_is_not_strict(self):
        m = np.zeros((5, 5), dtype=np.float32)
        m[2, 2] = m[2, 3] = 7.0
        rows, _, _ = local_maxima(m)
        assert rows.size == 0

    def test_tie_rule_time_then_frequency(self):
        m = np.zeros((7, 7), dtype=np.float32)
        for r, c in [(0, 1), (3, 1), (1, 3)]:
            m[r, c] = 7.0
        rows, cols, vals = local_maxima(m)
        rows, cols, vals = select_peaks(rows, cols, vals, 3)
        assert list(zip(rows, cols)) == [(0, 1), (3, 1), (1, 3)]
        assert list(vals) == [7.0, 7.0, 7.0]

    def test_cyclic_padding_order(self):
        m = np.zeros((9, 9), dtype=np.float32)
        m[1, 1], m[4, 4], m[7, 7] = 9.0, 8.0, 7.0
        cloud = extract_peaks(m, n_peaks=8)
        np.testing.assert_array_equal(cloud[3], cloud[0])
        np.testing.assert_array_equal(cloud[4], cloud[1])
        np.testing.assert_array_equal(cloud[7], cloud[1])
        # amplitudes min-max normalized over the selected peaks
        np.testing.assert_allclose(cloud[:3, 2], [1.0, 0.5, 0.0])

    def test_equal_amplitude_peaks_normalize_to_one(self):
        m = np.zeros((7, 7), dtype=np.float32)
        m[1, 1] = m[5, 5] = 3.0
        cloud = extract_peaks(m, n_peaks=4)
        np.testing.assert_array_equal(cloud[:, 2], np.ones(4, dtype=np.float32))

    def test_matches_naive_oracle_on_random_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            m = rng.random((40, 16)).astype(np.float32)
            rows, cols, vals = local_maxima(m)
            got = sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))
            want = sorted(ref.naive_local_maxima(m))
            assert got == want
            np.testing.assert_array_equal(
                extract_peaks(m, 64), ref.naive_cloud(m, 64)
            )


class TestPeakFiles:
    def _entries(self):
        rng = np.random.default_rng(21)
        return [
            PeakEntry("trackA", 0, rng.random((16, 3)).astype(np.float32)),
            PeakEntry("trackA", 1, rng.random((16, 3)).astype(np.float32)),
            PeakEntry("b/track-2", 7, rng.random((16, 3)).astype(np.float32)),
        ]

    def test_roundtrip_bit_exact(self, tmp_path):
        entries = self._entries()
        p = tmp_path / "peaks.bin"
        write_peaks(p, entries)
        back = read_peaks(p)
        assert [(e.track_id, e.segment_index) for e in back] == [
            ("trackA", 0),
            ("trackA", 1),
            ("b/track-2", 7),
        ]
        for a, b in zip(entries, back):
            np.testing.assert_array_equal(a.points, b.points)

    def test_long_track_ids_roundtrip(self, tmp_path):
        long_id = "ü" * 100  # 200 UTF-8 bytes
        entries = [PeakEntry(long_id, 3, np.zeros((4, 3), dtype=np.float32))]
        p = tmp_path / "peaks.bin"
        write_peaks(p, entries)
        assert read_peaks(p)[0].track_id == long_id

    def test_deterministic_bytes(self, tmp_path):
        entries = self._entries()
        p1, p2 = tmp_path / "x1.bin", tmp_path / "x2.bin"
        write_peaks(p1, entries)
        write_peaks(p2, entries)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTPEAKS" + b"\x00" * 32)
        with pytest.raises(DecodeError):
            read_peaks(p)

    def test_truncation_rejected(self, tmp_path):
        entries = self._entries()
        p = tmp_path / "peaks.bin"
        write_peaks(p, entries)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(DecodeError):
            read_peaks(p)
