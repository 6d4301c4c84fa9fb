"""Command-line surface: exit codes, printed results, and file round-trips."""
from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from peaknetfp import cli
from peaknetfp import reference as ref
from peaknetfp.cli import _cut, main
from peaknetfp.encoder import DEFAULT_CONFIG, EncoderConfig, checkpoint_id
from peaknetfp.index import FingerprintDB
from peaknetfp.signal.audio import AudioClip
from peaknetfp.signal.peaks import read_peaks
from peaknetfp.training import TrainConfig, TrainResult


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--audio", "x.wav"])
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, eval_rig):
        code = main(
            [
                "query",
                "--db",
                "/no/such.db",
                "--model",
                str(eval_rig.model_path),
                "--audio",
                str(eval_rig.wav_dir / "track000.wav"),
            ]
        )
        assert code == 2

    def test_corrupt_fp_db_is_data_error(self, tmp_path, eval_rig, capsys):
        blob = bytearray(eval_rig.db_path.read_bytes())
        blob[-1] ^= 0xFF
        bad = tmp_path / "fp.db"
        bad.write_bytes(bytes(blob))
        code = main(
            [
                "query",
                "--db",
                str(bad),
                "--model",
                str(eval_rig.model_path),
                "--audio",
                str(eval_rig.wav_dir / "track000.wav"),
            ]
        )
        assert code == 2
        assert "checksum" in capsys.readouterr().err

    def test_corrupt_quad_db_is_data_error(self, tmp_path, eval_rig, capsys):
        blob = bytearray(eval_rig.quad_path.read_bytes())
        blob[blob.index(b'"spectrogram"') + 3] ^= 0x01
        bad = tmp_path / "quad.db"
        bad.write_bytes(bytes(blob))
        code = main(
            [
                "quadfp",
                "query",
                "--db",
                str(bad),
                "--audio",
                str(eval_rig.wav_dir / "track000.wav"),
                "--len",
                "3",
            ]
        )
        assert code == 2
        assert "checksum" in capsys.readouterr().err

    def test_bad_config_json_is_data_error(self, tmp_path, eval_rig):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code = main(
            ["train", "--audio", str(eval_rig.wav_dir), "-c", str(bad), "-o", str(tmp_path / "m.ckpt")]
        )
        assert code == 2

    @pytest.mark.parametrize("global_mlp", [[-1, 128], [0, 128]])
    def test_non_positive_encoder_width_is_config_error(self, tmp_path, eval_rig, global_mlp):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"train": {}, "encoder": {**DEFAULT_CONFIG.to_dict(), "global_mlp": global_mlp}}
            )
        )
        code = main(
            ["train", "--audio", str(eval_rig.wav_dir), "-c", str(cfg), "-o", str(tmp_path / "m.ckpt")]
        )
        assert code == 2

    def test_evaluate_without_artifacts_is_config_error(self, eval_rig, tmp_path):
        code = main(
            ["evaluate", "--audio", str(eval_rig.wav_dir), "-o", str(tmp_path / "r.jsonl")]
        )
        assert code == 2


class TestCut:
    @pytest.mark.parametrize("length_s, want", [(2.0, 32000), (None, 64000)])
    def test_excerpt_at_the_clip_rate(self, length_s, want):
        t = np.arange(5 * 16000) / 16000
        clip = AudioClip(np.sin(2.0 * np.pi * 50.0 * t).astype(np.float32), 16000)
        out = _cut(clip, 0.5, length_s, 1.25)
        assert out.size == want
        assert abs(ref.dominant_frequency_hz(out, 16000) - 50.0) <= 16000 / out.size


class TestTrainConfigFile:
    ENCODER = {
        "stage1": {"n_anchors": 8, "branches": [{"group_size": 2, "radius": 0.3, "mlp": [4]}]},
        "stage2": {"n_anchors": 4, "branches": [{"group_size": 2, "radius": 0.4, "mlp": [4]}]},
        "global_mlp": [4, 6],
    }

    @pytest.mark.parametrize(
        "raw, train_cfg, encoder_cfg",
        [
            ({"encoder": ENCODER}, {}, ENCODER),
            ({"train": {"epochs": 1}}, {"epochs": 1}, None),
            ({"train": {"epochs": 1}, "encoder": ENCODER}, {"epochs": 1}, ENCODER),
            ({"epochs": 1}, {"epochs": 1}, None),
        ],
    )
    def test_sections_or_a_bare_train_config(
        self, raw, train_cfg, encoder_cfg, eval_rig, tmp_path, monkeypatch
    ):
        seen = {}

        def fake_train(dataset, cfg, model=None, **kwargs):
            seen.update(cfg=cfg, model=model)
            return TrainResult(model=model)

        monkeypatch.setattr(cli, "SegmentDataset", lambda tracks: None)
        monkeypatch.setattr(cli, "train", fake_train)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        argv = ["train", "--audio", str(eval_rig.wav_dir), "-c", str(path), "-o", "m.ckpt"]
        assert main(argv) == 0
        assert seen["cfg"] == TrainConfig(**train_cfg)
        if encoder_cfg is None:
            assert seen["model"] is None
        else:
            assert seen["model"].config == EncoderConfig.from_dict(encoder_cfg)


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out


class TestPipeline:
    def test_make_corpus_then_extract_peaks(self, tmp_path, capsys):
        wavs = tmp_path / "wavs"
        assert main(["make-corpus", "--out", str(wavs), "--n-tracks", "2", "--seconds", "6"]) == 0
        assert main(["extract-peaks", str(wavs), "-o", str(tmp_path / "peaks.bin")]) == 0
        entries = read_peaks(tmp_path / "peaks.bin")
        names = {e.track_id for e in entries}
        assert names == {"track000", "track001"}
        # 6 s of audio on a half-second grid leaves 11 full one-second windows
        assert sum(e.track_id == "track000" for e in entries) == 11
        assert entries[0].points.shape == (256, 3)

    def test_train_and_build_db(self, tmp_path, eval_rig):
        cfg = {
            "train": {"pairs_per_batch": 2, "epochs": 1, "steps_per_epoch": 2, "seed": 3},
            "encoder": {
                "stage1": {
                    "n_anchors": 8,
                    "branches": [
                        {"group_size": 2, "radius": 0.3, "mlp": [4, 4]},
                        {"group_size": 3, "radius": 0.5, "mlp": [4, 8]},
                    ],
                },
                "stage2": {
                    "n_anchors": 4,
                    "branches": [
                        {"group_size": 2, "radius": 0.4, "mlp": [8, 8]},
                        {"group_size": 3, "radius": 0.6, "mlp": [8, 8]},
                    ],
                },
                "global_mlp": [8, 6],
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        model_path = tmp_path / "model.ckpt"
        db_path = tmp_path / "fp.db"
        assert (
            main(["train", "--audio", str(eval_rig.wav_dir), "-c", str(cfg_path), "-o", str(model_path)])
            == 0
        )
        assert model_path.exists()
        assert (
            main(
                [
                    "build-db",
                    "--model",
                    str(model_path),
                    "--audio",
                    str(eval_rig.wav_dir),
                    "-o",
                    str(db_path),
                ]
            )
            == 0
        )
        db = FingerprintDB.load(db_path)
        assert len(db.track_ids) == 4
        assert db.meta["checkpoint_id"] == checkpoint_id(model_path)

    def test_query_finds_source_track(self, eval_rig, capsys):
        code = main(
            [
                "query",
                "--db",
                str(eval_rig.db_path),
                "--model",
                str(eval_rig.model_path),
                "--audio",
                str(eval_rig.wav_dir / "track002.wav"),
                "--len",
                "3",
                "--offset",
                "2.0",
            ]
        )
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("1\ttrack002")
        assert "offset=2.0s" in first

    def test_one_second_query_at_any_factor(self, eval_rig, capsys):
        # the rounded source window and stretch leave this excerpt a sample
        # short of one segment unless the cutter pads it
        argv = [
            "query",
            "--db",
            str(eval_rig.db_path),
            "--model",
            str(eval_rig.model_path),
            "--audio",
            str(eval_rig.wav_dir / "track001.wav"),
            "--len",
            "1",
            "--factor",
            "0.66292",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("1\t")

    def test_ivfpq_index_roundtrip(self, eval_rig, tmp_path, capsys):
        db_path = tmp_path / "fp.db"
        shutil.copy(eval_rig.db_path, db_path)
        assert (
            main(
                ["build-index", "--db", str(db_path), "--ivfpq", "--m", "16", "--n-probe", "8"]
            )
            == 0
        )
        stored = FingerprintDB.load(db_path)
        assert stored.meta["ivfpq"]["m"] == 16
        capsys.readouterr()
        code = main(
            [
                "query",
                "--db",
                str(db_path),
                "--model",
                str(eval_rig.model_path),
                "--audio",
                str(eval_rig.wav_dir / "track001.wav"),
                "--len",
                "3",
                "--offset",
                "1.5",
                "--ivfpq",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("1\ttrack001")

    def test_evaluate_writes_reports(self, eval_rig, tmp_path):
        cfg_path = tmp_path / "ecfg.json"
        cfg_path.write_text(
            json.dumps({"factors": [1.0], "lengths": [2.0], "n_queries": 2, "seed": 1})
        )
        out = tmp_path / "report.jsonl"
        code = main(
            [
                "evaluate",
                "-c",
                str(cfg_path),
                "--audio",
                str(eval_rig.wav_dir),
                "--db",
                str(eval_rig.db_path),
                "--model",
                str(eval_rig.model_path),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert len(lines) == 2
        assert (tmp_path / "report.csv").exists()


class TestQuadCli:
    def test_build_and_query(self, eval_rig, tmp_path, capsys):
        db_path = tmp_path / "quad.db"
        assert main(["quadfp", "build", "--audio", str(eval_rig.wav_dir), "-o", str(db_path)]) == 0
        capsys.readouterr()
        code = main(
            [
                "quadfp",
                "query",
                "--db",
                str(db_path),
                "--audio",
                str(eval_rig.wav_dir / "track003.wav"),
                "--len",
                "4",
                "--offset",
                "1.0",
                "--factor",
                "1.2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("1\ttrack003")

    def test_evaluate(self, eval_rig, tmp_path):
        cfg_path = tmp_path / "ecfg.json"
        cfg_path.write_text(
            json.dumps({"factors": [1.0], "lengths": [3.0], "n_queries": 2, "seed": 1})
        )
        out = tmp_path / "quad_report.jsonl"
        code = main(
            [
                "quadfp",
                "evaluate",
                "-c",
                str(cfg_path),
                "--audio",
                str(eval_rig.wav_dir),
                "--db",
                str(eval_rig.quad_path),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        meta = json.loads(out.read_text().splitlines()[0])
        assert meta["system"] == "quadfp"

    def test_evaluate_equals_evaluate_with_the_quadfp_system(self, eval_rig, tmp_path):
        grid = {"factors": [1.0, 1.2], "lengths": [3.0], "n_queries": 2, "seed": 1}
        (tmp_path / "q.json").write_text(json.dumps(grid))
        (tmp_path / "e.json").write_text(json.dumps({**grid, "system": "quadfp"}))
        audio = ["--audio", str(eval_rig.wav_dir)]
        quad = str(eval_rig.quad_path)
        q_out, e_out = tmp_path / "q.jsonl", tmp_path / "e.jsonl"
        q_args = ["quadfp", "evaluate", "-c", str(tmp_path / "q.json"), "--db", quad]
        e_args = ["evaluate", "-c", str(tmp_path / "e.json"), "--quad-db", quad]
        assert main(q_args + audio + ["-o", str(q_out)]) == 0
        assert main(e_args + audio + ["-o", str(e_out)]) == 0
        assert q_out.read_bytes() == e_out.read_bytes()
        assert q_out.with_suffix(".csv").read_bytes() == e_out.with_suffix(".csv").read_bytes()
