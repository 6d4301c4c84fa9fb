"""Command-line surface: exit codes, printed results, and file round-trips."""
from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from conftest import small_encoder_config

from peaknetfp import cli, container
from peaknetfp.cli import main
from peaknetfp.encoder import CHECKPOINT, DEFAULT_CONFIG, EncoderConfig, PeakEncoder, checkpoint_id
from peaknetfp.errors import TrainingDiverged
from peaknetfp.index import FingerprintDB
from peaknetfp.quadfp import QUAD_KIND, QuadDB
from peaknetfp.signal.audio import load_audio, stretch_audio
from peaknetfp.signal.peaks import read_peaks
from peaknetfp.training import SegmentDataset, TrainConfig, TrainResult, train


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

    def test_diverged_training_exits_2_naming_the_dump(
        self, eval_rig, tmp_path, monkeypatch, capsys
    ):
        dump = tmp_path / "m.nan-dump.ckpt"

        def diverge(*args, **kwargs):
            raise TrainingDiverged(f"non-finite loss at epoch 0 step 1; state dumped to {dump}")

        monkeypatch.setattr(cli, "SegmentDataset", lambda tracks: None)
        monkeypatch.setattr(cli, "train", diverge)
        argv = ["train", "--audio", str(eval_rig.wav_dir), "-o", str(tmp_path / "m.ckpt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(dump) in err

    def test_refused_corpus_writes_nothing(self, tmp_path):
        assert main(["make-corpus", "--out", str(tmp_path / "c"), "--seed", "-1"]) == 2
        assert not (tmp_path / "c").exists()

    def test_evaluate_without_artifacts_is_config_error(self, eval_rig, tmp_path):
        code = main(
            ["evaluate", "--audio", str(eval_rig.wav_dir), "-o", str(tmp_path / "r.jsonl")]
        )
        assert code == 2


class TestCut:
    @pytest.mark.parametrize("command", ["query", "quadfp"])
    @pytest.mark.parametrize("offset, length", [(0.0, None), (1.5, None), (1.5, 2.0)])
    def test_matched_excerpt(self, eval_rig, monkeypatch, command, offset, length):
        # the samples each command hands to its matcher: --offset is honoured
        # with or without --len, and without it the excerpt runs to the end
        seen = []
        real_clouds, real_match = cli.clip_clouds, QuadDB.match
        monkeypatch.setattr(cli, "clip_clouds", lambda x: seen.append(x) or real_clouds(x))
        monkeypatch.setattr(QuadDB, "match", lambda db, x: seen.append(x) or real_match(db, x))
        wav = eval_rig.wav_dir / "track001.wav"
        if command == "query":
            argv = ["query", "--db", str(eval_rig.db_path), "--model", str(eval_rig.model_path)]
        else:
            argv = ["quadfp", "query", "--db", str(eval_rig.quad_path)]
        argv += ["--audio", str(wav), "--offset", str(offset), "--factor", "1.25"]
        if length is not None:
            argv += ["--len", str(length)]
        assert main(argv) == 0
        samples = load_audio(wav)
        start = int(offset * 8000)
        stop = samples.size if length is None else start + int(length * 1.25 * 8000)
        want = stretch_audio(samples[start:stop], 1.25)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], want)
        if length is not None:
            assert want.size == length * 8000


def _quad_query(rig, tmp_path, extra, db=None):
    db = db or rig.quad_path
    return ["quadfp", "query", "--db", str(db), "--audio", str(rig.wav_dir / "track000.wav"), *extra]


def _quad_db_with_epsilon(rig, tmp_path, epsilon):
    arrays, meta = container.read(rig.quad_path, QUAD_KIND)
    meta["epsilon"] = epsilon
    path = tmp_path / "bad.quad"
    container.write(path, QUAD_KIND, arrays, meta)  # a valid container
    return _quad_query(rig, tmp_path, [], db=path)


def _checkpoint_with_nan(rig, tmp_path, key):
    arrays, meta = container.read(rig.model_path, CHECKPOINT)
    arrays[key] = arrays[key].copy()
    arrays[key].flat[0] = np.nan
    path = tmp_path / "bad.ckpt"
    container.write(path, CHECKPOINT, arrays, meta)  # a valid container
    if key.startswith("opt."):
        return ["train", "--audio", str(rig.wav_dir), "--resume", str(path),
                "-o", str(tmp_path / "out.ckpt")]
    return ["build-db", "--model", str(path), "--audio", str(rig.wav_dir),
            "-o", str(tmp_path / "fp.db")]


def _config_with(rig, tmp_path, raw):
    cfg = tmp_path / "cfg.json"
    if "train" in raw:
        cfg.write_text(json.dumps(raw))
        return ["train", "--audio", str(rig.wav_dir), "-c", str(cfg),
                "-o", str(tmp_path / "m.ckpt")]
    cfg.write_text(json.dumps({"system": "quadfp", **raw} if isinstance(raw, dict) else raw))
    return ["evaluate", "-c", str(cfg), "--audio", str(rig.wav_dir),
            "--quad-db", str(rig.quad_path), "-o", str(tmp_path / "r.jsonl")]


def _make_corpus(rig, tmp_path, flags):
    return ["make-corpus", "--out", str(tmp_path / "corpus"), "--n-tracks", "1", *flags]


def _query(rig, tmp_path, extra, db=None, model=None):
    return ["query", "--db", str(db or rig.db_path), "--model", str(model or rig.model_path),
            "--audio", str(rig.wav_dir / "track000.wav"), "--len", "3", *extra]


def _other_model(rig, tmp_path, key):
    arrays, meta = container.read(rig.model_path, CHECKPOINT)
    arrays[key] = arrays[key] * np.float32(0.5)
    path = tmp_path / "other.ckpt"
    container.write(path, CHECKPOINT, arrays, meta)  # a valid checkpoint of another model
    return _query(rig, tmp_path, [], model=path)


BAD_INPUTS = {  # case -> (argv builder, bad value, text the error line names)
    "epsilon-nan": (_quad_db_with_epsilon, float("nan"), "epsilon"),
    "epsilon-true": (_quad_db_with_epsilon, True, "epsilon"),
    "epsilon-1e9": (_quad_db_with_epsilon, 1e9, "epsilon"),
    "nan-weight": (_checkpoint_with_nan, "p/g.l0.w", "non-finite"),
    "nan-running-mean": (_checkpoint_with_nan, "r/g.l0.rmean", "non-finite"),
    "nan-adam-moment": (_checkpoint_with_nan, "opt.v/g.l0.w", "non-finite"),
    "int-given-2.5": (_config_with, {"n_queries": 2.5}, "n_queries"),
    "int-given-string": (_config_with, {"n_queries": "3"}, "n_queries"),
    "int-given-true": (_config_with, {"n_queries": True}, "n_queries"),
    "train-int-given-2.5": (_config_with, {"train": {"pairs_per_batch": 2.5}}, "pairs_per_batch"),
    "offset-nan": (_quad_query, ["--offset", "nan"], "finite"),
    "len-inf": (_quad_query, ["--len", "inf"], "finite"),
    "train-seed--1": (_config_with, {"train": {"seed": -1}}, "seed"),
    "eval-seed--1": (_config_with, {"seed": -1}, "seed"),
    "eval-k-retired": (_config_with, {"k": 20}, "field 'k'"),
    "query-top--1": (_query, ["--top", "-1"], "--top"),
    "query-top-0": (_query, ["--top", "0"], "--top"),
    "query-other-model": (_other_model, "p/g.l0.w", "did not build the database"),
    "quad-top--1": (_quad_query, ["--top", "-1"], "--top"),
    "quad-top-0": (_quad_query, ["--top", "0"], "--top"),
    "corpus-seed--1": (_make_corpus, ["--seed", "-1"], "seed"),
    "corpus-seconds--5": (_make_corpus, ["--seconds", "-5"], "seconds"),
    "corpus-seconds-0": (_make_corpus, ["--seconds", "0"], "seconds"),
    "corpus-n-tracks-0": (_make_corpus, ["--n-tracks", "0"], "n_tracks"),
    "corpus-n-tracks--1": (_make_corpus, ["--n-tracks", "-1"], "n_tracks"),
    "train-config-list": (_config_with, ["train"], "JSON object"),
    "eval-config-list": (_config_with, [], "JSON object"),
}


class TestBadInputs:
    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_exits_2_with_an_error_line(self, eval_rig, tmp_path, capsys, case):
        make_argv, value, names = BAD_INPUTS[case]
        assert main(make_argv(eval_rig, tmp_path, value)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err
        if make_argv is _make_corpus:  # refused before any write
            assert not (tmp_path / "corpus").exists()


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


class TestTrainResume:
    def test_resume_without_config_equals_the_uninterrupted_run(self, eval_rig, tmp_path, capsys):
        cfg = TrainConfig(pairs_per_batch=2, epochs=3, steps_per_epoch=2, seed=4)
        dataset = SegmentDataset(eval_rig.tracks)
        full = train(dataset, cfg, model=PeakEncoder(small_encoder_config(), seed=1))
        half, rest = tmp_path / "half.ckpt", tmp_path / "rest.ckpt"
        train(dataset, cfg, model=PeakEncoder(small_encoder_config(), seed=1), out_path=half,
              stop_after=1)
        argv = ["train", "--audio", str(eval_rig.wav_dir), "--resume", str(half), "-o", str(rest)]
        assert main(argv) == 0
        assert "trained 4 steps" in capsys.readouterr().out
        arrays, meta = container.read(rest, CHECKPOINT)
        assert meta["train_config"] == cfg.to_dict() and meta["epochs_done"] == 3
        for name, p in full.model.params.items():
            assert arrays[f"p/{name}"].tobytes() == p.data.tobytes(), name

        other = tmp_path / "other.json"
        other.write_text(json.dumps({"train": {**cfg.to_dict(), "epochs": 4}}))
        assert main([*argv, "-c", str(other)]) == 2
        assert "epochs 4 (checkpoint: 3)" in capsys.readouterr().err

    def test_resume_checks_the_files_encoder_section(self, eval_rig, tmp_path, capsys):
        cfg = TrainConfig(pairs_per_batch=2, epochs=2, steps_per_epoch=1, seed=4)
        half = tmp_path / "half.ckpt"
        train(SegmentDataset(eval_rig.tracks), cfg, model=PeakEncoder(small_encoder_config(), seed=1),
              out_path=half, stop_after=1)
        argv = ["train", "--audio", str(eval_rig.wav_dir), "--resume", str(half),
                "-o", str(tmp_path / "rest.ckpt"), "-c", str(tmp_path / "cfg.json")]
        encoder = small_encoder_config().to_dict()
        for raw, code in (
            ({"train": cfg.to_dict(), "encoder": encoder}, 0),
            ({"encoder": encoder}, 0),  # no train section: the resume keeps the stored one
            ({"train": cfg.to_dict(), "encoder": {**encoder, "global_mlp": [32, 18]}}, 2),
        ):
            (tmp_path / "cfg.json").write_text(json.dumps(raw))
            assert main(argv) == code, raw
        out, err = capsys.readouterr()
        assert out.count("trained 1 steps") == 2
        assert "encoder config; differs in global_mlp (32, 18) (checkpoint: (32, 16))" in err
        assert "stage1" not in err


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

    def test_query_prints_the_stretch_estimate(self, eval_rig, capsys):
        argv = [
            "query", "--db", str(eval_rig.db_path), "--model", str(eval_rig.model_path),
            "--audio", str(eval_rig.wav_dir / "track002.wav"), "--len", "3", "--offset", "2.0",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[0]
        # an excerpt at its own tempo aligns along slope 1; the slopes that
        # put its segments on the same rows tie with it and lose to it
        assert first.startswith("1\ttrack002\toffset=2.0s\t")
        assert first.endswith("\tstretch=1.000")

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

    @pytest.mark.parametrize(
        "stale", [{"n_list": 4, "n_probe": 2, "m": 4, "seed": 5}, {"bogus": 1}, {"n_probe": 0}]
    )
    def test_stale_stored_ivfpq_entry_is_ignored(self, eval_rig, tmp_path, capsys, stale):
        # older versions stored IVFPQ parameters in the database's info
        assert main(_query(eval_rig, tmp_path, [])) == 0
        want = capsys.readouterr().out
        db = FingerprintDB.load(eval_rig.db_path)
        db.meta["ivfpq"] = stale
        db_path = tmp_path / "fp.db"
        db.save(db_path)
        assert main(_query(eval_rig, tmp_path, [], db=db_path)) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("build-index", ["--ivfpq"]),
            ("build-index", ["--n-list", "4"]),
            ("build-index", ["--n-probe", "2"]),
            ("build-index", ["--m", "16"]),
            ("build-index", ["--seed", "0"]),
            ("query", ["-k", "20"]),
        ],
    )
    def test_retired_retrieval_flags_are_usage_errors(self, eval_rig, tmp_path, command, flags):
        argv = ["build-index", "--db", str(eval_rig.db_path)]
        if command == "query":
            argv = _query(eval_rig, tmp_path, [])
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 1

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
            json.dumps(
                {"factors": [1.0], "lengths": [3.0], "n_queries": 2, "seed": 1, "system": "quadfp"}
            )
        )
        out = tmp_path / "quad_report.jsonl"
        code = main(
            [
                "evaluate",
                "-c",
                str(cfg_path),
                "--audio",
                str(eval_rig.wav_dir),
                "--quad-db",
                str(eval_rig.quad_path),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        meta = json.loads(out.read_text().splitlines()[0])
        assert meta["system"] == "quadfp"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines() -> list[str]:
    """Every `peaknetfp ...` line in the README's fenced blocks, continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = (line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("peaknetfp ")]


class TestCommandLines:
    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest"],
            ["quadfp", "evaluate", "--audio", "a/", "--db", "q.db", "-o", "r.jsonl"],
            ["build-index", "--db", "fp.db"],
            ["query", "--db", "fp.db", "--model", "m.ckpt", "--audio", "q.wav", "--ivfpq"],
        ],
    )
    def test_retired_commands_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    @staticmethod
    def _flag_help(argv, capsys) -> dict[str, list[str]]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        entries, flag = {}, None
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                flag = line.split()[0]
                entries[flag] = [line]
            elif flag and line.startswith("   "):
                entries[flag].append(line)
            else:
                flag = None
        return entries

    def test_query_commands_share_the_excerpt_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        query = self._flag_help(["query"], capsys)
        quad = self._flag_help(["quadfp", "query"], capsys)
        shared = ["--audio", "--len", "--offset", "--factor", "--top"]
        assert [query[f] for f in shared] == [quad[f] for f in shared]
        assert set(query) - set(quad) == {"--model"}

    def test_readme_command_lines_parse(self):
        lines = _readme_command_lines()
        assert len(lines) >= 8
        unparsed = []
        for line in lines:
            try:
                cli.build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                unparsed.append(line)
        assert unparsed == []
