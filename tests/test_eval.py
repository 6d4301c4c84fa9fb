"""Evaluation sweeps: config handling, the HR@1 metric, query cutting,
sweep determinism, and report files."""
from __future__ import annotations

import json

import numpy as np
import pytest

from peaknetfp import container
from peaknetfp.cli import main
from peaknetfp.corpus import make_track
from peaknetfp.errors import ConfigError, DataError, DecodeError
from peaknetfp.index import FingerprintDB, IVFPQIndex
from peaknetfp.evaluate import (
    DEFAULT_FACTORS,
    DEFAULT_LENGTHS,
    EvalConfig,
    cut_query,
    run_sweep,
)
from peaknetfp.quadfp import QUAD_KIND, QuadDB
from peaknetfp.signal.audio import STRETCH_MAX, STRETCH_MIN, write_wav
from peaknetfp.signal.peaks import CLOUD_SIZE, clip_clouds


class TestEvalConfig:
    def test_default_grid_shape(self):
        assert len(DEFAULT_FACTORS) == 14
        assert len(DEFAULT_LENGTHS) == 5
        assert all(STRETCH_MIN <= f <= STRETCH_MAX for f in DEFAULT_FACTORS)
        assert any(f < 1.0 for f in DEFAULT_FACTORS)
        assert any(f > 1.0 for f in DEFAULT_FACTORS)
        assert all(l >= 2.0 for l in DEFAULT_LENGTHS)

    def test_roundtrip(self):
        # both ends of the stretch range are accepted
        cfg = EvalConfig(
            factors=(STRETCH_MIN, 1.0, STRETCH_MAX), lengths=(2, 5), n_queries=3, seed=9
        )
        again = EvalConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_hash_is_stable_and_sensitive(self):
        a = EvalConfig(seed=1)
        assert a.config_hash() == EvalConfig(seed=1).config_hash()
        assert len(a.config_hash()) == 16
        int(a.config_hash(), 16)
        assert a.config_hash() != EvalConfig(seed=2).config_hash()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"factors": (0.4,)},
            {"factors": (2.5,)},
            {"factors": ()},
            {"lengths": (1.0,)},
            {"lengths": ()},
            {"n_queries": 0},
            {"system": "shazam"},
            {"backend": "annoy"},
            {"seed": -1},
            {"factors": (float(np.nextafter(STRETCH_MIN, 0.0)),)},
            {"factors": (float(np.nextafter(STRETCH_MAX, 3.0)),)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            EvalConfig(**kwargs)

    @pytest.mark.parametrize("length", ["NaN", "Infinity"])
    def test_non_finite_length_refused(self, length, tmp_path):
        # Python's JSON reader takes both, so a -c file can hold them
        text = f'{{"factors": [1.0], "lengths": [{length}]}}'
        with pytest.raises(ConfigError, match="finite"):
            EvalConfig.from_dict(json.loads(text))
        path = tmp_path / "ecfg.json"
        path.write_text(text)
        args = ["evaluate", "-c", str(path), "--audio", str(tmp_path), "-o", str(tmp_path / "r")]
        assert main(args) == 2

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            EvalConfig.from_dict({"factors": [1.0], "mystery": 3})
        with pytest.raises(ConfigError, match="'k'"):  # a retired field
            EvalConfig.from_dict({"k": 20})


class TestCutQuery:
    def test_unity_factor_is_bit_exact_copy(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=40000).astype(np.float32)
        out = cut_query(samples, 8000, start_s=1.5, length_s=2.0, factor=1.0)
        assert np.array_equal(out, samples[12000:28000])
        out[0] = 99.0
        assert samples[12000] != 99.0  # a copy, not a view

    @pytest.mark.parametrize("factor,length", [(1.25, 4.0), (0.5, 2.0), (2.0, 3.0)])
    def test_source_window_scales_with_factor(self, factor, length):
        # a ramp shows which source samples the excerpt covers
        samples = np.arange(80000, dtype=np.float32) / 80000
        out = cut_query(samples, 8000, 0.0, length, factor)
        assert out.size == round(length * 8000)
        assert out[-1] == pytest.approx(length * factor / 10, abs=0.01)

    def test_one_second_excerpt_is_one_segment_at_any_factor(self):
        # the source window and the stretch both round: at this factor they
        # leave the stretched excerpt one sample short of a segment
        samples = np.random.default_rng(5).normal(0, 0.2, 16000).astype(np.float32)
        out = cut_query(samples, 8000, 0.0, 1.0, 0.66292)
        assert out.size == 8000
        assert clip_clouds(out).shape == (1, CLOUD_SIZE, 3)

    def test_other_rate_rejected(self):
        # the one front end reads 8 kHz
        samples = np.zeros(5 * 16000, dtype=np.float32)
        with pytest.raises(DataError, match="16000 Hz"):
            cut_query(samples, 16000, 0.5, 2.0, 1.25)

    def test_window_past_the_end_rejected(self):
        samples = np.zeros(16000, dtype=np.float32)
        with pytest.raises(DataError):
            cut_query(samples, 8000, start_s=1.5, length_s=2.0, factor=1.0)
        with pytest.raises(DataError):
            cut_query(samples, 8000, start_s=-0.5, length_s=1.0, factor=1.0)
        with pytest.raises(DataError):
            cut_query(samples, 8000, start_s=0.0, length_s=1.5, factor=2.0)


class TestRunSweep:
    def test_control_factor_is_perfect(self, eval_rig):
        # An unstretched excerpt cut on the half-second grid consists of
        # exactly the segments that were fingerprinted into the database, so
        # the source track scores one full inner product per segment and
        # must rank first.
        cfg = EvalConfig(factors=(1.0,), lengths=(2.0, 3.0), n_queries=6, seed=4)
        report = run_sweep(cfg, eval_rig.tracks, model=eval_rig.model, db=eval_rig.db)
        for cell in report.cells:
            assert cell["hr_at_1"] == 1.0

    def test_reports_are_deterministic(self, eval_rig, tmp_path):
        cfg = EvalConfig(factors=(1.0, 1.2), lengths=(2.0,), n_queries=4, seed=7)
        paths = []
        for run in ("one", "two"):
            report = run_sweep(
                cfg, eval_rig.tracks, model=eval_rig.model, db=eval_rig.db
            )
            report.write_jsonl(tmp_path / f"{run}.jsonl")
            report.write_csv(tmp_path / f"{run}.csv")
            paths.append(run)
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_grid_is_fully_populated(self, eval_rig):
        cfg = EvalConfig(factors=(0.9, 1.0, 1.1), lengths=(2.0, 3.0), n_queries=2, seed=0)
        report = run_sweep(cfg, eval_rig.tracks, model=eval_rig.model, db=eval_rig.db)
        assert [(c["factor"], c["length"]) for c in report.cells] == [
            (f, l) for f in cfg.factors for l in cfg.lengths
        ]
        for cell in report.cells:
            assert cell["n_queries"] == 2
            assert 0.0 <= cell["hr_at_1"] <= 1.0
            assert cell["hits"] == round(cell["hr_at_1"] * 2)
        assert report.metadata["config_hash"] == cfg.config_hash()
        assert report.metadata["n_tracks"] == len(eval_rig.tracks)
        assert report.metadata["checkpoint_id"] == eval_rig.db.meta["checkpoint_id"]

    def test_quadfp_sweep(self, eval_rig):
        cfg = EvalConfig(
            system="quadfp", factors=(1.0, 1.25), lengths=(3.0,), n_queries=6, seed=2
        )
        report = run_sweep(cfg, eval_rig.tracks, quad_db=eval_rig.quad_db)
        assert [(c["factor"], c["length"]) for c in report.cells] == [(1.0, 3.0), (1.25, 3.0)]
        assert report.cells[0]["hr_at_1"] >= 0.8
        assert "db_rows" not in report.metadata

    def test_ivfpq_backend_control(self, eval_rig):
        cfg = EvalConfig(
            factors=(1.0,), lengths=(2.0,), n_queries=6, seed=4, backend="ivfpq"
        )
        report = run_sweep(cfg, eval_rig.tracks, model=eval_rig.model, db=eval_rig.db)
        assert [c["hr_at_1"] for c in report.cells] == [1.0]
        assert report.metadata["backend"] == "ivfpq"

    def test_ivfpq_backend_builds_with_the_defaults(self, eval_rig, monkeypatch):
        db = FingerprintDB.load(eval_rig.db_path)
        db.meta["ivfpq"] = {"n_list": 4, "n_probe": 2, "m": 4, "seed": 5}  # stale: ignored
        built = []
        real_build = IVFPQIndex.build.__func__

        def spy(cls, db, **params):
            built.append(params)
            return real_build(cls, db, **params)

        monkeypatch.setattr(IVFPQIndex, "build", classmethod(spy))
        cfg = EvalConfig(
            factors=(1.0,), lengths=(2.0,), n_queries=2, seed=4, backend="ivfpq"
        )
        run_sweep(cfg, eval_rig.tracks, model=eval_rig.model, db=db)
        assert built == [{}]

    def test_missing_artifacts_rejected(self, eval_rig):
        with pytest.raises(ConfigError):
            run_sweep(EvalConfig(), eval_rig.tracks, model=eval_rig.model)
        with pytest.raises(ConfigError):
            run_sweep(EvalConfig(system="quadfp"), eval_rig.tracks)

    def test_quad_database_at_another_rate_rejected(self, tmp_path):
        # queries are read at 8 kHz; a file whose quads were hashed at another
        # rate cannot be matched against them and does not load
        samples = make_track(0, 4.0)
        quad_db = QuadDB()
        quad_db.add_track("a", samples)
        path = tmp_path / "quad.db"
        quad_db.save(path)
        arrays, meta = container.read(path, QUAD_KIND)
        meta["spectrogram"]["sample_rate"] = 16000
        container.write(path, QUAD_KIND, arrays, meta)  # a valid container
        with pytest.raises(DecodeError, match="16000"):
            QuadDB.load(path)
        wav = tmp_path / "a.wav"
        write_wav(wav, samples)
        args = ["quadfp", "query", "--db", str(path), "--audio", str(wav), "--len", "3"]
        assert main(args) == 2

    def test_track_missing_from_database_rejected(self, eval_rig):
        stranger = [("nowhere", np.zeros(80000, dtype=np.float32))]
        with pytest.raises(DataError):
            run_sweep(
                EvalConfig(),
                eval_rig.tracks + stranger,
                model=eval_rig.model,
                db=eval_rig.db,
            )


@pytest.fixture(scope="module")
def written(eval_rig, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    cfg = EvalConfig(factors=(1.0, 1.2), lengths=(2.0,), n_queries=3, seed=5)
    report = run_sweep(cfg, eval_rig.tracks, model=eval_rig.model, db=eval_rig.db)
    report.write_jsonl(out / "r.jsonl")
    report.write_csv(out / "r.csv")
    return out, cfg, report


class TestReportFiles:
    def test_jsonl_layout(self, written):
        out, cfg, report = written
        lines = [json.loads(l) for l in (out / "r.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["config"] == cfg.to_dict()
        assert lines[0]["config_hash"] == cfg.config_hash()
        cells = lines[1:]
        assert len(cells) == len(report.cells)
        for line, cell in zip(cells, report.cells):
            assert line["type"] == "cell"
            assert {k: v for k, v in line.items() if k != "type"} == cell

    def test_csv_layout(self, written):
        out, cfg, report = written
        rows = (out / "r.csv").read_text().splitlines()
        assert rows[0] == "system,factor,length,n_queries,hits,hr_at_1"
        assert len(rows) == 1 + len(report.cells)
        first = rows[1].split(",")
        assert first[0] == "peaknetfp"
        assert float(first[1]) == 1.0
