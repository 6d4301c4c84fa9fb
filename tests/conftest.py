"""Shared fixtures: a small trained retrieval rig and the full-size desk.

``eval_rig`` is deliberately tiny (four 12-second tracks, a 16-d encoder,
forty training steps) so evaluation and command-line tests stay fast.
``desk`` is the full-size setup — the 50-track corpus and the default
encoder — and is only built when the acceptance tests request it.
"""
from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from peaknetfp.corpus import make_corpus, write_corpus
from peaknetfp.encoder import (
    BranchSpec,
    EncoderConfig,
    PeakEncoder,
    StageSpec,
    checkpoint_id,
)
from peaknetfp.index import FingerprintDB
from peaknetfp.quadfp import QuadDB
from peaknetfp.signal.audio import load_audio
from peaknetfp.signal.peaks import clip_clouds
from peaknetfp.training import SegmentDataset, TrainConfig, train


def small_encoder_config() -> EncoderConfig:
    """16-d embeddings; enough capacity to separate a handful of tracks."""
    return EncoderConfig(
        stage1=StageSpec(
            n_anchors=16,
            branches=(BranchSpec(3, 0.3, (8, 8)), BranchSpec(4, 0.5, (8, 16))),
        ),
        stage2=StageSpec(
            n_anchors=8,
            branches=(BranchSpec(3, 0.4, (16, 16)), BranchSpec(4, 0.6, (16, 16))),
        ),
        global_mlp=(32, 16),
    )


RIG_TRAIN_CONFIG = TrainConfig(pairs_per_batch=4, epochs=2, steps_per_epoch=20, seed=0)

# the defaults, so the command line trains what the acceptance tests check
DESK_TRAIN_CONFIG = TrainConfig()


def build_fingerprint_db(model: PeakEncoder, tracks, model_path=None) -> FingerprintDB:
    meta = {"checkpoint_id": checkpoint_id(model_path)} if model_path else None
    db = FingerprintDB(meta=meta)
    for track_id, samples in tracks:
        db.add_track(track_id, model.fingerprints(clip_clouds(samples)))
    return db


def build_quad_db(tracks) -> QuadDB:
    qdb = QuadDB()
    for track_id, samples in tracks:
        qdb.add_track(track_id, samples)
    return qdb


@pytest.fixture(scope="session")
def eval_rig(tmp_path_factory):
    """Small corpus + trained model + both databases, in memory and on disk.

    Tracks are read back from the written wav files so the in-memory arrays
    match what command-line runs will see (wav storage is 16-bit).
    """
    root = tmp_path_factory.mktemp("rig")
    wav_dir = root / "wavs"
    paths = write_corpus(wav_dir, n_tracks=4, seconds=12.0, seed=11)
    tracks = [(p.stem, load_audio(p)) for p in paths]

    model_path = root / "model.ckpt"
    result = train(
        SegmentDataset(tracks),
        RIG_TRAIN_CONFIG,
        model=PeakEncoder(small_encoder_config(), seed=0),
        out_path=model_path,
        log_path=root / "train.log.jsonl",
    )

    db = build_fingerprint_db(result.model, tracks, model_path)
    db_path = root / "fp.db"
    db.save(db_path)

    quad_db = build_quad_db(tracks)
    quad_path = root / "quad.db"
    quad_db.save(quad_path)

    return SimpleNamespace(
        root=root,
        wav_dir=wav_dir,
        tracks=tracks,
        model=result.model,
        model_path=model_path,
        db=db,
        db_path=db_path,
        quad_db=quad_db,
        quad_path=quad_path,
        train_config=RIG_TRAIN_CONFIG,
    )


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Full-size rig: 50-track corpus, default encoder, both databases."""
    root = tmp_path_factory.mktemp("desk")
    t0 = time.monotonic()

    tracks = make_corpus()
    model_path = root / "model.ckpt"
    result = train(
        SegmentDataset(tracks),
        DESK_TRAIN_CONFIG,
        out_path=model_path,
        log_path=root / "train.log.jsonl",
    )

    db = build_fingerprint_db(result.model, tracks, model_path)
    db.save(root / "fp.db")
    quad_db = build_quad_db(tracks)
    quad_db.save(root / "quad.db")

    build_seconds = time.monotonic() - t0
    return SimpleNamespace(
        root=root,
        tracks=tracks,
        model=result.model,
        model_path=model_path,
        db=db,
        quad_db=quad_db,
        build_seconds=build_seconds,
        train_records=result.records,
    )


def pytest_collection_modifyitems(items):
    """Run the tests that need ``desk`` after every other test.

    Building the desk trains the full-size encoder, most of the suite's wall
    time; running it last reports every other result first, and a run cut
    short by a time limit loses only the desk tests.
    """
    items.sort(key=lambda item: "desk" in getattr(item, "fixturenames", ()))
