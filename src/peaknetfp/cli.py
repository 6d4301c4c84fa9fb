"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/config error or diverged
training, 3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .corpus import write_corpus
from .encoder import EncoderConfig, PeakEncoder, checkpoint_id
from .errors import ConfigError, ContractError, DataError, DecodeError, TrainingDiverged
from .evaluate import EvalConfig, cut_query, run_sweep
from .index import FingerprintDB, IVFPQIndex, sequence_match
from .quadfp import QuadDB
from .signal.audio import DEFAULT_SAMPLE_RATE, SEGMENT_HOP_SECONDS, load_audio
from .signal.peaks import PeakEntry, clip_clouds, write_peaks
from .training import SegmentDataset, TrainConfig, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _wav_paths(audio_dir: str) -> list[Path]:
    root = Path(audio_dir)
    if root.is_file():
        return [root]
    if not root.is_dir():
        raise DataError(f"no such audio path: {audio_dir}")
    paths = sorted(root.glob("*.wav"))
    if not paths:
        raise DataError(f"no .wav files under {audio_dir}")
    return paths


def _load_tracks(audio_dir: str) -> list[tuple[str, np.ndarray]]:
    return [(p.stem, load_audio(p)) for p in _wav_paths(audio_dir)]


def _read_json(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataError(f"no such config file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: a config file holds one JSON object, got {type(raw).__name__}")
    return raw


# -- subcommands --------------------------------------------------------------


def cmd_make_corpus(args) -> int:
    paths = write_corpus(args.out, args.n_tracks, args.seconds, args.seed)
    print(f"wrote {len(paths)} tracks to {args.out}")
    return 0


def cmd_extract_peaks(args) -> int:
    entries = []
    for path in _wav_paths(args.audio):
        clouds = clip_clouds(load_audio(path))
        entries.extend(
            PeakEntry(path.stem, si, clouds[si]) for si in range(clouds.shape[0])
        )
    write_peaks(args.out, entries)
    print(f"wrote {len(entries)} segment clouds to {args.out}")
    return 0


def cmd_train(args) -> int:
    raw = _read_json(args.config) if args.config else {}
    # a file with a "train" or an "encoder" section, or else a bare train
    # config; a resume without a file takes the checkpoint's config
    sectioned = "train" in raw or "encoder" in raw
    cfg = None
    if args.config or not args.resume:
        cfg = TrainConfig.from_dict(raw.get("train", {}) if sectioned else raw)
    model = None  # a resume checks an "encoder" section against the checkpoint's
    if "encoder" in raw:
        model = PeakEncoder(EncoderConfig.from_dict(raw["encoder"]), seed=cfg.seed)
    tracks = _load_tracks(args.audio)
    dataset = SegmentDataset(tracks)
    result = train(
        dataset,
        cfg,
        model=model,
        out_path=args.out,
        log_path=args.log,
        resume=args.resume,
    )
    final = result.records[-1]["loss"] if result.records else float("nan")
    print(f"trained {len(result.records)} steps; final loss {final:.4f}; checkpoint {args.out}")
    return 0


def cmd_build_db(args) -> int:
    model = PeakEncoder.from_checkpoint(args.model)
    db = FingerprintDB(meta={"checkpoint_id": checkpoint_id(args.model)})
    for path in _wav_paths(args.audio):
        clouds = clip_clouds(load_audio(path))
        db.add_track(path.stem, model.fingerprints(clouds))
    db.save(args.out)
    print(f"indexed {len(db.track_ids)} tracks / {db.n_rows} segments into {args.out}")
    return 0


def cmd_build_index(args) -> int:
    db = FingerprintDB.load(args.db)
    print(f"{args.db}: {len(db.track_ids)} tracks, {db.n_rows} rows, dim {db.dim}")
    index = IVFPQIndex.build(db)
    sizes = np.diff(index.cell_starts)
    print(
        f"ivfpq over {db.n_rows} rows: {index.centroids.shape[0]} cells "
        f"(min {sizes.min()} / max {sizes.max()} rows), probing {index.n_probe}"
    )
    return 0


def _excerpt(args) -> np.ndarray:
    """Check `--top`, then cut the excerpt that `query` and `quadfp query` identify."""
    if args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    return cut_query(load_audio(args.audio), DEFAULT_SAMPLE_RATE, args.offset, args.len, args.factor)


def cmd_query(args) -> int:
    samples = _excerpt(args)
    db = FingerprintDB.load(args.db)
    model = PeakEncoder.from_checkpoint(args.model)
    emb = model.fingerprints(clip_clouds(samples))
    matches = sequence_match(db, emb, backend=IVFPQIndex.build(db) if args.ivfpq else None)
    if not matches:
        print("no match")
        return 0
    for rank, m in enumerate(matches[: args.top], start=1):
        print(
            f"{rank}\t{m.track_id}\toffset={m.offset * SEGMENT_HOP_SECONDS:.1f}s\t"
            f"score={m.score:.3f}\tstretch={m.slope:.3f}"
        )
    return 0


def cmd_evaluate(args) -> int:
    cfg = EvalConfig.from_dict(_read_json(args.config) if args.config else {})
    tracks = _load_tracks(args.audio)
    model = db = quad_db = None
    if cfg.system == "peaknetfp":
        if not args.db or not args.model:
            raise ConfigError("peaknetfp evaluation needs --db and --model")
        db = FingerprintDB.load(args.db)
        model = PeakEncoder.from_checkpoint(args.model)
    else:
        if not args.quad_db:
            raise ConfigError("quadfp evaluation needs --quad-db")
        quad_db = QuadDB.load(args.quad_db)
    report = run_sweep(cfg, tracks, model=model, db=db, quad_db=quad_db)
    out = Path(args.out)
    report.write_jsonl(out)
    report.write_csv(out.with_suffix(".csv"))
    for c in report.cells:
        print(
            f"{c['system']}\tfactor={c['factor']:g}\tlen={c['length']:g}s\t"
            f"hr@1={c['hr_at_1']:.3f} ({c['hits']}/{c['n_queries']})"
        )
    print(f"report: {out} and {out.with_suffix('.csv')}")
    return 0


def cmd_quadfp_build(args) -> int:
    db = QuadDB()
    for path in _wav_paths(args.audio):
        db.add_track(path.stem, load_audio(path))
    db.save(args.out)
    print(f"stored {db.n_quads} quads for {len(db.track_ids)} tracks in {args.out}")
    return 0


def cmd_quadfp_query(args) -> int:
    samples = _excerpt(args)
    matches = QuadDB.load(args.db).match(samples)
    if not matches:
        print("no match")
        return 0
    for rank, m in enumerate(matches[: args.top], start=1):
        print(
            f"{rank}\t{m.track_id}\tvotes={m.votes}\tstretch={m.stretch:.3f}\t"
            f"offset={m.offset_seconds:.2f}s"
        )
    return 0


# -- parser -------------------------------------------------------------------


def _add_excerpt_args(s: argparse.ArgumentParser) -> None:
    """The flags of `query` and `quadfp query` that choose the excerpt."""
    s.add_argument("--audio", required=True)
    s.add_argument("--len", type=float, help="excerpt length in seconds (default: to the end)")
    s.add_argument("--offset", type=float, default=0.0)
    s.add_argument("--factor", type=float, default=1.0, help="tempo factor to apply")
    s.add_argument("--top", type=int, default=5)


def build_parser() -> _Parser:
    p = _Parser(prog="peaknetfp", description=__doc__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("make-corpus", help="write the synthetic benchmark corpus")
    s.add_argument("--out", required=True)
    s.add_argument("--n-tracks", type=int, default=50)
    s.add_argument("--seconds", type=float, default=30.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_make_corpus)

    s = sub.add_parser("extract-peaks", help="segment audio and store peak clouds")
    s.add_argument("audio", help="wav file or directory")
    s.add_argument("-o", "--out", required=True)
    s.set_defaults(func=cmd_extract_peaks)

    s = sub.add_parser("train", help="train the encoder on a track directory")
    s.add_argument("--audio", required=True)
    s.add_argument("-c", "--config", help="JSON training config")
    s.add_argument("-o", "--out", required=True, help="checkpoint path")
    s.add_argument("--log", help="JSONL step log")
    s.add_argument("--resume", help="checkpoint to continue from")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("build-db", help="fingerprint tracks into a database")
    s.add_argument("--model", required=True)
    s.add_argument("--audio", required=True)
    s.add_argument("-o", "--out", required=True)
    s.set_defaults(func=cmd_build_db)

    s = sub.add_parser(
        "build-index", help="summarize a database and the IVFPQ index built from it; writes nothing"
    )
    s.add_argument("--db", required=True)
    s.set_defaults(func=cmd_build_index)

    s = sub.add_parser("query", help="identify an audio excerpt")
    s.add_argument("--db", required=True)
    s.add_argument("--model", required=True)
    _add_excerpt_args(s)
    s.add_argument("--ivfpq", action="store_true")
    s.set_defaults(func=cmd_query)

    s = sub.add_parser("evaluate", help="hit-rate sweep over factors and lengths")
    s.add_argument("-c", "--config", help="JSON eval config")
    s.add_argument("--audio", required=True)
    s.add_argument("--db")
    s.add_argument("--model")
    s.add_argument("--quad-db")
    s.add_argument("-o", "--out", required=True, help="JSONL report path")
    s.set_defaults(func=cmd_evaluate)

    q = sub.add_parser("quadfp", help="quad-constellation baseline")
    qsub = q.add_subparsers(dest="quad_command", required=True)

    s = qsub.add_parser("build")
    s.add_argument("--audio", required=True)
    s.add_argument("-o", "--out", required=True)
    s.set_defaults(func=cmd_quadfp_build)

    s = qsub.add_parser("query")
    s.add_argument("--db", required=True)
    _add_excerpt_args(s)
    s.set_defaults(func=cmd_quadfp_query)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (DataError, DecodeError, ConfigError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
