"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 internal
invariant violation.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import reference as ref
from .corpus import write_corpus
from .encoder import EncoderConfig, PeakEncoder, checkpoint_id, query_ball_group
from .errors import ConfigError, ContractError, DataError, DecodeError
from .evaluate import EvalConfig, cut_query, run_sweep
from .index import FingerprintDB, IVFPQIndex, sequence_match
from .quadfp import HASH_EPSILON, QuadDB, box_matches
from .signal.audio import AudioClip, load_audio, stretch_audio
from .signal.peaks import PeakEntry, clip_clouds, extract_peaks, write_peaks
from .training import SegmentDataset, TrainConfig, ntxent_loss, train

log = logging.getLogger(__name__)


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
    return [(p.stem, load_audio(p).samples) for p in _wav_paths(audio_dir)]


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataError(f"no such config file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def _cut(clip: AudioClip, offset_s: float, length_s: float | None, factor: float) -> np.ndarray:
    if length_s is None:
        return stretch_audio(clip, factor).samples
    return cut_query(clip.samples, clip.sample_rate, offset_s, length_s, factor)


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
    # a file with a "train" or an "encoder" section, or else a bare train config
    sectioned = "train" in raw or "encoder" in raw
    cfg = TrainConfig.from_dict(raw.get("train", {}) if sectioned else raw)
    model = None
    if "encoder" in raw and not args.resume:
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
    print(f"trained {cfg.epochs} epochs; final loss {final:.4f}; checkpoint {args.out}")
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
    if not args.ivfpq:
        print(f"{args.db}: {len(db.track_ids)} tracks, {db.n_rows} rows, dim {db.dim}")
        return 0
    index = IVFPQIndex.build(
        db, n_list=args.n_list, n_probe=args.n_probe, m=args.m, seed=args.seed
    )
    db.meta["ivfpq"] = {
        "n_list": int(index.centroids.shape[0]),
        "n_probe": int(index.n_probe),
        "m": int(index.codes.shape[1]),
        "seed": args.seed,
    }
    db.save(args.db)
    sizes = [len(l) for l in index.lists]
    print(
        f"ivfpq over {db.n_rows} rows: {index.centroids.shape[0]} cells "
        f"(min {min(sizes)} / max {max(sizes)} rows), probing {index.n_probe}; "
        f"parameters stored in {args.db}"
    )
    return 0


def cmd_query(args) -> int:
    db = FingerprintDB.load(args.db)
    model = PeakEncoder.from_checkpoint(args.model)
    samples = _cut(load_audio(args.audio), args.offset, args.len, args.factor)
    emb = model.fingerprints(clip_clouds(samples))
    backend = IVFPQIndex.from_meta(db) if args.ivfpq else None
    matches = sequence_match(db, emb, k=args.k, backend=backend)
    if not matches:
        print("no match")
        return 0
    for rank, m in enumerate(matches[: args.top], start=1):
        print(f"{rank}\t{m.track_id}\toffset={m.offset * 0.5:.1f}s\tscore={m.score:.3f}")
    return 0


def cmd_evaluate(args) -> int:
    raw = _read_json(args.config) if args.config else {}
    if args.system:  # `quadfp evaluate` presets the system
        raw["system"] = args.system
    cfg = EvalConfig.from_dict(raw)
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
        db.add_track(path.stem, load_audio(path).samples)
    db.save(args.out)
    print(f"stored {db.n_quads} quads for {len(db.track_ids)} tracks in {args.out}")
    return 0


def cmd_quadfp_query(args) -> int:
    db = QuadDB.load(args.db)
    samples = _cut(load_audio(args.audio), args.offset, args.len, args.factor)
    matches = db.match(samples)
    if not matches:
        print("no match")
        return 0
    for rank, m in enumerate(matches[: args.top], start=1):
        print(
            f"{rank}\t{m.track_id}\tvotes={m.votes}\tstretch={m.stretch:.3f}\t"
            f"offset={m.offset_seconds:.2f}s"
        )
    return 0


def cmd_selftest(args) -> int:
    """Fast cross-checks of the vectorized code against the loop references."""
    rng = np.random.default_rng(0)
    failures = []

    def check(name: str, ok: bool) -> None:
        print(f"{'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    spec = rng.random((64, 48)).astype(np.float32)
    cloud = extract_peaks(spec, 64)
    check("peak extraction matches loop reference", np.array_equal(cloud, ref.naive_cloud(spec, 64)))

    pts = rng.random((40, 3)).astype(np.float32)
    got = query_ball_group(np.arange(8), pts, radius=0.4, group_size=4)
    want = ref.naive_query_ball(np.arange(8), pts, 0.4, 4)
    check("neighborhood grouping matches loop reference", np.array_equal(got, want))

    z = rng.normal(size=(8, 16))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    loss = float(ntxent_loss(ad.Tensor(z), 0.1).data)
    check(
        "contrastive loss matches loop reference",
        abs(loss - ref.naive_ntxent(z, 0.1)) < 1e-6,
    )

    w = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    x = rng.normal(size=(6, 5))
    out = ad.reduce_sum(ad.relu(ad.matmul(ad.Tensor(x), w)))
    out.backward()
    fd = ref.finite_difference_grad(
        lambda arrs: float(
            np.sum(np.maximum(x @ arrs["w"], 0.0))
        ),
        {"w": w.data.copy().astype(np.float64)},
    )["w"]
    check("gradients match finite differences", np.abs(w.grad - fd).max() < 1e-5)

    hashes = rng.random((500, 4))
    qdb = QuadDB()
    qdb.add_track_quads("t", {"hash": hashes, "t0": np.zeros(500), "dt": np.full(500, 0.5)})
    ok = all(
        np.array_equal(qdb.candidates(q), box_matches(hashes, q, HASH_EPSILON))
        for q in rng.random((20, 4))
    )
    check("quad grid lookup matches linear scan", ok)

    v = rng.normal(size=(60, 16)).astype(np.float32)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    fdb = FingerprintDB()
    fdb.add_track("t", v)
    rows, _ = fdb.search(v[:5], k=4)
    ok = all(
        list(rows[i]) == [r for r, _ in ref.naive_mips(fdb.matrix, v[i], 4)]
        for i in range(5)
    )
    check("inner-product search matches loop reference", ok)

    if failures:
        raise ContractError(f"selftest failures: {', '.join(failures)}")
    print("all checks passed")
    return 0


# -- parser -------------------------------------------------------------------


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

    s = sub.add_parser("build-index", help="inspect a database / attach IVFPQ")
    s.add_argument("--db", required=True)
    s.add_argument("--ivfpq", action="store_true")
    s.add_argument("--n-list", type=int)
    s.add_argument("--n-probe", type=int)
    s.add_argument("--m", type=int, default=16)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_build_index)

    s = sub.add_parser("query", help="identify an audio excerpt")
    s.add_argument("--db", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--audio", required=True)
    s.add_argument("--len", type=float, help="excerpt length in seconds")
    s.add_argument("--offset", type=float, default=0.0)
    s.add_argument("--factor", type=float, default=1.0, help="tempo factor to apply")
    s.add_argument("-k", type=int, default=20)
    s.add_argument("--top", type=int, default=5)
    s.add_argument("--ivfpq", action="store_true")
    s.set_defaults(func=cmd_query)

    s = sub.add_parser("evaluate", help="hit-rate sweep over factors and lengths")
    s.add_argument("-c", "--config", help="JSON eval config")
    s.add_argument("--audio", required=True)
    s.add_argument("--db")
    s.add_argument("--model")
    s.add_argument("--quad-db")
    s.add_argument("-o", "--out", required=True, help="JSONL report path")
    s.set_defaults(func=cmd_evaluate, system=None)

    q = sub.add_parser("quadfp", help="quad-constellation baseline")
    qsub = q.add_subparsers(dest="quad_command", required=True)

    s = qsub.add_parser("build")
    s.add_argument("--audio", required=True)
    s.add_argument("-o", "--out", required=True)
    s.set_defaults(func=cmd_quadfp_build)

    s = qsub.add_parser("query")
    s.add_argument("--db", required=True)
    s.add_argument("--audio", required=True)
    s.add_argument("--len", type=float)
    s.add_argument("--offset", type=float, default=0.0)
    s.add_argument("--factor", type=float, default=1.0)
    s.add_argument("--top", type=int, default=5)
    s.set_defaults(func=cmd_quadfp_query)

    s = qsub.add_parser("evaluate")
    s.add_argument("-c", "--config")
    s.add_argument("--audio", required=True)
    s.add_argument("--db", dest="quad_db", required=True)
    s.add_argument("-o", "--out", required=True)
    s.set_defaults(func=cmd_evaluate, system="quadfp")

    s = sub.add_parser("selftest", help="run the built-in oracle cross-checks")
    s.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (DataError, DecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
