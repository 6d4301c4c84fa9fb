"""The three workloads: ``identify``, ``train`` and ``search``.

Each is a closed loop with one client in one process: the next operation
starts when the previous one has returned. A workload is sized from the run
length (``sizes``), builds its state and every input from the seed before
timing starts (``setup``), then runs its measured phases (``run``). ``run``
calls the program through module attributes (``peaks.clip_clouds``,
``index.sequence_match``, ...) so that the traced run's wrappers see every
call; it forks nothing.

``run`` is handed a recorder: a :class:`tracer.Tracer` in the traced run, or
:data:`UNTRACED`, whose operations cost nothing.
"""
from __future__ import annotations

import hashlib
import json
import math
import traceback
from contextlib import chdir, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from peaknetfp import corpus, encoder, evaluate, index, quadfp, training
from peaknetfp.signal import peaks
from peaknetfp.signal.audio import DEFAULT_SAMPLE_RATE

QUERY_SECONDS = 10.0
HOP_SECONDS = 0.5  # segment hop, so half-second offsets are segment-aligned
IDENTIFY_FACTORS = (1.0,) + tuple(evaluate.DEFAULT_FACTORS)
INGEST_BUILDS = 2
TRAIN_ROUNDS = 2
SEARCH_BUILDS = 3
SEARCH_TRACK_ROWS = 59  # segments in a 30 s track
SEARCH_QUERY_ROWS = 19  # segments in a 10 s query
SEARCH_CLUSTER_ROWS = 50
SEARCH_DIM = 128
PROBE_ROWS = 19


class _Untraced:
    def op(self, kind: str):
        return nullcontext()


UNTRACED = _Untraced()


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    key: str | None = None  # the BENCHMARK.json end-to-end name it reports as


@dataclass
class Outcome:
    metrics: dict[str, Metric] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def attempt(self, fn):
        """Run one operation; a raise counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.fail(traceback.format_exc(limit=3))
            return None

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)

    def add(self, name, value, unit, samples, key=None) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), key)

    def latency(self, prefix: str, seconds: list[float], p90_key: str) -> None:
        ms = np.asarray(seconds, dtype=np.float64) * 1000.0
        if ms.size == 0:
            return
        self.add(f"{prefix}_p50_ms", np.median(ms), "ms", ms.size)
        self.add(f"{prefix}_p90_ms", np.percentile(ms, 90), "ms", ms.size, p90_key)


def _digest(obj) -> str:
    raw = obj if isinstance(obj, bytes) else json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()


def _share(items: list, r: int, rounds: int) -> list:
    """The ``r``-th of ``rounds`` consecutive, near-equal slices of ``items``."""
    return items[r * len(items) // rounds:(r + 1) * len(items) // rounds]


def _timed(rec, kind: str, out: Outcome, fn, lat: list[float]):
    t = perf_counter()
    with rec.op(kind):
        result = out.attempt(fn)
    if result is not None:
        lat.append(perf_counter() - t)
    return result


# ---------------------------------------------------------------------------
# identify


@dataclass
class Excerpt:
    track_id: str
    start_s: float
    factor: float
    audio: np.ndarray


class Identify:
    """Build the fingerprint DB of a few desk tracks twice, identifying half
    of the excerpts after each build.

    Each excerpt runs through the peaknetfp path and through the quad
    baseline. The encoder is seeded and untrained, so ``hr_at_1`` guards the
    inference path's outputs; it is not the paper's quality.
    """

    @staticmethod
    def sizes(seconds: int) -> dict:
        # ingest costs ~2.2 s per 30 s track, a query ~0.75 s for both systems
        return {"tracks": min(3, max(1, math.ceil(seconds / 10))),
                "queries": max(2, round(seconds * 0.8))}

    @staticmethod
    def setup(seed: int, sizes: dict) -> dict:
        tracks = corpus.make_corpus(n_tracks=sizes["tracks"])
        model = encoder.PeakEncoder(seed=0)
        # first calls fill FFT plan caches and the like; users pay that once
        model.fingerprints(peaks.clip_clouds(tracks[0][1][:3 * DEFAULT_SAMPLE_RATE]))
        quad_db = quadfp.QuadDB()
        for tid, samples in tracks:
            quad_db.add_track(tid, samples)
        excerpts = []
        for i in range(sizes["queries"]):
            # factors and tracks in rotation, offsets from the seed: a seeded
            # track choice makes hr_at_1 swing with how many extreme-factor
            # excerpts land on the track the untrained encoder favours
            factor = IDENTIFY_FACTORS[i % len(IDENTIFY_FACTORS)]
            tid, samples = tracks[i % len(tracks)]
            rng = np.random.default_rng([seed, i])
            max_start = samples.size / DEFAULT_SAMPLE_RATE - QUERY_SECONDS * factor
            start = HOP_SECONDS * int(rng.integers(int(max_start / HOP_SECONDS) + 1))
            audio = evaluate.cut_query(samples, DEFAULT_SAMPLE_RATE, start, QUERY_SECONDS, factor)
            excerpts.append(Excerpt(tid, start, factor, audio))
        return {"tracks": tracks, "model": model, "quad_db": quad_db, "excerpts": excerpts}

    @staticmethod
    def run(state: dict, rec, workdir: Path) -> Outcome:
        out = Outcome()
        model = state["model"]

        # rounds of ingest (the build-db path, through save and load) then a
        # share of the queries: the ingest throughput spans both halves of
        # the run, so one swing of the machine's speed moves it less
        excerpts = state["excerpts"]
        ingest_s, segments, db_bytes = 0.0, 0, set()
        fp_lat, quad_lat, fp_hits, quad_hits, rankings = [], [], [], [], []
        for r in range(INGEST_BUILDS):
            t0 = perf_counter()
            db = index.FingerprintDB()
            for tid, samples in state["tracks"]:
                def ingest(tid=tid, samples=samples):
                    fps = model.fingerprints(peaks.clip_clouds(samples))
                    db.add_track(tid, fps)
                    return len(fps)
                with rec.op("ingest"):
                    segments += out.attempt(ingest) or 0
            path = workdir / "fp.db"

            def save_and_load():
                db.save(path)
                return index.FingerprintDB.load(path)
            loaded = out.attempt(save_and_load)
            ingest_s += perf_counter() - t0
            if loaded is None:
                return out
            db_bytes.add(path.read_bytes())

            for ex in _share(excerpts, r, INGEST_BUILDS):
                ranked = _timed(rec, "query", out, lambda ex=ex: index.sequence_match(
                    loaded, model.fingerprints(peaks.clip_clouds(ex.audio)), k=20), fp_lat)
                quads = _timed(rec, "quad", out, lambda ex=ex: state["quad_db"].match(ex.audio),
                               quad_lat)
                fp_hits.append(bool(ranked) and ranked[0].track_id == ex.track_id)
                quad_hits.append(bool(quads) and quads[0].track_id == ex.track_id)
                if ranked and ex.factor == 1.0:
                    want = (ex.track_id, round(ex.start_s / HOP_SECONDS))
                    if (ranked[0].track_id, ranked[0].offset) != want:
                        out.fail(f"factor-1.0 excerpt {want} ranked {ranked[0]} first")
                rankings.append([
                    [(m.track_id, m.offset, m.score.hex()) for m in (ranked or [])[:10]],
                    [(m.track_id, m.votes, m.stretch.hex(), m.offset_seconds.hex())
                     for m in (quads or [])[:10]],
                ])
        if len(db_bytes) != 1:
            out.fail("two builds of the same fingerprint DB wrote different bytes")
        out.digests["fp_db"] = _digest(db_bytes.pop())
        out.add("ingest_segments_per_s", segments / ingest_s, "1/s",
                INGEST_BUILDS * len(state["tracks"]), "write_per_s")
        n = len(state["excerpts"])
        out.digests["identify_rankings"] = _digest(rankings)
        out.latency("identify", fp_lat, "p90_ms")
        out.latency("quad", quad_lat, "alt_p90_ms")
        out.add("hr_at_1", sum(fp_hits) / n, "ratio", n, "quality")
        out.add("quad_hr_at_1", sum(quad_hits) / n, "ratio", n)
        return out


# ---------------------------------------------------------------------------
# train


class Train:
    """Two rounds of a ``train()`` call on desk tracks then the trained
    model's inference.

    ``train()`` runs with ``seed=0``, the default encoder and no checkpoint on
    the first desk tracks, so its work and losses are the same for every
    seed and both rounds must return the same losses; the seed picks the
    segments the trained model fingerprints. The loss, and so its digest,
    depends on the BLAS thread count.
    """

    @staticmethod
    def sizes(seconds: int) -> dict:
        # a step takes ~1.2 s; a 19-segment inference batch ~0.55 s
        return {"tracks": min(4, max(1, math.ceil(seconds / 8))),
                "steps": max(2, round(seconds * 0.3)),
                "probe_batches": TRAIN_ROUNDS * min(6, max(1, int(seconds / 5)))}

    @staticmethod
    def setup(seed: int, sizes: dict) -> dict:
        dataset = training.SegmentDataset(corpus.make_corpus(n_tracks=sizes["tracks"]))
        probes = np.random.default_rng(seed).choice(
            dataset.n_segments, size=(sizes["probe_batches"], PROBE_ROWS), replace=False)
        return {"dataset": dataset, "steps": sizes["steps"], "probes": probes}

    @staticmethod
    def run(state: dict, rec, workdir: Path) -> Outcome:
        out = Outcome()
        steps = state["steps"]
        cfg = training.TrainConfig(pairs_per_batch=8, epochs=1, steps_per_epoch=steps, seed=0)
        # rounds, so that training and inference each span both ends of the run
        train_s, step_s, losses, loss_runs = 0.0, [], [], set()
        infer_lat, embeddings = [], []
        for r in range(TRAIN_ROUNDS):
            t0 = perf_counter()
            # train() writes a diagnostic dump to its working directory when
            # the loss turns non-finite; keep it out of the checkout
            with rec.op("train"), chdir(workdir):
                try:
                    result = training.train(state["dataset"], cfg)
                except Exception:
                    result = None
                    out.errors.append(traceback.format_exc(limit=3))
            train_s += perf_counter() - t0
            out.attempted += steps
            records = result.records if result else []
            run_losses = [x["loss"] for x in records]
            good = sum(math.isfinite(x) for x in run_losses)
            if good < steps:
                out.failed += steps - good
                out.errors.append(f"{good} of {steps} steps ended with a finite loss")
            if result is None or not run_losses:
                return out
            losses += run_losses
            loss_runs.add(tuple(run_losses))
            step_s.extend(np.diff([x["wall_time"] for x in records]))

            for rows in _share(list(state["probes"]), r, TRAIN_ROUNDS):
                clouds = state["dataset"].originals[rows]
                emb = _timed(rec, "infer", out, lambda c=clouds: result.model.fingerprints(c),
                             infer_lat)
                if emb is not None:
                    embeddings.append(emb.tobytes())
        if len(loss_runs) != 1:
            out.fail("two train() calls with the same seed returned different losses")
        out.digests["train_losses"] = _digest([x.hex() for x in losses[:steps]])
        out.digests["trained_fingerprints"] = _digest(b"".join(embeddings))
        out.latency("train_step", step_s, "p90_ms")
        out.add("train_pairs_per_s", len(losses) * cfg.pairs_per_batch / train_s, "1/s",
                len(losses), "write_per_s")
        # geometric-mean softmax probability of the positive: exp(-NT-Xent)
        out.add("train_positive_prob", math.exp(-float(np.mean(losses))), "ratio",
                len(losses), "quality")
        out.latency("trained_infer", infer_lat, "alt_p90_ms")
        return out


# ---------------------------------------------------------------------------
# search


@dataclass
class SearchQuery:
    track_id: str
    offset: int
    vectors: np.ndarray


class Search:
    """Build IVFPQ over clustered unit vectors, then run 19-row queries.

    The collection follows acceptance test 7's generator: latent centres with
    0.35 noise, 50 rows per centre, normalised, stored as 59-row tracks (50 of
    them, as many rows as the desk corpus's DB). Each query is 19 consecutive
    rows of one track plus 0.05 noise, run through ``sequence_match`` exactly
    and with the IVFPQ backend. The index is built three times, once before
    each third of the queries.
    """

    @staticmethod
    def sizes(seconds: int) -> dict:
        # IVFPQ build ~1.3 ms per row; an exact plus an IVFPQ query ~12 ms
        return {"tracks": 50 if seconds >= 10 else 8,
                "queries": max(3, int(seconds) * 40)}

    @staticmethod
    def setup(seed: int, sizes: dict) -> dict:
        rng = np.random.default_rng(seed)
        n_rows = sizes["tracks"] * SEARCH_TRACK_ROWS
        n_centers = -(-n_rows // SEARCH_CLUSTER_ROWS)
        centers = rng.normal(size=(n_centers, SEARCH_DIM))
        v = centers[np.repeat(np.arange(n_centers), SEARCH_CLUSTER_ROWS)[:n_rows]]
        v = v + 0.35 * rng.normal(size=(n_rows, SEARCH_DIM))
        v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
        db = index.FingerprintDB()
        for t in range(sizes["tracks"]):
            db.add_track(f"t{t:04d}", v[t * SEARCH_TRACK_ROWS:(t + 1) * SEARCH_TRACK_ROWS])
        queries = []
        for _ in range(sizes["queries"]):
            tid = f"t{int(rng.integers(sizes['tracks'])):04d}"
            off = int(rng.integers(SEARCH_TRACK_ROWS - SEARCH_QUERY_ROWS + 1))
            q = db.track_vectors(tid)[off:off + SEARCH_QUERY_ROWS]
            q = q + 0.05 * rng.normal(size=q.shape).astype(np.float32)
            q = (q / np.linalg.norm(q, axis=1, keepdims=True)).astype(np.float32)
            queries.append(SearchQuery(tid, off, q))
        return {"db": db, "queries": queries}

    @staticmethod
    def run(state: dict, rec, workdir: Path) -> Outcome:
        out = Outcome()
        db = state["db"]
        # rounds of an IVFPQ build then a share of the queries, so the build
        # throughput spans the whole run; every build is the same index
        build_s, exact_lat, ivf_lat, recalls, rankings = [], [], [], [], []
        for r in range(SEARCH_BUILDS):
            t0 = perf_counter()
            with rec.op("build"):
                ivf = out.attempt(lambda: index.IVFPQIndex.build(db))
            if ivf is None:
                return out
            build_s.append(perf_counter() - t0)

            for q in _share(state["queries"], r, SEARCH_BUILDS):
                exact = _timed(rec, "exact", out,
                               lambda q=q: index.sequence_match(db, q.vectors, k=20), exact_lat)
                approx = _timed(rec, "ivfpq", out, lambda q=q: index.sequence_match(
                    db, q.vectors, k=20, backend=ivf), ivf_lat)
                if exact:
                    if (exact[0].track_id, exact[0].offset) != (q.track_id, q.offset):
                        out.fail(f"query from {(q.track_id, q.offset)} ranked {exact[0]} first")
                    if approx is not None:
                        top = {(m.track_id, m.offset) for m in exact[:20]}
                        got = {(m.track_id, m.offset) for m in approx[:20]}
                        recalls.append(len(top & got) / len(top))
                rankings.append([[(m.track_id, m.offset, m.score.hex())
                                  for m in (res or [])[:10]] for res in (exact, approx)])
        out.add("ivfpq_build_s", float(np.median(build_s)), "s", len(build_s))
        out.add("ivfpq_build_rows_per_s", db.n_rows * len(build_s) / sum(build_s), "1/s",
                len(build_s), "write_per_s")
        out.digests["search_rankings"] = _digest(rankings)
        out.latency("search", exact_lat, "p90_ms")
        out.latency("ivfpq", ivf_lat, "alt_p90_ms")
        if recalls:
            out.add("ivfpq_recall_at_20", float(np.mean(recalls)), "ratio", len(recalls),
                    "quality")
        return out


WORKLOADS = {"identify": Identify, "train": Train, "search": Search}
