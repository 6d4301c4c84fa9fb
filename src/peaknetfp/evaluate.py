"""Hit-rate sweeps over stretch factors and query lengths.

For every (factor, length) cell, query excerpts are cut from the reference
tracks at random offsets on the segment hop grid (every half second),
tempo-modified in the time domain, then pushed through the system under test
(segment fingerprints + sequence alignment, or the quad baseline). The score
is the fraction of queries whose top-ranked track is the source track (hit
rate at rank 1).

Excerpts are cut with source length ``length * factor`` seconds BEFORE
stretching, so the stretched query plays for ``length`` seconds — matching
how a tempo-modified recording of fixed duration would arrive in practice.
Each cell draws from its own (seed, factor-index, length-index) random
stream, so any sub-grid of a report reproduces the full run's numbers.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import JsonConfig
from .encoder import PeakEncoder
from .errors import ConfigError, DataError
from .index import FingerprintDB, IVFPQIndex, sequence_match
from .quadfp import QuadDB
from .signal.audio import (
    DEFAULT_SAMPLE_RATE, SEGMENT_HOP_SECONDS, STRETCH_MAX, STRETCH_MIN, stretch_audio,
)
from .signal.peaks import clip_clouds

DEFAULT_FACTORS = (
    0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.975,
    1.05, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0,
)
DEFAULT_LENGTHS = (2.0, 3.0, 5.0, 6.0, 10.0)


@dataclass(frozen=True)
class EvalConfig(JsonConfig):
    factors: tuple[float, ...] = DEFAULT_FACTORS
    lengths: tuple[float, ...] = DEFAULT_LENGTHS
    n_queries: int = 20
    seed: int = 0
    system: str = "peaknetfp"
    backend: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(float(f) for f in self.factors))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        if not self.factors or any(not STRETCH_MIN <= f <= STRETCH_MAX for f in self.factors):
            raise ConfigError(f"stretch factors must lie in [{STRETCH_MIN}, {STRETCH_MAX}]")
        if not self.lengths or any(not 2.0 <= l < np.inf for l in self.lengths):
            raise ConfigError("query lengths must be finite and at least 2 s")
        if self.n_queries < 1:
            raise ConfigError("need at least one query per cell")
        if self.system not in ("peaknetfp", "quadfp"):
            raise ConfigError(f"unknown system {self.system!r}")
        if self.backend not in ("exact", "ivfpq"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def config_hash(self) -> str:
        raw = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:16]


def cut_query(
    samples: np.ndarray,
    sample_rate: int,
    start_s: float,
    length_s: float | None,
    factor: float,
) -> np.ndarray:
    """Excerpt of source length ``length_s * factor``, played at ``factor`` x tempo.

    ``samples`` are at ``sample_rate``, which must be ``DEFAULT_SAMPLE_RATE``.
    The result has exactly ``round(length_s * DEFAULT_SAMPLE_RATE)`` samples:
    rounding the source window and the stretch can leave the stretched
    excerpt a sample long or short, so it is trimmed or zero-padded at the
    end. With ``length_s`` None the excerpt runs from ``start_s`` to the end
    of the samples and is the whole stretched remainder.
    """
    if sample_rate != DEFAULT_SAMPLE_RATE:
        raise DataError(f"samples at {sample_rate} Hz, not {DEFAULT_SAMPLE_RATE} Hz")
    if not np.isfinite((start_s, length_s or 0.0, factor)).all():
        raise DataError("query offset, length and factor must be finite")
    start = int(round(start_s * DEFAULT_SAMPLE_RATE))
    if length_s is None:
        stop = samples.size
    else:
        stop = start + int(round(length_s * factor * DEFAULT_SAMPLE_RATE))
    if not 0 <= start < stop <= samples.size:
        raise DataError("query window is empty or exceeds the track")
    out = stretch_audio(samples[start:stop], factor)
    if length_s is None:
        return out
    size = int(round(length_s * DEFAULT_SAMPLE_RATE))
    out = out[:size]
    return np.pad(out, (0, size - out.size))


# the columns of a report's CSV, which are the keys of its cells
CSV_COLUMNS = ("system", "factor", "length", "n_queries", "hits", "hr_at_1")


@dataclass
class EvalReport:
    metadata: dict
    cells: list = field(default_factory=list)

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "meta", **self.metadata}, sort_keys=True) + "\n")
            for c in self.cells:
                fh.write(json.dumps({"type": "cell", **c}, sort_keys=True) + "\n")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            for c in self.cells:
                w.writerow([c[k] for k in CSV_COLUMNS])


def run_sweep(
    cfg: EvalConfig,
    tracks: list[tuple[str, np.ndarray]],
    model: PeakEncoder | None = None,
    db: FingerprintDB | None = None,
    quad_db: QuadDB | None = None,
) -> EvalReport:
    """HR@1 for every configured (factor, length) cell.

    Track samples are taken to be at ``DEFAULT_SAMPLE_RATE``, the rate of
    the one front end both systems read audio with.
    """
    if cfg.system == "peaknetfp" and (model is None or db is None):
        raise ConfigError("peaknetfp evaluation needs a model and a database")
    if cfg.system == "quadfp" and quad_db is None:
        raise ConfigError("quadfp evaluation needs a quad database")
    known = (db if cfg.system == "peaknetfp" else quad_db).tracks.rows
    missing = [tid for tid, _ in tracks if tid not in known]
    if missing:
        raise DataError(f"tracks absent from the reference database: {missing[:3]}")

    backend = None
    if cfg.system == "peaknetfp" and cfg.backend == "ivfpq":
        backend = IVFPQIndex.build(db)

    metadata = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "system": cfg.system,
        "backend": cfg.backend,
        "seed": cfg.seed,
        "n_tracks": len(tracks),
    }
    if cfg.system == "peaknetfp":
        metadata["db_rows"] = db.n_rows
        metadata["checkpoint_id"] = db.meta.get("checkpoint_id", "")

    report = EvalReport(metadata=metadata)
    for fi, factor in enumerate(cfg.factors):
        for li, length in enumerate(cfg.lengths):
            rng = np.random.default_rng([cfg.seed, fi, li])
            hits = 0
            for _ in range(cfg.n_queries):
                ti = int(rng.integers(len(tracks)))
                track_id, samples = tracks[ti]
                duration = samples.size / DEFAULT_SAMPLE_RATE
                max_start = duration - length * factor
                if max_start < 0:
                    raise DataError(
                        f"track {track_id!r} too short for a {length}s x{factor} query"
                    )
                hops = int(max_start / SEGMENT_HOP_SECONDS) + 1
                start_s = SEGMENT_HOP_SECONDS * int(rng.integers(hops))
                query = cut_query(samples, DEFAULT_SAMPLE_RATE, start_s, length, factor)
                if cfg.system == "peaknetfp":
                    emb = model.fingerprints(clip_clouds(query))
                    ranked = sequence_match(db, emb, backend=backend)
                else:
                    ranked = quad_db.match(query)
                hits += bool(ranked) and ranked[0].track_id == track_id
            report.cells.append(
                {
                    "system": cfg.system,
                    "factor": factor,
                    "length": length,
                    "n_queries": cfg.n_queries,
                    "hits": hits,
                    "hr_at_1": hits / cfg.n_queries,
                }
            )
    return report
