"""Fingerprint storage and retrieval.

A :class:`FingerprintDB` holds one unit-norm vector per 1-second segment,
grouped by track. Retrieval ranks rows by inner product (equivalently cosine,
since rows are unit-norm). Two backends provide the ranking:

* exact search over the full matrix;
* an inverted-file index with product-quantized residuals (IVFPQ) that probes
  only the most promising coarse cells, ranks their rows by a lookup-table
  estimate and re-scores the best ``RERANK`` of them with exact inner
  products. It is built deterministically from the database and a seed, so
  it is not serialized — rebuilding reproduces it bit for bit.

Multi-segment queries are resolved by :func:`sequence_match`: candidate
(track, offset) alignments come from per-segment top-k hits, and each
candidate is re-scored as the sum of inner products over the overlapping
segment range (overhangs at either end of the track are clipped).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .errors import ConfigError, ContractError, DataError, DecodeError

DB_KIND = "fp.db"
# Lloyd iterations of every k-means run
KMEANS_ITERS = 25
# IVFPQ candidates re-scored exactly per query (at least k)
RERANK = 128


class FingerprintDB:
    """Per-segment fingerprints for a track collection, in row-major blocks."""

    def __init__(self, meta: dict | None = None):
        self.dim: int | None = None  # set by the first track
        self.meta = dict(meta or {})
        self._blocks: dict[str, np.ndarray] = {}  # in insertion order
        self._cache: dict | None = None

    # -- construction -------------------------------------------------------

    def add_track(self, track_id: str, vectors: np.ndarray) -> None:
        v = np.asarray(vectors, dtype=np.float32)
        if v.ndim != 2 or v.shape[0] == 0:
            raise DataError(f"track {track_id!r}: need a non-empty 2-D vector block")
        if self.dim is None:
            self.dim = int(v.shape[1])
        if v.shape[1] != self.dim:
            raise DataError(
                f"track {track_id!r}: dim {v.shape[1]} != database dim {self.dim}"
            )
        norms = np.linalg.norm(v, axis=1)
        if not (np.abs(norms - 1.0) <= 1e-3).all():  # NaN rows fail too
            raise ContractError(f"track {track_id!r}: fingerprints must be unit-norm")
        if track_id in self._blocks:
            raise DataError(f"duplicate track id {track_id!r}")
        self._blocks[track_id] = v.copy()
        self._cache = None

    # -- layout -------------------------------------------------------------

    def _layout(self) -> dict:
        if self._cache is None:
            if not self._blocks:
                raise DataError("empty fingerprint database")
            sizes = [b.shape[0] for b in self._blocks.values()]
            starts = np.concatenate([[0], np.cumsum(sizes)])
            self._cache = {
                "ids": list(self._blocks),
                "matrix": np.concatenate(list(self._blocks.values()), axis=0),
                "starts": starts.astype(np.int64),
                "row_track": np.repeat(
                    np.arange(len(sizes), dtype=np.int64), sizes
                ),
            }
        return self._cache

    @property
    def matrix(self) -> np.ndarray:
        return self._layout()["matrix"]

    @property
    def n_rows(self) -> int:
        return int(self._layout()["matrix"].shape[0])

    @property
    def track_ids(self) -> list[str]:
        return list(self._blocks)

    def track_vectors(self, track_id: str) -> np.ndarray:
        return self._blocks[track_id]

    def row_info(self, row: int) -> tuple[str, int]:
        """(track_id, segment index) of a matrix row."""
        lay = self._layout()
        ti = int(lay["row_track"][row])
        return lay["ids"][ti], int(row - lay["starts"][ti])

    # -- exact retrieval ----------------------------------------------------

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k rows by inner product; ties go to the lower row index.

        Returns (rows, scores), each of shape (n_queries, min(k, n_rows)).
        """
        q = np.asarray(queries, dtype=np.float32)
        if q.ndim != 2 or q.shape[1] != self.dim:
            raise DataError(f"queries must be 2-D with dim {self.dim}")
        if k < 1:
            raise ConfigError("k must be >= 1")
        scores = q @ self.matrix.T
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(scores, order, axis=1)

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        tracks = [[tid, len(b)] for tid, b in self._blocks.items()]
        meta = {"info": self.meta, "tracks": tracks}
        container.write(path, DB_KIND, {"matrix": self._layout()["matrix"]}, meta)

    @classmethod
    def load(cls, path: str | Path) -> "FingerprintDB":
        arrays, meta = container.read(path, DB_KIND)
        try:
            matrix, db, start = arrays["matrix"], cls(meta=meta["info"]), 0
            for tid, n in container.track_runs(meta, len(matrix)):
                db.add_track(tid, matrix[start : start + n])
                start += n
        except (LookupError, TypeError, ValueError, DataError, ContractError) as exc:
            raise DecodeError(f"{path}: inconsistent fingerprint database: {exc}") from exc
        return db


# ---------------------------------------------------------------------------
# k-means


def kmeans(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """``KMEANS_ITERS`` rounds of Lloyd's algorithm with distance-weighted
    seeding, in float64.

    Returns (centroids (k_eff, d), labels (n,)). ``k_eff`` can fall below
    ``k`` when the data has fewer distinct points. Empty clusters are reseeded
    to the point currently farthest from its centroid (lowest index on ties),
    so the outcome is a pure function of (points, k, seed).
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n == 0 or k < 1:
        raise ConfigError("kmeans needs at least one point and k >= 1")
    k = min(k, n)
    rng = np.random.default_rng(seed)

    # seeding: first uniform, then proportional to squared distance
    centroids = [x[int(rng.integers(n))]]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    while len(centroids) < k:
        total = d2.sum()
        if total <= 0.0:
            break  # fewer distinct points than k
        c = x[int(rng.choice(n, p=d2 / total))]
        centroids.append(c)
        d2 = np.minimum(d2, ((x - c) ** 2).sum(axis=1))
    c = np.stack(centroids)

    x_sq = (x * x).sum(axis=1)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        dist = _center_distances(x, x_sq, c)
        labels = np.argmin(dist, axis=1)
        best = dist[np.arange(n), labels]
        counts = np.bincount(labels, minlength=c.shape[0])
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(best))
            c[empty] = x[far]
            labels[far] = empty
            best[far] = 0.0
            counts[empty] = 1
        # bincount sums each cluster's rows in row order from zero, as np.add.at does
        sums = np.stack([np.bincount(labels, col, c.shape[0]) for col in x.T], axis=1)
        c = sums / np.bincount(labels, minlength=c.shape[0])[:, None]
    labels = np.argmin(_center_distances(x, x_sq, c), axis=1)
    return c, labels


def _center_distances(x: np.ndarray, x_sq: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``x_sq[:, None] - 2 x c^T + |c|^2`` bit for bit, in one (n, k) buffer."""
    dist = x @ c.T
    dist *= -2.0
    dist += x_sq[:, None]
    dist += (c * c).sum(axis=1)
    return dist


# ---------------------------------------------------------------------------
# IVFPQ


@dataclass
class IVFPQIndex:
    """Inverted lists over coarse cells + product-quantized residual scoring."""

    db: FingerprintDB
    centroids: np.ndarray  # (n_list, dim) float64
    assignments: np.ndarray  # (n_rows,) int64 coarse cell per row
    lists: list[np.ndarray]  # row ids per cell
    codebooks: list[np.ndarray]  # per subspace: (k_eff, sub_dim) float64
    codes: np.ndarray  # (n_rows, m) uint16
    n_probe: int

    @classmethod
    def build(
        cls,
        db: FingerprintDB,
        n_list: int | None = None,
        n_probe: int | None = None,
        m: int = 16,
        seed: int = 0,
    ) -> "IVFPQIndex":
        v = db.matrix.astype(np.float64)
        n, dim = v.shape
        if dim % m:
            raise ConfigError(f"dim {dim} not divisible into {m} subspaces")
        if n_list is None:
            n_list = int(np.ceil(np.sqrt(n)))
        if n_probe is None:
            n_probe = max(8, n_list // 8)
        n_probe = min(n_probe, n_list)
        centroids, assign = kmeans(v, n_list, seed=[seed, 0])
        n_list = centroids.shape[0]
        lists = [np.flatnonzero(assign == i) for i in range(n_list)]
        residuals = v - centroids[assign]
        sub = dim // m
        k_sub = min(256, n)
        codebooks, codes = [], []
        for j in range(m):
            block = residuals[:, j * sub : (j + 1) * sub]
            cb, lab = kmeans(block, k_sub, seed=[seed, 1 + j])
            codebooks.append(cb)
            codes.append(lab.astype(np.uint16))
        return cls(
            db=db,
            centroids=centroids,
            assignments=assign,
            lists=lists,
            codebooks=codebooks,
            codes=np.stack(codes, axis=1),
            n_probe=min(n_probe, n_list),
        )

    @classmethod
    def from_meta(cls, db: FingerprintDB) -> "IVFPQIndex":
        """The index whose parameters ``build-index --ivfpq`` stored in
        ``db.meta["ivfpq"]``; ``build``'s defaults and seed 0 without them."""
        return cls.build(db, **db.meta.get("ivfpq", {}))

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-k rows; same contract as FingerprintDB.search.

        Candidates from the probed cells are ranked by their quantized score,
        then the best ``max(RERANK, k)`` of them are re-scored with exact
        inner products, so every returned score is exact. Rows the probe
        never reached are padded as row -1 / score -inf.
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.db.dim:
            raise DataError(f"queries must be 2-D with dim {self.db.dim}")
        if k < 1:
            raise ConfigError("k must be >= 1")
        m = self.codes.shape[1]
        sub = self.db.dim // m
        k_out = min(k, self.db.n_rows)
        rows_out = np.full((q.shape[0], k_out), -1, dtype=np.int64)
        scores_out = np.full((q.shape[0], k_out), -np.inf)
        q32 = q.astype(np.float32)
        for qi in range(q.shape[0]):
            cell_scores = self.centroids @ q[qi]
            probe = np.argsort(-cell_scores, kind="stable")[: self.n_probe]
            rows = np.concatenate([self.lists[p] for p in probe])
            if rows.size == 0:
                continue
            est = cell_scores[self.assignments[rows]].copy()
            for j in range(m):
                lut = self.codebooks[j] @ q[qi, j * sub : (j + 1) * sub]
                est += lut[self.codes[rows, j]]
            rows = rows[np.lexsort((rows, -est))[: max(RERANK, k_out)]]
            est = self.db.matrix[rows] @ q32[qi]
            order = np.lexsort((rows, -est))[:k_out]
            rows_out[qi, : order.size] = rows[order]
            scores_out[qi, : order.size] = est[order]
        return rows_out, scores_out


# ---------------------------------------------------------------------------
# sequence alignment


@dataclass(frozen=True)
class SequenceMatch:
    track_id: str
    offset: int
    score: float


def alignment_score(
    db: FingerprintDB, track_id: str, offset: int, queries: np.ndarray
) -> float:
    """Sum of inner products along one candidate alignment.

    Query segment i is scored against track segment ``offset + i``; positions
    that fall outside the track are skipped at both ends.
    """
    track = db.track_vectors(track_id)
    q = np.asarray(queries, dtype=np.float64)
    lo = max(0, -offset)
    hi = min(q.shape[0], track.shape[0] - offset)
    if hi <= lo:
        return float("-inf")
    seg = track[offset + lo : offset + hi].astype(np.float64)
    return float(np.einsum("ij,ij->", q[lo:hi], seg))


def sequence_match(
    db: FingerprintDB,
    queries: np.ndarray,
    k: int = 20,
    backend=None,
) -> list[SequenceMatch]:
    """Rank (track, offset) alignments for a run of consecutive segments.

    Candidates come from per-segment top-k retrieval on ``backend`` (the
    database itself by default); each is re-scored over the full overlap.
    Ties break by (track id, offset). A perfectly aligned L-segment query cut
    from the database scores L.
    """
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim != 2:
        raise DataError("queries must be 2-D (segments x dim)")
    rows, _ = (backend or db).search(q, k)
    candidates = set()
    for i in range(q.shape[0]):
        for row in rows[i]:
            if row < 0:
                continue
            track_id, seg = db.row_info(int(row))
            candidates.add((track_id, seg - i))
    scored = [
        SequenceMatch(tid, off, alignment_score(db, tid, off, q))
        for tid, off in candidates
    ]
    scored.sort(key=lambda sm: (-sm.score, sm.track_id, sm.offset))
    return scored
