"""Fingerprint storage and retrieval.

A :class:`FingerprintDB` holds one unit-norm vector per 1-second segment,
grouped by track. Retrieval ranks rows by inner product (equivalently cosine,
since rows are unit-norm). Two backends provide the ranking:

* exact search over the full matrix, taking each query's top k with
  :func:`smallest_k` (a partition, not a full sort; ties go to the lower
  row);
* an inverted-file index with product-quantized residuals (IVFPQ) that, for
  every query row in one call, probes only the most promising coarse cells,
  ranks their rows by a lookup-table estimate and re-scores the best
  ``RERANK`` of them with exact inner products; ties go to the lower row. It
  is built deterministically from the database alone, so it is not
  serialized — rebuilding reproduces it bit for bit.

Multi-segment queries are resolved by :func:`sequence_match`. A query
stretched by tempo factor f holds, in its segment i, track segment
``offset + f·i``, so alignments follow a tempo slope: each per-segment top-k
hit proposes one (track, offset) for each of the 13 slopes ``2^(k/6)``,
k = -6..6 (``SLOPES``, 0.5 to 2). Each alignment is re-scored as the sum of
inner products along its slope (positions past either end of the track are
clipped), and each (track, offset) keeps the score of its best slope.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import container
from .errors import ConfigError, ContractError, DataError, DecodeError

DB_KIND = "fp.db"
# most Lloyd rounds of a k-means run
KMEANS_ITERS = 25
# rows per block of k-means assignment
ASSIGN_BLOCK = 512
# IVFPQ candidates re-scored exactly per query (at least k)
RERANK = 128


def smallest_k(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the k smallest entries per row and their values.

    Equal to ``argsort(values, axis=1, kind="stable")[:, :k]`` and the values
    it picks, without sorting whole rows: with ``v`` the kth smallest value of
    a row, every column below ``v`` is kept, the remaining slots go to the
    lowest-index columns equal to ``v``, and the kept columns are ordered by
    (value, index). A NaN is read as +inf: it ranks after every finite value,
    ties with +inf by index, and comes back as +inf.
    """
    vals = np.asarray(values)
    if np.isnan(vals).any():
        vals = np.where(np.isnan(vals), np.inf, vals)
    v = np.partition(vals, k - 1, axis=1)[:, k - 1 : k]
    less = vals < v
    keep = less | (vals == v)
    # only rows with more ties at v than free slots need the ranked ties
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if over.size:
        ties = vals[over] == v[over]
        need = k - np.count_nonzero(less[over], axis=1)[:, None]
        keep[over] = less[over] | (ties & (np.cumsum(ties, axis=1) <= need))
    cols = (np.flatnonzero(keep) % vals.shape[1]).reshape(-1, k)  # ascending within a row
    kv = np.take_along_axis(vals, cols, axis=1)
    o = np.argsort(kv, axis=1, kind="stable")
    return np.take_along_axis(cols, o, axis=1), np.take_along_axis(kv, o, axis=1)


def _checked_queries(queries: np.ndarray, dim: int | None, k: int, dtype) -> np.ndarray:
    q = np.asarray(queries, dtype=dtype)
    if q.ndim != 2 or q.shape[1] != dim:
        raise DataError(f"queries must be 2-D with dim {dim}")
    if not np.isfinite(q).all():
        raise DataError("queries must be finite")
    if k < 1:
        raise ConfigError("k must be >= 1")
    return q


class FingerprintDB:
    """Per-segment fingerprints for a track collection, in row-major blocks."""

    def __init__(self, meta: dict | None = None):
        self.dim: int | None = None  # set by the first track
        self.meta = dict(meta or {})
        self.tracks = container.TrackTable()  # one "matrix" block per track

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
        self.tracks.add(track_id, {"matrix": v.copy()})

    @property
    def matrix(self) -> np.ndarray:
        return self.tracks.joined()["matrix"]

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def track_ids(self) -> list[str]:
        return list(self.tracks.rows)

    def track_vectors(self, track_id: str) -> np.ndarray:
        return self.tracks.rows[track_id]["matrix"]

    # -- exact retrieval ----------------------------------------------------

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k rows by inner product; ties go to the lower row index.

        Every row is scored, then :func:`smallest_k` selects the top k of the
        negated scores by partition, with no full sort. Returns (rows,
        scores), each of shape (n_queries, min(k, n_rows)).
        """
        q = _checked_queries(queries, self.dim, k, np.float32)
        scores = q @ self.matrix.T
        rows, neg = smallest_k(-scores, min(k, scores.shape[1]))
        return rows, -neg

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        self.tracks.save(path, DB_KIND, {"info": self.meta})

    @classmethod
    def load(cls, path: str | Path) -> "FingerprintDB":
        runs, meta = container.read_tracks(path, DB_KIND)
        try:
            db = cls(meta=meta["info"])
            for tid, rows in runs:
                db.add_track(tid, rows["matrix"])
        except (LookupError, TypeError, ValueError, DataError, ContractError) as exc:
            raise DecodeError(f"{path}: inconsistent fingerprint database: {exc}") from exc
        return db


# ---------------------------------------------------------------------------
# k-means


def kmeans(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """At most ``KMEANS_ITERS`` rounds of Lloyd's algorithm with
    distance-weighted seeding, in float64.

    Returns (centroids (k_eff, d), labels (n,)). ``k_eff`` can fall below
    ``k`` when the data has fewer distinct points. Empty clusters are reseeded
    to the point currently farthest from its centroid (lowest index on ties),
    so a round is a pure function of the centroids it starts from, and the
    outcome one of (points, k, seed). The rounds end early at a fixed point:
    once a round gives back its centroids bit for bit, every later round
    would too.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n == 0 or k < 1:
        raise ConfigError("kmeans needs at least one point and k >= 1")
    k = min(k, n)
    rng = np.random.default_rng(seed)

    # seeding: first uniform, then proportional to squared distance, each
    # distance summed down the columns of a transposed copy
    xt = np.ascontiguousarray(x.T)
    centroids = [x[int(rng.integers(n))]]
    d2 = _pairwise_rows((xt - centroids[0][:, None]) ** 2)
    while len(centroids) < k:
        total = d2.sum()
        if total <= 0.0:
            break  # fewer distinct points than k
        c = x[int(rng.choice(n, p=d2 / total))]
        centroids.append(c)
        d2 = np.minimum(d2, _pairwise_rows((xt - c[:, None]) ** 2))
    c = np.stack(centroids)

    x_sq = (x * x).sum(axis=1)
    for _ in range(KMEANS_ITERS):
        start = c.copy()  # before a reseed writes into c
        labels, best = _nearest(x, x_sq, c)
        counts = np.bincount(labels, minlength=c.shape[0])
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(best))
            c[empty] = x[far]
            labels[far] = empty
            best[far] = 0.0
            counts[empty] = 1
        # row j of the 0/1 matrix sums cluster j's rows in row order from zero,
        # which is np.add.at's arithmetic bit for bit
        members = sparse.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(c.shape[0], n))
        c = (members @ x) / np.bincount(labels, minlength=c.shape[0])[:, None]
        if c.tobytes() == start.tobytes():
            break
    return c, _nearest(x, x_sq, c)[0]


def _pairwise_rows(t: np.ndarray) -> np.ndarray:
    """The column sums of ``t`` by whole-row additions, each bit for bit the
    sum numpy gives that column as one contiguous run: pairwise summation,
    which adds one by one below 8 values, in 8 interleaved partial sums up
    to 128, and halves a longer run."""
    d = len(t)
    if d < 8:
        res = np.zeros(t.shape[1])
        for row in t:
            res += row
        return res
    if d <= 128:
        r = t[:8].copy()
        end = d - d % 8
        for i in range(8, end, 8):
            r += t[i : i + 8]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in t[end:]:
            res += row
        return res
    half = d // 2
    half -= half % 8
    return _pairwise_rows(t[:half]) + _pairwise_rows(t[half:])


def _nearest(x: np.ndarray, x_sq: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid (lowest index on ties) and its squared
    distance ``x_sq - 2 x c^T + |c|^2``, in blocks of ``ASSIGN_BLOCK`` rows
    so the distances stay in cache. Per element the arithmetic and its order
    are those of one whole (n, k) matrix, and the BLAS gives a block the bits
    of those rows of the whole product (``tests/kmeans_loop.py`` checks)."""
    n = x.shape[0]
    c_sq = (c * c).sum(axis=1)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for a in range(0, n, ASSIGN_BLOCK):
        b = min(a + ASSIGN_BLOCK, n)
        dist = x[a:b] @ c.T
        dist *= -2.0
        dist += x_sq[a:b, None]
        dist += c_sq
        labels[a:b] = np.argmin(dist, axis=1)
        best[a:b] = np.take_along_axis(dist, labels[a:b, None], axis=1)[:, 0]
    return labels, best


# ---------------------------------------------------------------------------
# IVFPQ


@dataclass
class IVFPQIndex:
    """Inverted lists over coarse cells + product-quantized residual scoring."""

    db: FingerprintDB
    centroids: np.ndarray  # (n_list, dim) float64
    assignments: np.ndarray  # (n_rows,) int64 coarse cell per row
    cell_rows: np.ndarray  # the inverted file: row ids by cell, ascending within a cell
    cell_starts: np.ndarray  # (n_list + 1,) where each cell's run in cell_rows starts
    codebooks: list[np.ndarray]  # per subspace: (k_eff, sub_dim) float64
    codes: np.ndarray  # (n_rows, m) uint8 codeword per subspace (k_sub <= 256)
    n_probe: int

    @classmethod
    def build(
        cls,
        db: FingerprintDB,
        n_list: int | None = None,
        n_probe: int | None = None,
        m: int | None = None,
        seed: int = 0,
    ) -> "IVFPQIndex":
        """The index of ``db``. Its defaults are the one configuration retrieval
        uses: ceil(sqrt(rows)) cells, probing max(8, cells // 8) of them, and
        the most subspaces, up to 16, that split the dimension evenly."""
        if any(p is not None and p < 1 for p in (m, n_list, n_probe)):
            raise ConfigError(f"need m, n_list, n_probe >= 1, got {m}, {n_list}, {n_probe}")
        if seed < 0:
            raise ConfigError(f"need seed >= 0, got {seed}")
        v = db.matrix.astype(np.float64)
        n, dim = v.shape
        if m is None:
            m = max(d for d in range(1, 17) if dim % d == 0)
        if dim % m:
            raise ConfigError(f"dim {dim} not divisible into {m} subspaces")
        if n_list is None:
            n_list = int(np.ceil(np.sqrt(n)))
        if n_probe is None:
            n_probe = max(8, n_list // 8)
        centroids, assign = kmeans(v, n_list, seed=[seed, 0])
        n_list = centroids.shape[0]
        residuals = v - centroids[assign]
        sub = dim // m
        books = [kmeans(residuals[:, j * sub : (j + 1) * sub], min(256, n), seed=[seed, 1 + j])
                 for j in range(m)]
        return cls(
            db=db,
            centroids=centroids,
            assignments=assign,
            cell_rows=np.argsort(assign, kind="stable"),
            cell_starts=np.r_[0, np.cumsum(np.bincount(assign, minlength=n_list))],
            codebooks=[cb for cb, _ in books],
            codes=np.stack([labels for _, labels in books], axis=1).astype(np.uint8),
            n_probe=min(n_probe, n_list),
        )

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-k rows; same contract as FingerprintDB.search.

        One call probes every query row at once. A row's candidates, the rows
        of its ``n_probe`` best cells (ties to the lower cell), are ranked by
        their quantized score, and the best ``max(RERANK, k)`` of them are
        re-scored with exact inner products, so every returned score is
        exact. Ties at either stage go to the lower row. Rows the probe never
        reached are padded as row -1 / score -inf.
        """
        q = _checked_queries(queries, self.db.dim, k, np.float64)
        n_q, n, m = q.shape[0], self.db.n_rows, self.codes.shape[1]
        k_out, sub = min(k, n), self.db.dim // m
        # stacked matrix-vector products: per query row the same BLAS call,
        # bit for bit, as for the row alone, which one matrix product is not
        cell_scores = np.matmul(self.centroids, q[:, :, None])[..., 0]
        probe = np.argsort(-cell_scores, axis=1, kind="stable")[:, : self.n_probe].ravel()
        # the probed cells' runs of the inverted file, in ascending row order per query row
        sizes = np.diff(self.cell_starts)[probe]
        counts = sizes.reshape(n_q, self.n_probe).sum(axis=1)
        run = np.repeat(self.cell_starts[probe] - np.cumsum(sizes) + sizes, sizes)
        cand_q = np.repeat(np.arange(n_q), counts)
        cand = np.sort(cand_q * n + self.cell_rows[run + np.arange(run.size)]) - cand_q * n
        # the cell score, then the m lookup-table terms in subspace order
        est = cell_scores[cand_q, self.assignments[cand]]
        codes = self.codes.view(f"V{m}")[cand, 0].view(np.uint8).reshape(-1, m).T  # one gather
        lut = np.empty((n_q, 256))  # a code byte picks one of at most 256 codewords
        for j, cb in enumerate(self.codebooks):
            lut[:, : len(cb)] = np.matmul(cb, q[:, j * sub : (j + 1) * sub, None])[..., 0]
            est += lut.ravel()[cand_q * 256 + codes[j]]
        # a (query row, candidate) layout, at least k wide, padded with estimate -inf and row n
        col = np.arange(cand.size) - np.repeat(np.cumsum(counts) - counts, counts)
        neg = np.full((n_q, max(k_out, counts.max(initial=0))), np.inf)
        neg[cand_q, col] = -est
        layout = np.full(neg.shape, n)
        layout[cand_q, col] = cand
        top, _ = smallest_k(neg, min(max(RERANK, k_out), neg.shape[1]))
        rows = np.take_along_axis(layout, top, axis=1)
        # re-scored in float32, each query row's in the order of its estimate;
        # a row's product can change in the last bit with the length of its
        # block, so one call takes the query rows of one block length
        exact = np.full(rows.shape, -np.inf)
        kept = np.minimum(counts, rows.shape[1])
        for c in np.unique(kept[kept > 0]).tolist():
            sel = np.flatnonzero(kept == c)
            q32 = q[sel, :, None].astype(np.float32)
            exact[sel, :c] = np.matmul(self.db.matrix[rows[sel, :c]], q32)[..., 0]
        order = np.lexsort((rows, -exact), axis=1)[:, :k_out]
        rows = np.take_along_axis(rows, order, axis=1)
        return np.where(rows < n, rows, -1), np.take_along_axis(exact, order, axis=1)


# ---------------------------------------------------------------------------
# sequence alignment


# Tempo slopes an alignment may follow: 2^(k/6) for k = -6..6, which spans
# signal.audio's STRETCH_MIN..STRETCH_MAX, the factors training and evaluation
# use. Nearest 1 first, and the lower of each pair first: the order in which
# slopes that tie are preferred.
SLOPES = 2.0 ** (np.array([0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5, -6, 6]) / 6)
# float64 elements in one block of candidate positions sequence_match scores
SCORE_BLOCK = 1 << 16


@dataclass(frozen=True)
class SequenceMatch:
    track_id: str
    offset: int
    score: float
    slope: float  # the alignment's tempo slope: an estimate of the query's factor


def _steps(n: int, slopes: np.ndarray) -> np.ndarray:
    """``round(i·s)``, halves rounded up, for each segment i < n and slope s."""
    return np.floor(np.multiply.outer(np.arange(n), slopes) + 0.5).astype(np.int64)


def _similarity(queries: np.ndarray, track: np.ndarray) -> np.ndarray:
    """Float64 inner products of every query segment with every row of a track.

    A BLAS product of the same two blocks is bit-identical from call to call,
    but a row's products can change in the last bit when it is multiplied as
    part of a longer block, so :func:`alignment_score` and
    :func:`sequence_match` both take theirs from here, one track at a time.
    """
    return queries @ track.astype(np.float64).T


def alignment_score(
    db: FingerprintDB, track_id: str, offset: int, queries: np.ndarray, slope: float = 1.0
) -> float:
    """Sum of inner products along one candidate alignment.

    Query segment i is scored against track segment
    ``offset + round(slope·i)`` (halves rounded up), and the products are
    added in segment order. Positions that fall outside the track are skipped
    at both ends; with none inside, the score is -inf. This is the
    per-candidate loop reference for :func:`sequence_match`.
    """
    track = db.track_vectors(track_id)
    sim = _similarity(np.asarray(queries, dtype=np.float64), track)
    total, inside = 0.0, False
    for i, step in enumerate(_steps(sim.shape[0], np.array([slope]))[:, 0].tolist()):
        if 0 <= offset + step < track.shape[0]:
            total += float(sim[i, offset + step])
            inside = True
    return total if inside else float("-inf")


def sequence_match(
    db: FingerprintDB,
    queries: np.ndarray,
    k: int = 20,
    backend=None,
) -> list[SequenceMatch]:
    """Rank (track, offset) alignments for a run of consecutive segments.

    Candidates come from per-segment top-k retrieval on ``backend`` (the
    database itself by default): a hit of query segment i on track segment j
    proposes, for every slope s in ``SLOPES``, the alignment
    ``(track, j - round(s·i), s)``, so a query stretched by a tempo factor
    still lines up with its source. Each alignment is scored as
    :func:`alignment_score` scores it, bit for bit, by array operations over
    the query's similarity to one candidate track at a time, in blocks of at
    most ``SCORE_BLOCK`` positions (or one candidate's, if longer), so memory
    does not grow with the square of the query length. A (track, offset)
    keeps its best slope; slopes that tie go to the one listed first in
    ``SLOPES``. Results are ordered by (-score, track id, offset). A query of
    L segments cut from the database at its own tempo scores L at its offset,
    with slope 1.
    """
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim != 2:
        raise DataError("queries must be 2-D (segments x dim)")
    rows, _ = (backend or db).search(q, k)
    seg_i, col = np.nonzero(rows >= 0)  # a backend pads rows it never reached with -1
    if seg_i.size == 0:
        return []
    lay, n_s, n = db.tracks.joined(), len(SLOPES), q.shape[0]
    hit = rows[seg_i, col]
    steps = _steps(n, SLOPES)
    hit_track = lay["track"][hit]
    offset = (hit - lay["starts"][hit_track])[:, None] - steps[seg_i]
    # each distinct (track, offset, slope) once, as one sorted key
    lo = int(offset.min())
    span = int(offset.max()) - lo + 1
    key = np.sort((hit_track[:, None] * span + offset - lo) * n_s + np.arange(n_s), axis=None)
    key = key[np.r_[True, key[1:] != key[:-1]]]
    pair, slope = np.divmod(key, n_s)
    track, offset = np.divmod(pair, span)
    offset += lo

    q64 = q.astype(np.float64)
    block = max(1, SCORE_BLOCK // n)
    score = np.empty(key.size)
    cut = np.flatnonzero(np.diff(track)) + 1
    for a, b in zip(np.r_[0, cut].tolist(), np.r_[cut, key.size].tolist()):  # one track
        vectors = db.track_vectors(lay["ids"][track[a]])
        n_t = len(vectors)
        sim = np.zeros((n, n_t + 2))  # a zero column at either end stands for outside
        sim[:, 1:-1] = _similarity(q64, vectors)
        row_base = (np.arange(n) * (n_t + 2) + 1)[:, None]
        for c0 in range(a, b, block):
            c = slice(c0, min(c0 + block, b))
            pos = steps[:, slope[c]] + offset[c]  # (segment, candidate) track rows
            np.clip(pos, -1, n_t, out=pos)
            pos += row_base
            # a reduction over the slow axis adds segment by segment, as
            # alignment_score does; numpy pairs terms up only along the fast one
            score[c] = np.add.reduce(sim.take(pos), axis=0)

    # each (track, offset)'s best slope: the first top score in SLOPES order
    first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
    group = np.repeat(np.arange(first.size), np.diff(np.r_[first, key.size]))
    top = np.flatnonzero(score == np.maximum.reduceat(score, first)[group])
    best = top[np.r_[True, group[top[1:]] != group[top[:-1]]]]

    ids = lay["ids"]
    matches = [
        SequenceMatch(ids[t], off, s, v)
        for t, off, s, v in zip(
            track[best].tolist(), offset[best].tolist(), score[best].tolist(),
            SLOPES[slope[best]].tolist(),
        )
    ]
    matches.sort(key=lambda sm: (-sm.score, sm.track_id, sm.offset))
    return matches
