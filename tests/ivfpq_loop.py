"""Per-query-row loop reference for ``IVFPQIndex.search``.

Used as an oracle: one query row at a time, each probed cell's rows found by
scanning the coarse assignments, no shared helpers with the batched search.
Its rows and scores are the ones ``IVFPQIndex.search`` must return, byte for
byte.
"""
from __future__ import annotations

import numpy as np

from peaknetfp.index import RERANK


def loop_search(index, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Probe the ``n_probe`` best cells of each query row, rank their rows by
    cell score plus the ``m`` lookup-table terms, added in subspace order,
    re-score the best ``max(RERANK, k)`` exactly in float32 and keep the top
    k; ties go to the lower row. Unreached slots are row -1 / score -inf."""
    q = np.asarray(queries, dtype=np.float64)
    db = index.db
    m = index.codes.shape[1]
    sub = db.dim // m
    k_out = min(k, db.n_rows)
    lists = [np.flatnonzero(index.assignments == c) for c in range(index.centroids.shape[0])]
    rows_out = np.full((q.shape[0], k_out), -1, dtype=np.int64)
    scores_out = np.full((q.shape[0], k_out), -np.inf)
    q32 = q.astype(np.float32)
    for qi in range(q.shape[0]):
        cell_scores = index.centroids @ q[qi]
        probe = np.argsort(-cell_scores, kind="stable")[: index.n_probe]
        rows = np.concatenate([lists[p] for p in probe])
        if rows.size == 0:
            continue
        est = cell_scores[index.assignments[rows]].copy()
        for j in range(m):
            lut = index.codebooks[j] @ q[qi, j * sub : (j + 1) * sub]
            est += lut[index.codes[rows, j]]
        rows = rows[np.lexsort((rows, -est))[: max(RERANK, k_out)]]
        est = db.matrix[rows] @ q32[qi]
        order = np.lexsort((rows, -est))[:k_out]
        rows_out[qi, : order.size] = rows[order]
        scores_out[qi, : order.size] = est[order]
    return rows_out, scores_out
