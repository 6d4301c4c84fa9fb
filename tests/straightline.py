"""Unbatched, loop-coded reimplementation of the encoder forward pass.

Used as an independent oracle: no batching, no tape, no shared helpers with
the production code. Inference mode only (frozen normalization statistics).
"""
from __future__ import annotations

import math

import numpy as np

BN_EPS = 1e-5


def _mlp_point(vec, prefix, widths, arrays, running):
    h = [float(v) for v in vec]
    for li, width in enumerate(widths):
        w = arrays[f"{prefix}.l{li}.w"]
        gamma = arrays[f"{prefix}.l{li}.gamma"]
        beta = arrays[f"{prefix}.l{li}.beta"]
        rmean = running[f"{prefix}.l{li}.rmean"]
        rvar = running[f"{prefix}.l{li}.rvar"]
        out = []
        for j in range(width):
            s = sum(h[k] * float(w[k, j]) for k in range(len(h)))
            s = float(gamma[j]) * (s - float(rmean[j])) / math.sqrt(
                float(rvar[j]) + BN_EPS
            ) + float(beta[j])
            out.append(s if s > 0.0 else 0.0)
        h = out
    return h


def _canonical(pts):
    return sorted(range(len(pts)), key=lambda i: (-pts[i][2], pts[i][0], pts[i][1]))


def straight_line_fingerprint(arrays, running, config, cloud) -> np.ndarray:
    pts = [(float(p[0]), float(p[1]), float(p[2])) for p in np.asarray(cloud)]
    pts = [pts[i] for i in _canonical(pts)]
    feats: list[list[float]] | None = None

    for si, stage in enumerate((config.stage1, config.stage2), start=1):
        anchors = _canonical(pts)[: stage.n_anchors]
        new_pts = []
        new_feats = []
        for a in anchors:
            branch_out: list[float] = []
            for bi, br in enumerate(stage.branches):
                cand = []
                for p in range(len(pts)):
                    d2 = 0.0
                    for d in range(3):
                        diff = pts[a][d] - pts[p][d]
                        d2 += diff * diff
                    if d2 <= br.radius * br.radius:
                        cand.append((d2, p))
                cand.sort()
                chosen = [p for _, p in cand[: br.group_size]]
                if not chosen:
                    chosen = [a]
                while len(chosen) < br.group_size:
                    chosen.append(chosen[0])
                pooled: list[float] | None = None
                for p in chosen:
                    vec = [pts[p][d] - pts[a][d] for d in range(3)]
                    if feats is not None:
                        vec = vec + feats[p]
                    lifted = _mlp_point(vec, f"s{si}.b{bi}", br.mlp, arrays, running)
                    pooled = (
                        lifted
                        if pooled is None
                        else [max(x, y) for x, y in zip(pooled, lifted)]
                    )
                branch_out.extend(pooled)
            new_pts.append(pts[a])
            new_feats.append(branch_out)
        pts, feats = new_pts, new_feats

    pooled = None
    for p in range(len(pts)):
        vec = list(pts[p]) + feats[p]
        lifted = _mlp_point(vec, "g", config.global_mlp[:-1], arrays, running)
        pooled = lifted if pooled is None else [max(x, y) for x, y in zip(pooled, lifted)]
    li = len(config.global_mlp) - 1
    w = arrays[f"g.l{li}.w"]
    b = arrays[f"g.l{li}.b"]
    pooled = [
        sum(pooled[k] * float(w[k, j]) for k in range(len(pooled))) + float(b[j])
        for j in range(config.global_mlp[-1])
    ]
    norm = math.sqrt(sum(v * v for v in pooled))
    if norm <= 0.0:
        out = [0.0] * len(pooled)
        out[0] = 1.0
        return np.array(out)
    return np.array([v / norm for v in pooled])
