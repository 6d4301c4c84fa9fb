"""Acceptance battery: nine end-to-end checks, one live scorecard line each.

Every test prints its verdict through ``capsys.disabled()`` so a plain
``pytest -v`` run shows the scorecard inline, then asserts.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from peaknetfp import autodiff as ad
from peaknetfp import reference as ref
from peaknetfp.corpus import make_corpus, make_track
from peaknetfp.encoder import DEFAULT_CONFIG, PeakEncoder, query_ball_group
from peaknetfp.evaluate import EvalConfig, run_sweep
from peaknetfp.index import FingerprintDB, IVFPQIndex
from peaknetfp.quadfp import HASH_EPSILON, QuadDB, box_matches, quad_hash
from peaknetfp.signal.peaks import PeakEntry, clip_clouds, extract_peaks, write_peaks
from peaknetfp.training import SegmentDataset, TrainConfig, ntxent_loss, train

from conftest import small_encoder_config


def _verdict(capsys, ok: bool, label: str, detail: str = "") -> None:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} — {label}"
    if detail:
        line += f": {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


# -- 1: gradients -------------------------------------------------------------


def _primitive_fd_error() -> float:
    """Worst relative FD error across one case per differentiable primitive."""
    rng = np.random.default_rng(100)

    def r(*shape):
        return rng.uniform(-1.0, 1.0, shape)

    # weights are hoisted out of the lambdas so every probe of one case sees
    # the same fixed projection, not a fresh random draw
    w34, w43, w26 = r(3, 4), r(4, 3), r(2, 6)
    w38, w4, w234, w53, w63 = r(3, 8), r(4), r(2, 3, 4), r(5, 3), r(6, 3)
    relu_in = r(3, 4)
    relu_in += np.sign(relu_in) * 0.06
    spaced = (rng.permutation(12).reshape(3, 4) * 0.1).astype(np.float64)
    gather_idx = np.array([[0, 2, 1], [2, 2, 0]])
    cases = [
        (lambda t: ad.reduce_sum(ad.matmul(t["a"], t["b"])), {"a": r(3, 4), "b": r(4, 2)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.add(t["a"], t["b"]), ad.constant(w34))), {"a": r(3, 4), "b": r(3, 4)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.sub(t["a"], t["b"]), t["a"])), {"a": r(3, 4), "b": r(3, 4)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.linear(t["x"], t["w"], t["b"]), ad.constant(w26))), {"x": r(2, 4), "w": r(4, 6), "b": r(6)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.transpose(t["a"]), ad.constant(w43))), {"a": r(3, 4)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.relu(t["a"]), ad.constant(w34))), {"a": relu_in}),
        (lambda t: ad.reduce_sum(ad.mul(ad.concat([t["a"], t["b"]], 1), ad.constant(w38))), {"a": r(3, 4), "b": r(3, 4)}),
        (lambda t: ad.reduce_sum(ad.reduce_max(t["a"], 1)), {"a": spaced}),
        (lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t["a"], 0), ad.constant(w4))), {"a": r(3, 4)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.log_softmax(t["a"], 1), ad.constant(w34))), {"a": r(3, 4) * 3.0}),
        (lambda t: ad.reduce_sum(ad.mul(ad.l2_normalize(t["a"], 1), ad.constant(w34))), {"a": r(3, 4) + np.sign(r(3, 4))}),
        (lambda t: ad.reduce_sum(ad.mul(ad.reshape(t["a"], (4, 3)), ad.constant(w43))), {"a": r(3, 4)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.gather_rows(t["a"], gather_idx), ad.constant(w234))), {"a": r(3, 4)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.scale_bias(t["x"], t["s"], t["b"]), ad.constant(w53))), {"x": r(5, 3), "s": r(3), "b": r(3)}),
        (lambda t: ad.reduce_sum(ad.mul(ad.batch_norm(t["x"], t["g"], t["b"])[0], ad.constant(w63))), {"x": r(6, 3), "g": rng.uniform(0.5, 1.5, 3), "b": r(3)}),
    ]
    worst = 0.0
    for build, arrays in cases:
        tensors = {k: ad.Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
        build(tensors).backward()

        def f(arrs, build=build):
            return float(build({k: ad.Tensor(a.copy()) for k, a in arrs.items()}).data)

        fd = ref.finite_difference_grad(f, {k: v.copy() for k, v in arrays.items()})
        for k in arrays:
            denom = np.maximum(np.abs(fd[k]), 1e-3)
            worst = max(worst, float(np.max(np.abs(tensors[k].grad - fd[k]) / denom)))
    return worst


def _composite_fd_error() -> float:
    """Sampled FD over the full small-encoder + contrastive-loss graph."""
    model = PeakEncoder(small_encoder_config(), seed=3, dtype=np.float64)
    rng = np.random.default_rng(7)
    clouds = rng.random((4, 48, 3))

    def loss_value() -> float:
        return float(ntxent_loss(model.encode(clouds, training=True), 0.1).data)

    ad.zero_grads(model.params.values())
    loss = ntxent_loss(model.encode(clouds, training=True), 0.1)
    loss.backward()

    h = 1e-5
    worst = 0.0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value()
            flat[idx] = keep - h
            down = loss_value()
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            grad = p.grad.reshape(-1)[idx]
            worst = max(worst, abs(grad - fd) / max(abs(fd), 1e-3))
    return worst


def test_gradients_match_finite_differences(capsys):
    t0 = time.monotonic()
    prim = _primitive_fd_error()
    comp = _composite_fd_error()
    elapsed = time.monotonic() - t0
    ok = prim < 1e-5 and comp < 1e-4 and elapsed < 60
    _verdict(
        capsys,
        ok,
        "gradients match central finite differences",
        f"primitives worst rel {prim:.2e}, encoder+loss composite {comp:.2e}, {elapsed:.1f}s",
    )


# -- 2: contrastive loss ------------------------------------------------------


def test_contrastive_loss_matches_loop_reference(capsys):
    rng = np.random.default_rng(200)
    taus = (0.05, 0.1, 1.0)
    worst = 0.0
    for trial in range(100):
        n_pairs = 2 + trial % 7
        tau = taus[trial % 3]
        z = rng.normal(size=(2 * n_pairs, 24))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        ours = float(ntxent_loss(ad.Tensor(z), tau).data)
        worst = max(worst, abs(ours - ref.naive_ntxent(z, tau)))

    # two identical pairs on orthogonal axes at unit temperature: each of the
    # four rows sees similarity 1 to its partner and 0 to both others
    z = np.zeros((4, 8))
    z[0, 0] = z[1, 0] = 1.0
    z[2, 1] = z[3, 1] = 1.0
    hand = -math.log(math.e / (math.e + 2.0))
    pinned = abs(float(ntxent_loss(ad.Tensor(z), 1.0).data) - hand)

    ok = worst < 1e-6 and pinned < 1e-9
    _verdict(
        capsys,
        ok,
        "contrastive loss equals the loop reference over 100 random batches",
        f"worst abs diff {worst:.2e}; orthogonal-pairs value off by {pinned:.1e}",
    )


# -- 3: peak extraction -------------------------------------------------------


def test_peak_extraction_matches_brute_force(capsys):
    rng = np.random.default_rng(300)
    mismatches = 0
    for trial in range(100):
        spec = rng.random((256, 32)).astype(np.float32)
        if trial % 2:
            spec = np.round(spec, 2)  # force plateaus and amplitude ties
        if not np.array_equal(extract_peaks(spec), ref.naive_cloud(spec, 256)):
            mismatches += 1
    _verdict(
        capsys,
        mismatches == 0,
        "peak extraction is bit-exact against the brute-force scan",
        f"100 spectrogram-shaped matrices, {mismatches} mismatches",
    )


# -- 4: neighborhood grouping -------------------------------------------------


def test_neighborhood_grouping_matches_brute_force(capsys):
    settings = []
    for stage in (DEFAULT_CONFIG.stage1, DEFAULT_CONFIG.stage2):
        for branch in stage.branches:
            settings.append((stage.n_anchors, branch.group_size, branch.radius))
    rng = np.random.default_rng(400)
    mismatches = 0
    for trial in range(100):
        n_anchors, group_size, radius = settings[trial % len(settings)]
        points = rng.random((max(256, n_anchors), 3)).astype(np.float32)
        anchors = rng.choice(points.shape[0], size=n_anchors, replace=False)
        got = query_ball_group(anchors, points, radius, group_size)
        want = ref.naive_query_ball(anchors, points, radius, group_size)
        if not np.array_equal(got, want):
            mismatches += 1
    _verdict(
        capsys,
        mismatches == 0,
        "neighborhood grouping is bit-exact against the all-pairs scan",
        f"100 clouds over {len(settings)} (group size, radius) settings, {mismatches} mismatches",
    )


# -- 5: fingerprint function invariants ---------------------------------------


def test_fingerprint_invariants(capsys):
    model = PeakEncoder(seed=0)
    count = model.parameter_count()
    count_ok = abs(count - 169_000) / 169_000 <= 0.05

    clouds = clip_clouds(make_track(0, 6.0, seed=77))
    base = model.fingerprints(clouds[2])
    rng = np.random.default_rng(500)
    perm_ok = all(
        np.array_equal(base, model.fingerprints(clouds[2][rng.permutation(256)]))
        for _ in range(50)
    )

    all_prints = model.fingerprints(clouds)
    norms = np.linalg.norm(all_prints, axis=1)
    norm_err = float(np.abs(norms - 1.0).max())

    ok = count_ok and perm_ok and norm_err < 1e-5
    _verdict(
        capsys,
        ok,
        "fingerprints are permutation-invariant unit vectors from a ~169k-parameter model",
        f"{count} parameters, 50/50 permutations bit-exact={perm_ok}, max norm error {norm_err:.1e}",
    )


# -- 6: quad hashes -----------------------------------------------------------


def test_quad_hash_invariance_and_grid_lookup(capsys):
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(1000):
        ax, ay = rng.uniform(0, 5), rng.uniform(20, 120)
        dt = rng.uniform(0.3, 1.8)
        df = rng.uniform(20, 120) * rng.choice((-1.0, 1.0))
        b = np.array([ax + dt, ay + df])
        inner = rng.uniform(0.05, 0.95, size=(2, 2))
        c = np.array([ax + dt * inner[0, 0], ay + df * inner[0, 1]])
        d = np.array([ax + dt * inner[1, 0], ay + df * inner[1, 1]])
        a = np.array([ax, ay])
        h0 = quad_hash(a, b, c, d)
        sx, sy = rng.uniform(0.5, 2.0, size=2)
        scale = np.array([sx, sy])
        h1 = quad_hash(a * scale, b * scale, c * scale, d * scale)
        worst = max(worst, float(np.abs(h0 - h1).max()))

    hashes = rng.random((2000, 4))
    db = QuadDB()
    db.add_track_quads(
        "t", {"hash": hashes, "t0": np.zeros(2000), "dt": np.full(2000, 0.5)}
    )
    grid_ok = all(
        np.array_equal(db.candidates(q), box_matches(hashes, q, HASH_EPSILON))
        for q in rng.random((100, 4))
    )

    ok = worst <= 1e-9 and grid_ok
    _verdict(
        capsys,
        ok,
        "quad hashes invariant under per-axis scalings; grid lookup equals linear scan",
        f"1000 quads, worst drift {worst:.1e}; 100 range queries agree={grid_ok}",
    )


# -- 7: retrieval chain -------------------------------------------------------


def test_retrieval_exactness_and_recall(capsys):
    rng = np.random.default_rng(700)

    mips_ok = True
    for trial in range(100):
        n, dim, k = 50 + trial, 16 + 8 * (trial % 3), 1 + trial % 10
        v = rng.normal(size=(n, dim)).astype(np.float32)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        db = FingerprintDB()
        db.add_track("t", v)
        q = rng.normal(size=dim).astype(np.float32)
        q /= np.linalg.norm(q)
        rows, scores = db.search(q[None], k=k)
        want = ref.naive_mips(db.matrix, q, k)
        if list(rows[0]) != [r for r, _ in want]:
            mips_ok = False
        if not np.allclose(scores[0], [s for _, s in want], rtol=1e-5):
            mips_ok = False

    v = rng.normal(size=(2000, 128)).astype(np.float32)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    big = FingerprintDB()
    big.add_track("t", v)
    q = rng.normal(size=(20, 128)).astype(np.float32)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    exact_rows, _ = big.search(q, k=20)
    degenerate = IVFPQIndex.build(big, n_list=32, n_probe=32, m=128, seed=0)
    deg_rows, _ = degenerate.search(q, k=20)
    degenerate_ok = all(np.array_equal(deg_rows[i], exact_rows[i]) for i in range(20))

    # unit vectors drawn around latent centers, the structure trained
    # fingerprints have; an isotropic cloud admits no sublinear index
    centers = rng.normal(size=(200, 128))
    v = centers[np.repeat(np.arange(200), 50)] + 0.35 * rng.normal(size=(10000, 128))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    clustered = FingerprintDB()
    clustered.add_track("t", v)
    pick = rng.choice(10000, size=50, replace=False)
    noisy = clustered.matrix[pick] + 0.05 * rng.normal(size=(50, 128)).astype(np.float32)
    q = (noisy / np.linalg.norm(noisy, axis=1, keepdims=True)).astype(np.float32)
    exact_rows, _ = clustered.search(q, k=20)
    approx = IVFPQIndex.build(clustered, seed=0)
    approx_rows, _ = approx.search(q, k=20)
    recall = float(
        np.mean(
            [len(set(approx_rows[i]) & set(exact_rows[i])) / 20.0 for i in range(50)]
        )
    )

    ok = mips_ok and degenerate_ok and recall >= 0.9
    _verdict(
        capsys,
        ok,
        "exact search matches brute force; compressed index exact when degenerate, recall ≥ 0.9 at defaults",
        f"100 instances exact={mips_ok}, degenerate rows equal={degenerate_ok}, recall@20 {recall:.3f}",
    )


# -- 8: end-to-end identification ---------------------------------------------


def test_end_to_end_identification(capsys, desk):
    cfg = EvalConfig(
        factors=(0.5, 0.9, 1.0, 1.1, 2.0), lengths=(10.0,), n_queries=10, seed=0
    )
    rep = run_sweep(cfg, desk.tracks, model=desk.model, db=desk.db)
    hr = {c["factor"]: c["hr_at_1"] for c in rep.cells}

    qcfg = EvalConfig(
        system="quadfp", factors=(0.5, 2.0), lengths=(10.0,), n_queries=10, seed=0
    )
    qrep = run_sweep(qcfg, desk.tracks, quad_db=desk.quad_db)
    qhr = {c["factor"]: c["hr_at_1"] for c in qrep.cells}

    time_ok = desk.build_seconds < 1800
    control_ok = hr[1.0] == 1.0
    mild_ok = hr[0.9] >= 0.9 and hr[1.1] >= 0.9
    extreme_ok = hr[0.5] > qhr[0.5] and hr[2.0] > qhr[2.0]

    ok = time_ok and control_ok and mild_ok and extreme_ok
    _verdict(
        capsys,
        ok,
        "end-to-end: perfect on unstretched queries, robust at ±10%, ahead of the quad baseline at 2x",
        f"built in {desk.build_seconds:.0f}s; HR@1 {hr[1.0]:.2f}@1.0, "
        f"{hr[0.9]:.2f}@0.9, {hr[1.1]:.2f}@1.1; extremes {hr[0.5]:.2f}/{hr[2.0]:.2f} "
        f"vs quad {qhr[0.5]:.2f}/{qhr[2.0]:.2f}",
    )


# -- 9: determinism -----------------------------------------------------------


def test_bit_identical_reruns(capsys, tmp_path, eval_rig):
    clouds = clip_clouds(make_track(0, 6.0, seed=123))
    entries = [PeakEntry("t", i, clouds[i]) for i in range(clouds.shape[0])]
    write_peaks(tmp_path / "a.peaks", entries)
    write_peaks(tmp_path / "b.peaks", entries)
    peaks_ok = (tmp_path / "a.peaks").read_bytes() == (tmp_path / "b.peaks").read_bytes()

    tracks = make_corpus(n_tracks=2, seconds=8.0, seed=9)
    dataset = SegmentDataset(tracks)
    tcfg = TrainConfig(pairs_per_batch=2, epochs=1, steps_per_epoch=10, seed=5)
    logs = []
    for run in ("a", "b"):
        train(
            dataset,
            tcfg,
            model=PeakEncoder(small_encoder_config(), seed=tcfg.seed),
            log_path=tmp_path / f"{run}.log.jsonl",
        )
        lines = (tmp_path / f"{run}.log.jsonl").read_text().splitlines()
        logs.append(
            [
                {k: v for k, v in json.loads(line).items() if k != "wall_time"}
                for line in lines
            ]
        )
    logs_ok = len(logs[0]) == 10 and logs[0] == logs[1]

    ecfg = EvalConfig(factors=(1.0, 1.2), lengths=(2.0,), n_queries=3, seed=6)
    for run in ("a", "b"):
        rep = run_sweep(ecfg, eval_rig.tracks, model=eval_rig.model, db=eval_rig.db)
        rep.write_jsonl(tmp_path / f"{run}.report.jsonl")
    reports_ok = (
        (tmp_path / "a.report.jsonl").read_bytes()
        == (tmp_path / "b.report.jsonl").read_bytes()
    )

    ok = peaks_ok and logs_ok and reports_ok
    _verdict(
        capsys,
        ok,
        "reruns with identical seeds are bit-identical",
        f"peak files={peaks_ok}, 10-step train logs (timing stripped)={logs_ok}, "
        f"evaluation reports={reports_ok}",
    )
