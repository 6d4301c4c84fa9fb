"""Encoder tests: grouping against the all-pairs oracle, the full forward
against a loop-coded reimplementation, permutation bit-exactness, parameter
budget, gradients against finite differences, checkpoint persistence.
"""
from __future__ import annotations

import numpy as np
import pytest
from straightline import straight_line_fingerprint

from peaknetfp import autodiff as ad
from peaknetfp import container
from peaknetfp import reference as ref
from peaknetfp.corpus import make_track
from peaknetfp.encoder import (
    CHECKPOINT,
    DEFAULT_CONFIG,
    INFER_BATCH,
    BranchSpec,
    EncoderConfig,
    PeakEncoder,
    StageSpec,
    canonical_order,
    checkpoint_id,
    query_ball_group,
    query_ball_groups,
    sample_anchors,
)
from peaknetfp.errors import ConfigError, DataError, DecodeError, ShapeError
from peaknetfp.signal.peaks import clip_clouds

TABLE_SETTINGS = [(4, 0.1), (8, 0.2), (16, 0.3), (4, 0.2), (8, 0.3), (16, 0.4)]


def tiny_config() -> EncoderConfig:
    return EncoderConfig(
        stage1=StageSpec(8, (BranchSpec(2, 0.3, (4, 4)), BranchSpec(3, 0.5, (4, 8)))),
        stage2=StageSpec(4, (BranchSpec(2, 0.4, (8, 8)), BranchSpec(3, 0.6, (8, 8)))),
        global_mlp=(8, 6),
    )


def random_cloud(rng, n=256) -> np.ndarray:
    return rng.random((n, 3)).astype(np.float32)


def padded_cloud(rng, n_real: int, n=256) -> np.ndarray:
    """n_real distinct points repeated cyclically, as extract_peaks pads."""
    return random_cloud(rng, n_real)[np.arange(n) % n_real]


def tone_bursts(seconds: float) -> np.ndarray:
    """Short bursts in silence: few local maxima, so clouds get padded."""
    t = np.arange(int(seconds * 8000)) / 8000
    on = (t % 0.9 > 0.3) & (t % 0.9 < 0.32)
    return np.where(on, np.sin(2 * np.pi * 700.0 * t), 0.0).astype(np.float32)


class TestConfig:
    def test_default_shape_summary(self):
        assert DEFAULT_CONFIG.embed_dim == 128
        assert DEFAULT_CONFIG.stage1.n_anchors == 200
        assert DEFAULT_CONFIG.stage2.n_anchors == 100

    def test_radius_must_grow_with_group_size(self):
        with pytest.raises(ConfigError):
            EncoderConfig(
                stage1=StageSpec(8, (BranchSpec(2, 0.5, (4,)), BranchSpec(4, 0.1, (4,)))),
                stage2=StageSpec(4, (BranchSpec(2, 0.2, (4,)),)),
                global_mlp=(4,),
            )

    def test_anchor_counts_must_decrease(self):
        with pytest.raises(ConfigError):
            EncoderConfig(
                stage1=StageSpec(8, (BranchSpec(2, 0.2, (4,)),)),
                stage2=StageSpec(8, (BranchSpec(2, 0.2, (4,)),)),
                global_mlp=(4,),
            )

    @pytest.mark.parametrize(
        "anchors, mlp, global_mlp",
        [
            ((8, 0), (4,), (4,)),
            ((8, -4), (4,), (4,)),
            ((8, 4), (0,), (4,)),
            ((8, 4), (4, -1), (4,)),
            ((8, 4), (4,), (-1, 128)),
            ((8, 4), (4,), (4, 0)),
        ],
    )
    def test_non_positive_sizes_rejected(self, anchors, mlp, global_mlp):
        with pytest.raises(ConfigError):
            EncoderConfig(
                stage1=StageSpec(anchors[0], (BranchSpec(2, 0.2, mlp),)),
                stage2=StageSpec(anchors[1], (BranchSpec(2, 0.2, (4,)),)),
                global_mlp=global_mlp,
            )

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestCanonicalOrderAndAnchors:
    def test_amplitude_descending_with_tf_ties(self):
        pts = np.array(
            [[0.5, 0.1, 0.3], [0.2, 0.9, 0.8], [0.2, 0.1, 0.8], [0.1, 0.1, 0.3]],
            dtype=np.float32,
        )
        got = canonical_order(pts)
        want = np.array(
            [[0.2, 0.1, 0.8], [0.2, 0.9, 0.8], [0.1, 0.1, 0.3], [0.5, 0.1, 0.3]],
            dtype=np.float32,
        )
        np.testing.assert_array_equal(got, want)

    def test_sample_anchors_matches_python_sort(self):
        rng = np.random.default_rng(0)
        pts = random_cloud(rng, 40)
        got = sample_anchors(pts, 10)
        want = sorted(
            range(40), key=lambda i: (-pts[i, 2], pts[i, 0], pts[i, 1])
        )[:10]
        np.testing.assert_array_equal(got, want)

    def test_too_many_anchors_rejected(self):
        with pytest.raises(ShapeError):
            sample_anchors(np.zeros((4, 3), dtype=np.float32), 5)

    @pytest.mark.parametrize("config", [tiny_config(), DEFAULT_CONFIG])
    def test_stage_anchors_are_sample_anchors(self, config):
        # random clouds, padded ones (duplicate points) and ones with
        # amplitude ties on a coarse grid
        rng = np.random.default_rng(4)
        n = 2 * config.stage1.n_anchors
        clouds = [random_cloud(rng, n), padded_cloud(rng, 5, n)]
        clouds.append(np.round(random_cloud(rng, n) * 4) / 4)
        model = PeakEncoder(config, seed=0)
        xyz1 = np.stack([canonical_order(c) for c in clouds])
        xyz2, feats = model._stage(xyz1, None, config.stage1, "s1", training=False)
        xyz3, _ = model._stage(xyz2, feats, config.stage2, "s2", training=False)
        for stage_in, stage_out, spec in ((xyz1, xyz2, config.stage1), (xyz2, xyz3, config.stage2)):
            for pts, anchors in zip(stage_in, stage_out):
                idx = sample_anchors(pts, spec.n_anchors)
                np.testing.assert_array_equal(idx, np.arange(spec.n_anchors))
                np.testing.assert_array_equal(anchors, pts[idx])


class TestQueryBall:
    def test_single_neighbor_padded_to_group(self):
        # anchor 0 has one neighbor besides itself within the radius; the
        # group is filled by repeating the first (nearest) qualifying index.
        # Anchor 1 is equidistant from 0 and 2: the lower index comes first
        points = np.array(
            [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.5, 0.0, 0.0]], dtype=np.float32
        )
        groups = query_ball_group(np.array([0, 1]), points, 0.3, 4)
        np.testing.assert_array_equal(groups, [[0, 1, 0, 0], [1, 0, 2, 1]])

    def test_member_anchor_groups_with_itself_when_isolated(self):
        points = np.array(
            [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [9.0, 9.0, 9.0]], dtype=np.float32
        )
        groups = query_ball_group(np.array([1]), points, 0.01, 3)
        np.testing.assert_array_equal(groups, [[1, 1, 1]])

    @pytest.mark.parametrize("group_size,radius", TABLE_SETTINGS)
    def test_matches_all_pairs_oracle(self, group_size, radius):
        rng = np.random.default_rng(group_size * 100 + int(radius * 10))
        # random clouds, then cyclically padded ones: their duplicated points
        # put runs of equal distances across the group boundary
        clouds = [random_cloud(rng, 64) for _ in range(10)]
        clouds += [padded_cloud(rng, n_real, 64) for n_real in (3, 5, 7, 13, 30)]
        for pts in clouds:
            anchors = sample_anchors(pts, 24)
            got = query_ball_group(anchors, pts, radius, group_size)
            want = ref.naive_query_ball(anchors, pts, radius, group_size)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stage", [DEFAULT_CONFIG.stage1, DEFAULT_CONFIG.stage2])
    def test_stage_groups_match_oracle_per_branch(self, stage):
        rng = np.random.default_rng(stage.n_anchors)
        n_points = 256 if stage is DEFAULT_CONFIG.stage1 else DEFAULT_CONFIG.stage1.n_anchors
        branches = [(br.radius, br.group_size) for br in stage.branches]
        for pts in (random_cloud(rng, n_points), padded_cloud(rng, 37, n_points)):
            anchors = sample_anchors(pts, stage.n_anchors)
            groups = query_ball_groups(anchors, pts, branches)
            assert len(groups) == len(branches)
            for (radius, group_size), got in zip(branches, groups):
                want = ref.naive_query_ball(anchors, pts, radius, group_size)
                np.testing.assert_array_equal(got, want)

    def test_nan_point_never_joins_a_group(self):
        rng = np.random.default_rng(11)
        pts = random_cloud(rng, 40)
        pts[[3, 17], 1] = np.nan
        anchors = np.arange(0, 40, 2)
        got = query_ball_group(anchors, pts, 0.4, 8)
        want = ref.naive_query_ball(anchors, pts, 0.4, 8)
        np.testing.assert_array_equal(got, want)


class TestEncoderForward:
    def test_parameter_count_near_budget(self):
        model = PeakEncoder()
        count = model.parameter_count()
        # frozen from the layer arithmetic by hand: 173,504 less the biases of
        # the normalized layers, whose widths sum to 336 + 640 + 384
        assert count == 172_144
        assert abs(count - 169_000) / 169_000 < 0.05
        assert len(model.params) == 62
        assert [name for name in model.params if name.endswith(".b")] == ["g.l2.b"]

    def test_unit_norm_fingerprints(self):
        rng = np.random.default_rng(1)
        model = PeakEncoder(seed=1)
        clouds = np.stack([random_cloud(rng) for _ in range(4)])
        fps = model.fingerprints(clouds)
        assert fps.shape == (4, 128)
        assert fps.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(fps, axis=1), 1.0, atol=1e-5)

    def test_permutation_bit_exact(self):
        rng = np.random.default_rng(2)
        model = PeakEncoder(seed=2)
        cloud = random_cloud(rng)
        base = model.fingerprints(cloud[None])[0]
        for _ in range(5):
            shuffled = cloud[rng.permutation(256)]
            np.testing.assert_array_equal(model.fingerprints(shuffled[None])[0], base)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        model = PeakEncoder(seed=3)
        clouds = np.stack([random_cloud(rng) for _ in range(3)])
        batched = model.fingerprints(clouds)
        singles = np.stack([model.fingerprints(c[None])[0] for c in clouds])
        np.testing.assert_allclose(batched, singles, rtol=1e-5, atol=1e-6)

    def test_untaped_inference_bit_equal_to_taped_encode(self):
        model = PeakEncoder(seed=0)
        clouds = np.concatenate(
            [clip_clouds(make_track(0, seconds=4.0)), clip_clouds(tone_bursts(3.0))]
        )
        assert len(np.unique(clouds[-1], axis=0)) < clouds.shape[1]
        running = {k: v.copy() for k, v in model.running.items()}
        emb = model.encode(clouds, training=False)  # grad is enabled here
        assert not emb.requires_grad
        assert emb.data.tobytes() == model.fingerprints(clouds).tobytes()
        for k, v in running.items():
            assert model.running[k].tobytes() == v.tobytes(), k

    def test_chunks_equal_a_single_pass_bytes(self, monkeypatch):
        model = PeakEncoder(seed=0)
        clouds = clip_clouds(make_track(1, seconds=33.0))[:65]
        assert len(clouds) == 65
        with monkeypatch.context() as m:
            m.setattr("peaknetfp.encoder.INFER_BATCH", 10**6)
            single = model.fingerprints(clouds)
        # 59 clouds are a 30 s track's ingest; 65 left a one-cloud pass before
        for n in [*range(2, 21), 59, 65]:
            assert model.fingerprints(clouds[:n]).tobytes() == single[:n].tobytes(), n

    def test_chunks_near_equal_and_never_one_cloud(self, monkeypatch):
        sizes = []

        def encode(self, clouds, training=False):
            sizes.append(len(clouds))
            return ad.Tensor(clouds[:, 0, :1] + 1.0)  # the cloud's index + 1

        monkeypatch.setattr(PeakEncoder, "encode", encode)
        model = PeakEncoder(config=tiny_config())
        for n in range(1, 100):
            sizes.clear()
            clouds = np.broadcast_to(np.arange(n, dtype=np.float32)[:, None, None], (n, 2, 3))
            assert model.fingerprints(clouds)[:, 0].tolist() == list(range(1, n + 1))
            assert len(sizes) == -(-n // INFER_BATCH), n
            assert max(sizes) <= INFER_BATCH and max(sizes) - min(sizes) <= 1, (n, sizes)
            assert n == 1 or min(sizes) >= 2, (n, sizes)

    def test_zero_cloud_gets_fixed_unit_direction(self):
        model = PeakEncoder(seed=0)
        fp = model.fingerprints(np.zeros((1, 256, 3), dtype=np.float32))[0]
        assert np.linalg.norm(fp) == pytest.approx(1.0, abs=1e-6)

    def test_too_few_points_rejected(self):
        model = PeakEncoder(seed=0)
        with pytest.raises(ShapeError):
            model.fingerprints(np.zeros((1, 100, 3), dtype=np.float32))

    def test_bad_shape_rejected(self):
        model = PeakEncoder(seed=0)
        with pytest.raises(ShapeError):
            model.fingerprints(np.zeros((1, 256, 4), dtype=np.float32))


class TestStraightLineOracle:
    def test_matches_loop_reimplementation(self):
        rng = np.random.default_rng(4)
        model = PeakEncoder(config=tiny_config(), seed=4, dtype=np.float64)
        # non-trivial frozen stats and affine parameters
        for name, p in model.params.items():
            if name.endswith((".gamma", ".beta")):
                p.data = rng.uniform(0.5, 1.5, p.data.shape)
        for name in model.running:
            if name.endswith(".rmean"):
                model.running[name] = rng.uniform(-0.2, 0.2, model.running[name].shape)
            else:
                model.running[name] = rng.uniform(0.5, 2.0, model.running[name].shape)
        arrays = {k: p.data for k, p in model.params.items()}
        for _ in range(3):
            cloud = rng.random((16, 3))
            got = model.encode(cloud[None], training=False).data[0]
            want = straight_line_fingerprint(arrays, model.running, model.config, cloud)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


class TestEncoderGradients:
    def test_finite_difference_through_tiny_encoder(self):
        rng = np.random.default_rng(5)
        model = PeakEncoder(config=tiny_config(), seed=5, dtype=np.float64)
        clouds = rng.random((2, 16, 3))
        mask = rng.normal(size=(2, 6))

        def loss_value() -> float:
            emb = model.encode(clouds, training=True)
            return float(ad.reduce_sum(ad.mul(emb, ad.constant(mask))).data)

        emb = model.encode(clouds, training=True)
        loss = ad.reduce_sum(ad.mul(emb, ad.constant(mask)))
        ad.zero_grads(model.params.values())
        loss.backward()
        h = 1e-5
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                keep = flat[i]
                flat[i] = keep + h
                hi = loss_value()
                flat[i] = keep - h
                lo = loss_value()
                flat[i] = keep
                fd = (hi - lo) / (2 * h)
                assert gflat[i] == pytest.approx(fd, rel=1e-4, abs=1e-7), name


class TestCheckpointPersistence:
    def test_roundtrip_preserves_fingerprints_and_config(self, tmp_path):
        rng = np.random.default_rng(6)
        model = PeakEncoder(config=tiny_config(), seed=6)
        path = tmp_path / "enc.ckpt"
        model.save(path)
        clone = PeakEncoder.from_checkpoint(path)
        assert clone.config == model.config
        cloud = rng.random((16, 3)).astype(np.float32)
        np.testing.assert_array_equal(clone.fingerprints(cloud[None]), model.fingerprints(cloud[None]))

    def test_checkpoint_id_stable_and_content_sensitive(self, tmp_path):
        model = PeakEncoder(config=tiny_config(), seed=7)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(p1)
        model.save(p2)
        assert checkpoint_id(p1) == checkpoint_id(p2)
        other = PeakEncoder(config=tiny_config(), seed=8)
        other.save(p2)
        assert checkpoint_id(p1) != checkpoint_id(p2)

    def test_pinned_config_keys_load_only_at_their_value(self, tmp_path):
        # checkpoints from before these options were pinned store them
        model = PeakEncoder(config=tiny_config(), seed=10)
        arrays, meta = model.state()
        stored = {**meta["config"], "distance_mode": "3d", "bn_eps": 1e-5, "bn_momentum": 0.1}
        path = tmp_path / "old.ckpt"
        container.write(path, CHECKPOINT, arrays, {"config": stored})
        cloud = np.random.default_rng(10).random((16, 3)).astype(np.float32)
        old = PeakEncoder.from_checkpoint(path)
        np.testing.assert_array_equal(old.fingerprints(cloud[None]), model.fingerprints(cloud[None]))
        for key, value in (("distance_mode", "2d"), ("bn_eps", 1e-3), ("bn_momentum", 0.01)):
            container.write(path, CHECKPOINT, arrays, {"config": {**stored, key: value}})
            with pytest.raises(DecodeError, match=key):
                PeakEncoder.from_checkpoint(path)

    @staticmethod
    def _biased_state(model, seed):
        """The model's state as a checkpoint from before normalized layers lost
        their bias: a random ``p/<layer>.b`` and the running mean raised by it."""
        rng = np.random.default_rng(seed)
        arrays, meta = model.state()
        for name in model.running:
            if name.endswith(".rmean"):
                layer = name.removesuffix(".rmean")
                bias = rng.normal(scale=0.5, size=arrays[f"r/{name}"].shape).astype(np.float32)
                arrays[f"p/{layer}.b"] = bias
                arrays[f"r/{name}"] = arrays[f"r/{name}"] + bias
        return arrays, meta

    def test_normalized_layer_bias_folds_into_running_mean(self, tmp_path):
        rng = np.random.default_rng(11)
        model = PeakEncoder(config=tiny_config(), seed=11)
        for name in model.running:
            lo, hi = (-0.2, 0.2) if name.endswith(".rmean") else (0.5, 2.0)
            model.running[name] = rng.uniform(lo, hi, model.running[name].shape).astype(np.float32)
        arrays, meta = self._biased_state(model, 12)
        assert sum(k.endswith(".b") for k in arrays) == 10  # 9 normalized layers and g.l1
        path = tmp_path / "biased.ckpt"
        container.write(path, CHECKPOINT, arrays, meta)
        clouds = rng.random((4, 16, 3)).astype(np.float32)
        old = PeakEncoder.from_checkpoint(path)
        assert old.params.keys() == model.params.keys()
        np.testing.assert_allclose(old.fingerprints(clouds), model.fingerprints(clouds), atol=1e-5)

    @pytest.mark.parametrize("bad", ["shape", "nan"])
    def test_bad_normalized_layer_bias_rejected(self, bad):
        model = PeakEncoder(config=tiny_config(), seed=13)
        arrays, _ = self._biased_state(model, 14)
        key = "p/s2.b1.l0.b"
        if bad == "shape":
            arrays[key] = arrays[key][:-1]
        else:
            arrays[key][1] = np.nan
        with pytest.raises(DecodeError, match="s2.b1.l0.rmean"):
            model.load_state(arrays)

    def test_missing_parameter_rejected(self, tmp_path):
        model = PeakEncoder(config=tiny_config(), seed=9)
        arrays, _ = model.state()
        arrays.pop("p/g.l0.w")
        with pytest.raises(DataError):
            model.load_state(arrays)
        # a non-finite parameter or running statistic is refused the same way
        for key in ("p/g.l0.w", "r/g.l0.rvar"):
            arrays, _ = model.state()
            arrays[key].flat[0] = np.nan
            with pytest.raises(DecodeError, match="non-finite"):
                model.load_state(arrays)
