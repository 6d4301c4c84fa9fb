"""Contrastive loss, pair dataset, and training-loop behavior."""
import gc
import json
import math

import numpy as np
import pytest

import peaknetfp.autodiff as ad
import peaknetfp.container as container
import peaknetfp.reference as ref
from peaknetfp.encoder import CHECKPOINT, BranchSpec, EncoderConfig, PeakEncoder, StageSpec
from peaknetfp.errors import (
    ConfigError,
    ContractError,
    DataError,
    DecodeError,
    TrainingDiverged,
)
from peaknetfp.signal.peaks import extract_peaks
from peaknetfp.signal.spectral import fit_frames, melspectrogram
from peaknetfp.training import (
    SegmentDataset,
    TrainConfig,
    build_batch,
    diagonal_mask,
    ntxent_loss,
    positive_pair_mask,
    train,
    _cosine_lr,
    _full_state,
    _restore_opt,
)


def tiny_config() -> EncoderConfig:
    return EncoderConfig(
        stage1=StageSpec(
            n_anchors=8,
            branches=(
                BranchSpec(group_size=2, radius=0.3, mlp=(4, 4)),
                BranchSpec(group_size=3, radius=0.5, mlp=(4, 8)),
            ),
        ),
        stage2=StageSpec(
            n_anchors=4,
            branches=(
                BranchSpec(group_size=2, radius=0.4, mlp=(8, 8)),
                BranchSpec(group_size=3, radius=0.6, mlp=(8, 8)),
            ),
        ),
        global_mlp=(8, 6),
    )


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def make_tracks(n_tracks: int, seconds: float, seed: int = 0) -> list:
    """Synthetic material: a few decaying partials over a noise floor."""
    sr = 8000
    n = int(round(seconds * sr))
    t = np.arange(n) / sr
    tracks = []
    for i in range(n_tracks):
        rng = np.random.default_rng([seed, i])
        x = 0.01 * rng.normal(size=n)
        for _ in range(6):
            f0 = rng.uniform(200.0, 3500.0)
            start = rng.uniform(0.0, max(seconds - 0.5, 0.1))
            env = np.exp(-np.maximum(t - start, 0.0) * rng.uniform(1.0, 4.0))
            env[t < start] = 0.0
            x += rng.uniform(0.2, 0.6) * env * np.sin(2 * np.pi * f0 * t)
        x = 0.9 * x / np.max(np.abs(x))
        tracks.append((f"track{i:02d}", x.astype(np.float32)))
    return tracks


@pytest.fixture(scope="module")
def toy_dataset() -> SegmentDataset:
    return SegmentDataset(make_tracks(2, 3.0, seed=11))


# ---------------------------------------------------------------------------
# loss


class TestNTXent:
    def test_matches_loop_oracle_float64(self):
        taus = [0.05, 0.1, 1.0]
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            pairs = 2 + trial % 7
            tau = taus[trial % 3]
            z = unit_rows(rng, 2 * pairs, 16)
            got = float(ntxent_loss(ad.Tensor(z), tau).data)
            want = ref.naive_ntxent(z, tau)
            assert got == pytest.approx(want, abs=1e-6)

    def test_float32_inputs_agree_with_oracle(self):
        rng = np.random.default_rng(7)
        z = unit_rows(rng, 12, 128).astype(np.float32)
        got = float(ntxent_loss(ad.Tensor(z), 0.05).data)
        want = ref.naive_ntxent(z.astype(np.float64), 0.05)
        assert got == pytest.approx(want, rel=1e-4)

    def test_two_orthogonal_identical_pairs_hand_value(self):
        # similarities: positive 1.0, the two cross-pair terms 0.0 each,
        # so every term is -log(e / (e + 2)).
        e0 = np.zeros(4)
        e0[0] = 1.0
        e1 = np.zeros(4)
        e1[1] = 1.0
        z = np.stack([e0, e0, e1, e1])
        got = float(ntxent_loss(ad.Tensor(z), 1.0).data)
        assert got == pytest.approx(0.5514447139320511, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(6, 8))

        def run(arrays):
            z = ad.l2_normalize(ad.Tensor(arrays["z"], requires_grad=True))
            return float(ntxent_loss(z, 0.1).data)

        t = ad.Tensor(raw.copy(), requires_grad=True)
        loss = ntxent_loss(ad.l2_normalize(t), 0.1)
        loss.backward()
        fd = ref.finite_difference_grad(run, {"z": raw.copy()})["z"]
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(t.grad - fd) / denom) < 1e-4

    def test_input_contracts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError):
            ntxent_loss(ad.Tensor(unit_rows(rng, 5, 8)), 0.1)  # odd count
        with pytest.raises(ContractError):
            ntxent_loss(ad.Tensor(unit_rows(rng, 2, 8)), 0.1)  # too small
        with pytest.raises(ContractError):
            ntxent_loss(ad.Tensor(2.0 * unit_rows(rng, 4, 8)), 0.1)  # not unit
        with pytest.raises(ConfigError):
            ntxent_loss(ad.Tensor(unit_rows(rng, 4, 8)), 0.0)

    def test_positive_pair_mask_layout(self):
        m = positive_pair_mask(6)
        assert m.shape == (6, 6)
        assert m.sum() == 6  # one positive per row
        for k in range(3):
            assert m[2 * k, 2 * k + 1] == 1.0 and m[2 * k + 1, 2 * k] == 1.0
        assert np.all(np.diag(m) == 0.0)

    def test_masked_top1_matches_inner_product_ranking(self):
        rng = np.random.default_rng(5)
        z = unit_rows(rng, 10, 16)
        sims = z @ z.T
        logits = sims / 0.05 + diagonal_mask(10)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        for i in range(10):
            best = int(np.argmax(probs[i]))
            assert best != i  # self never wins
            others = np.delete(np.arange(10), i)
            assert best == others[np.argmax(sims[i, others])]


# ---------------------------------------------------------------------------
# dataset


class TestSegmentDataset:
    def test_segment_table_and_cached_clouds(self, toy_dataset):
        # 3 s at 8 kHz: (24000 - 8000) // 4000 + 1 = 5 windows per track
        assert toy_dataset.n_segments == 10
        assert toy_dataset.originals.shape == (10, 256, 3)
        # cached cloud == direct recomputation from the raw window
        x = make_tracks(2, 3.0, seed=11)[1][1]
        spec = melspectrogram(x[2 * 4000 : 2 * 4000 + 8000])
        want = extract_peaks(fit_frames(spec, 32), 256)
        np.testing.assert_array_equal(toy_dataset.originals[7], want)

    def test_eligible_indices(self, toy_dataset):
        assert toy_dataset.eligible_indices(1.0).size == 10
        # a 2 s window fits only when start + 16000 <= 24000: k in {0,1,2}
        np.testing.assert_array_equal(
            toy_dataset.eligible_indices(2.0), [0, 1, 2, 5, 6, 7]
        )
        assert toy_dataset.eligible_indices(2.0).dtype == np.int64

    def test_eligible_indices_follow_each_track_length(self):
        (a, xa), (b, xb) = make_tracks(2, 4.5, seed=11)
        ds = SegmentDataset([(a, xa[:24000]), (b, xb)])
        # 5 segments of the 3 s track, then 8 of the 4.5 s one; a 2 s window
        # needs start + 16000 <= 24000 or 36000
        np.testing.assert_array_equal(ds.eligible_indices(2.0), [0, 1, 2, 5, 6, 7, 8, 9, 10])
        assert ds.eligible_indices(4.5).size == 1

    def test_identity_replica_is_the_original(self, toy_dataset):
        for i in (0, 3, 7):
            np.testing.assert_array_equal(
                toy_dataset.replica_cloud(i, 1.0), toy_dataset.originals[i]
            )

    def test_replica_shape_determinism_and_range(self, toy_dataset):
        a = toy_dataset.replica_cloud(1, 1.7)
        b = toy_dataset.replica_cloud(1, 1.7)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (256, 3)
        assert a[:, :2].min() >= 0.0 and a[:, :2].max() <= 1.0
        assert not np.array_equal(a, toy_dataset.originals[1])

    def test_replica_rejected_without_room(self, toy_dataset):
        with pytest.raises(DataError):
            toy_dataset.replica_cloud(4, 2.0)  # last window of track00

    def test_too_short_track_rejected(self):
        with pytest.raises(DataError):
            SegmentDataset([("stub", np.zeros(4000, dtype=np.float32))])


class TestBuildBatch:
    def test_interleaving_and_determinism(self, toy_dataset):
        cfg = TrainConfig(pairs_per_batch=3, seed=4)
        a, meta_a = build_batch(toy_dataset, cfg, np.random.default_rng(99))
        b, meta_b = build_batch(toy_dataset, cfg, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(meta_a["segments"], meta_b["segments"])
        assert a.shape == (6, 256, 3)
        for i, seg in enumerate(meta_a["segments"]):
            np.testing.assert_array_equal(a[2 * i], toy_dataset.originals[seg])
        assert np.all(meta_a["factors"] >= 0.5) and np.all(meta_a["factors"] <= 2.0)

    def test_collapsed_stretch_range_gives_identical_pairs(self, toy_dataset):
        cfg = TrainConfig(pairs_per_batch=2, stretch_min=1.0, stretch_max=1.0)
        clouds, meta = build_batch(toy_dataset, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(meta["factors"], [1.0, 1.0])
        np.testing.assert_array_equal(clouds[0], clouds[1])
        np.testing.assert_array_equal(clouds[2], clouds[3])

    def test_not_enough_eligible_segments(self, toy_dataset):
        cfg = TrainConfig(pairs_per_batch=8)
        with pytest.raises(DataError):
            build_batch(toy_dataset, cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the loop


def tiny_cfg(**kw) -> TrainConfig:
    base = dict(
        pairs_per_batch=2,
        temperature=0.1,
        lr=1e-2,
        epochs=2,
        steps_per_epoch=4,
        stretch_min=0.5,
        stretch_max=2.0,
        seed=21,
        checkpoint_every=1,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_loss_decreases_on_toy_data(self, toy_dataset):
        def probe_loss(model):
            cfg = TrainConfig(pairs_per_batch=4, stretch_min=0.8, stretch_max=1.25)
            clouds, _ = build_batch(toy_dataset, cfg, np.random.default_rng(123))
            emb = model.fingerprints(clouds)
            return float(ntxent_loss(ad.Tensor(emb), 0.1).data)

        model = PeakEncoder(tiny_config(), seed=2)
        before = probe_loss(model)
        result = train(toy_dataset, tiny_cfg(epochs=10, steps_per_epoch=5), model=model)
        assert len(result.records) == 50
        assert probe_loss(model) < before

    def test_bit_exact_determinism(self, toy_dataset):
        runs = []
        for _ in range(2):
            model = PeakEncoder(tiny_config(), seed=2)
            result = train(toy_dataset, tiny_cfg(), model=model)
            runs.append(result)
        a, b = runs
        assert [r["loss"] for r in a.records] == [r["loss"] for r in b.records]
        assert [r["lr"] for r in a.records] == [r["lr"] for r in b.records]
        for name in a.model.params:
            assert a.model.params[name].data.tobytes() == b.model.params[name].data.tobytes()
        for name in a.model.running:
            assert a.model.running[name].tobytes() == b.model.running[name].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_mlp_layer_matches_composed_ops(self, toy_dataset, monkeypatch, dtype):
        def run():
            opts = []
            step = ad.adam_step

            def adam_step(params, state, lr):
                opts.append(state)
                step(params, state, lr)

            with monkeypatch.context() as m:
                m.setattr(ad, "adam_step", adam_step)
                model = PeakEncoder(tiny_config(), seed=2, dtype=dtype)
                result = train(toy_dataset, tiny_cfg(epochs=1, steps_per_epoch=3), model=model)
            arrays = {f"p/{k}": p.data for k, p in model.params.items()}
            arrays.update((f"r/{k}", a) for k, a in model.running.items())
            arrays.update((f"m/{k}", a) for k, a in opts[-1].m.items())
            arrays.update((f"v/{k}", a) for k, a in opts[-1].v.items())
            return [r["loss"] for r in result.records], arrays

        fused_losses, fused = run()
        calls = []

        def composed(x, w, gamma, beta):
            calls.append(1)
            y, mu, var = ad.batch_norm(ad.matmul(x, w), gamma, beta)
            return ad.relu(y), mu, var

        monkeypatch.setattr(ad, "mlp_layer", composed)
        composed_losses, want = run()
        assert calls and len(fused_losses) == 3
        assert fused_losses == composed_losses
        assert fused.keys() == want.keys()
        for k, v in want.items():
            assert fused[k].dtype == v.dtype == dtype, k
            assert fused[k].tobytes() == v.tobytes(), k

    def test_step_leaves_no_garbage_and_keeps_parameter_grads(self, toy_dataset):
        model = PeakEncoder(seed=0)
        gc.collect()
        gc.disable()  # an automatic collection would hide leftover cycles
        try:
            emb = model.encode(toy_dataset.originals[:4], training=True)
            loss = ntxent_loss(emb, 0.05)
            loss.backward()
            del emb, loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        for name, p in model.params.items():
            assert p.grad is not None and p.grad.shape == p.data.shape, name

    def test_resume_matches_uninterrupted_run(self, toy_dataset, tmp_path):
        cfg = tiny_cfg(epochs=4)
        full = train(toy_dataset, cfg, model=PeakEncoder(tiny_config(), seed=2))

        ckpt = tmp_path / "half.ckpt"
        train(
            toy_dataset,
            cfg,
            model=PeakEncoder(tiny_config(), seed=2),
            out_path=ckpt,
            stop_after=2,
        )
        resumed = train(toy_dataset, cfg, resume=ckpt, out_path=tmp_path / "rest.ckpt")

        tail = [r["loss"] for r in full.records[2 * 4 :]]
        assert [r["loss"] for r in resumed.records] == tail
        for name in full.model.params:
            assert (
                full.model.params[name].data.tobytes()
                == resumed.model.params[name].data.tobytes()
            )

    def test_zero_epochs_keeps_initial_parameters(self, toy_dataset, tmp_path):
        fresh = PeakEncoder(tiny_config(), seed=9)
        model = PeakEncoder(tiny_config(), seed=9)
        out = tmp_path / "none.ckpt"
        result = train(toy_dataset, tiny_cfg(epochs=0), model=model, out_path=out)
        assert result.records == []
        for name in fresh.params:
            np.testing.assert_array_equal(model.params[name].data, fresh.params[name].data)
        _, meta = container.read(out, CHECKPOINT)
        assert meta["epochs_done"] == 0 and meta["opt_step"] == 0

    @pytest.mark.parametrize(
        "epochs, stop_after, written",
        [(5, None, [2, 4, 5]), (4, None, [2, 4]), (5, 3, [2, 3]), (5, 4, [2, 4]), (0, None, [0])],
    )
    def test_checkpoints_at_cadence_and_once_at_the_end(
        self, toy_dataset, tmp_path, monkeypatch, epochs, stop_after, written
    ):
        epochs_done = []
        monkeypatch.setattr(
            container, "write", lambda path, kind, arrays, meta: epochs_done.append(meta["epochs_done"])
        )
        cfg = tiny_cfg(epochs=epochs, steps_per_epoch=1, checkpoint_every=2)
        train(toy_dataset, cfg, PeakEncoder(tiny_config()), tmp_path / "c.ckpt", stop_after=stop_after)
        assert epochs_done == written

    def test_optimizer_step_roundtrips_exactly_past_float32(self, tmp_path):
        model = PeakEncoder(tiny_config(), seed=3)
        opt = ad.AdamState(
            m={k: np.zeros_like(p.data) for k, p in model.params.items()},
            v={k: np.zeros_like(p.data) for k, p in model.params.items()},
            step=2**24 + 1,
        )
        path = tmp_path / "step.ckpt"
        container.write(path, CHECKPOINT, *_full_state(model, opt, tiny_cfg(), 7))
        arrays, meta = container.read(path, CHECKPOINT)
        restored, epochs_done = _restore_opt(model, arrays, meta)
        assert restored.step == 2**24 + 1
        assert epochs_done == 7
        for bad in (float(2**24 + 1), -1, None):
            with pytest.raises(DecodeError):
                _restore_opt(model, arrays, dict(meta, opt_step=bad))
        name = next(iter(model.params))
        with pytest.raises(DecodeError):
            _restore_opt(model, {**arrays, f"opt.v/{name}": np.zeros(1)}, meta)
        nan_moment = np.full_like(arrays[f"opt.m/{name}"], np.nan)
        with pytest.raises(DecodeError, match="non-finite"):
            _restore_opt(model, {**arrays, f"opt.m/{name}": nan_moment}, meta)

    def test_resume_reads_the_checkpoint_once(self, toy_dataset, tmp_path, monkeypatch):
        cfg = tiny_cfg(epochs=2, steps_per_epoch=1)
        ckpt = tmp_path / "half.ckpt"
        model = PeakEncoder(tiny_config(), seed=2)
        train(toy_dataset, cfg, model=model, out_path=ckpt, stop_after=1)
        reads = []
        real_read = container.read

        def counting_read(*args):
            reads.append(args)
            return real_read(*args)

        monkeypatch.setattr(container, "read", counting_read)
        train(toy_dataset, cfg, resume=ckpt)
        assert reads == [(ckpt, CHECKPOINT)]

    def test_nan_loss_aborts_with_diagnostic_dump(self, toy_dataset, tmp_path):
        model = PeakEncoder(tiny_config(), seed=2)
        name = next(iter(model.params))
        model.params[name].data[...] = np.nan
        out = tmp_path / "run.ckpt"
        with pytest.raises(TrainingDiverged):
            train(toy_dataset, tiny_cfg(), model=model, out_path=out)
        dump = out.with_suffix(".nan-dump.ckpt")
        assert dump.exists() and not out.exists()
        arrays, meta = container.read(dump, CHECKPOINT)
        assert arrays["dump/batch_clouds"].shape == (4, 256, 3)
        assert meta["epochs_done"] == 0

    def test_log_file_lines_match_records(self, toy_dataset, tmp_path):
        log_path = tmp_path / "train.jsonl"
        result = train(
            toy_dataset,
            tiny_cfg(),
            model=PeakEncoder(tiny_config(), seed=2),
            log_path=log_path,
        )
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert lines == result.records
        assert set(lines[0]) == {"epoch", "step", "loss", "lr", "wall_time"}
        assert [l["step"] for l in lines] == list(range(1, 9))

    def test_logs_identical_up_to_wall_time(self, toy_dataset, tmp_path):
        texts = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.jsonl"
            train(
                toy_dataset,
                tiny_cfg(),
                model=PeakEncoder(tiny_config(), seed=2),
                log_path=path,
            )
            rows = [json.loads(l) for l in path.read_text().splitlines()]
            for row in rows:
                row.pop("wall_time")
            texts.append(json.dumps(rows, sort_keys=True))
        assert texts[0] == texts[1]

    def test_cosine_schedule_endpoints_and_monotonicity(self):
        cfg = tiny_cfg(epochs=5, steps_per_epoch=20, lr=1e-3, lr_min=1e-6)
        total = 100
        values = [_cosine_lr(cfg, s, total) for s in range(total)]
        assert values[0] == pytest.approx(1e-3, rel=1e-12)
        assert values[-1] == pytest.approx(1e-6, rel=1e-9)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_config_validation_and_roundtrip(self):
        cfg = tiny_cfg()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            TrainConfig(pairs_per_batch=1)
        with pytest.raises(ConfigError):
            TrainConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(stretch_min=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(stretch_min=1.5, stretch_max=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=1e-3, lr_min=1e-2)
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"bogus": 1})
