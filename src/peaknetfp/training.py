"""Contrastive training of the peak-cloud encoder.

Each batch holds ``pairs_per_batch`` segments: the original segment cloud and
a tempo-stretched replica of the same content, interleaved (x_0, x̂_0, x_1,
x̂_1, ...). Replicas are built in the spectrogram domain: crop the audio the
stretched window needs, mel-transform, resample the time axis back to the
segment frame count, re-extract peaks. The loss
pulls each pair together against every other embedding in the batch
(temperature-scaled softmax over inner products).

Determinism: every epoch derives its own rng from (seed, epoch index), so a
run resumed from an epoch-boundary checkpoint replays exactly the batches an
uninterrupted run would have seen.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container
from .config import JsonConfig
from .encoder import CHECKPOINT, PeakEncoder
from .errors import ConfigError, ContractError, DataError, DecodeError, TrainingDiverged
from .signal.audio import DEFAULT_SAMPLE_RATE, SEGMENT_HOP, SEGMENT_SAMPLES, STRETCH_MAX, STRETCH_MIN
from .signal.peaks import CLOUD_SIZE, clip_clouds, extract_peaks
from .signal.spectral import HOP, fit_frames, melspectrogram, stretch_spectrogram

log = logging.getLogger(__name__)

TEMPERATURE = 0.05  # of the NT-Xent loss, as in NeuralFP (Chang et al., ICASSP 2021)
LR, LR_MIN = 1e-3, 1e-6  # the cosine schedule's first and last learning rate


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    """The defaults are the recipe the acceptance tests train."""

    pairs_per_batch: int = 8
    epochs: int = 16
    steps_per_epoch: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pairs_per_batch < 2:
            raise ConfigError("need at least 2 pairs per batch")
        if self.epochs < 0 or self.steps_per_epoch < 1:
            raise ConfigError("epochs must be >= 0, steps_per_epoch >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


class SegmentDataset:
    """Per-segment peak clouds of a track collection, plus stretch replicas.

    Originals come from ``clip_clouds``, the front end queries go through,
    and tracks are samples at ``DEFAULT_SAMPLE_RATE``. Replicas are fitted
    to the frame count of an original segment, ``1 + SEGMENT_SAMPLES // HOP``.
    """

    def __init__(self, tracks: list[tuple[str, np.ndarray]]):
        if not tracks:
            raise DataError("empty track collection")
        self._samples: list[np.ndarray] = []
        clouds: list[np.ndarray] = []
        for track_id, samples in tracks:
            x = np.asarray(samples, dtype=np.float32)
            if x.size < SEGMENT_SAMPLES:
                raise DataError(f"track {track_id!r} is shorter than one segment")
            clouds.append(clip_clouds(x))
            self._samples.append(x)
        # per segment: its track and its first sample
        self._track = np.repeat(np.arange(len(clouds)), [len(c) for c in clouds])
        self._start = np.concatenate([np.arange(len(c)) * SEGMENT_HOP for c in clouds])
        log.info("dataset: %d tracks, %d segments", len(tracks), self._start.size)
        self.originals = np.concatenate(clouds)

    @property
    def n_segments(self) -> int:
        return self._start.size

    def eligible_indices(self, window_seconds: float) -> np.ndarray:
        """Segments whose start + window_seconds still fits the track."""
        need = int(round(window_seconds * DEFAULT_SAMPLE_RATE))
        room = np.array([x.size for x in self._samples])[self._track] - self._start
        return np.flatnonzero(room >= need)

    def replica_cloud(self, index: int, factor: float) -> np.ndarray:
        """Same content as segment ``index`` played at ``factor`` x tempo."""
        ti, start = int(self._track[index]), int(self._start[index])
        need = int(round(SEGMENT_SAMPLES * factor))
        if start + need > self._samples[ti].size:
            raise DataError(
                f"segment {index} cannot host a x{factor:.3f} replica window"
            )
        spec = melspectrogram(self._samples[ti][start : start + need])
        spec = fit_frames(stretch_spectrogram(spec, factor), 1 + SEGMENT_SAMPLES // HOP)
        return extract_peaks(spec)


def positive_pair_mask(n: int) -> np.ndarray:
    """0/1 matrix marking (2k, 2k+1) and (2k+1, 2k) as positives."""
    mask = np.zeros((n, n), dtype=np.float32)
    idx = np.arange(0, n, 2)
    mask[idx, idx + 1] = 1.0
    mask[idx + 1, idx] = 1.0
    return mask


def diagonal_mask(n: int) -> np.ndarray:
    """Additive mask that removes self-similarity from the softmax."""
    return np.diag(np.full(n, -1e30, dtype=np.float32))


def ntxent_loss(embeddings: ad.Tensor, temperature: float = TEMPERATURE) -> ad.Tensor:
    """Normalized-temperature cross entropy over adjacent positive pairs."""
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    n = embeddings.data.shape[0]
    if n < 4 or n % 2:
        raise ContractError(f"need an even batch of >= 4 embeddings, got {n}")
    norms = np.linalg.norm(embeddings.data, axis=1)
    if np.abs(norms - 1.0).max() > 1e-4:
        raise ContractError("embeddings must be unit-norm for the contrastive loss")
    logits = ad.mul(ad.matmul(embeddings, ad.transpose(embeddings)), 1.0 / temperature)
    logits = ad.add(logits, ad.constant(diagonal_mask(n).astype(logits.data.dtype)))
    logp = ad.log_softmax(logits, axis=1)
    picked = ad.mul(logp, ad.constant(positive_pair_mask(n).astype(logp.data.dtype)))
    return ad.mul(ad.reduce_sum(picked), -1.0 / n)


def build_batch(
    dataset: SegmentDataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[np.ndarray, dict]:
    """Interleaved (original, replica) clouds for one step: shape (2N, P, 3)."""
    eligible = dataset.eligible_indices(STRETCH_MAX)
    if eligible.size < cfg.pairs_per_batch:
        raise DataError(
            f"only {eligible.size} segments can host a x{STRETCH_MAX} window, "
            f"need {cfg.pairs_per_batch}"
        )
    picked = rng.choice(eligible, size=cfg.pairs_per_batch, replace=False)
    factors = np.exp(
        rng.uniform(math.log(STRETCH_MIN), math.log(STRETCH_MAX), cfg.pairs_per_batch)
    )
    clouds = np.empty((2 * cfg.pairs_per_batch, CLOUD_SIZE, 3), dtype=np.float32)
    for i, (seg, s) in enumerate(zip(picked, factors)):
        clouds[2 * i] = dataset.originals[seg]
        clouds[2 * i + 1] = dataset.replica_cloud(int(seg), float(s))
    return clouds, {"segments": picked, "factors": factors}


@dataclass
class TrainResult:
    model: PeakEncoder
    records: list[dict] = field(default_factory=list)


def _cosine_lr(global_step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return LR
    frac = min(global_step / (total_steps - 1), 1.0)
    return LR_MIN + 0.5 * (LR - LR_MIN) * (1.0 + math.cos(math.pi * frac))


def _full_state(
    model: PeakEncoder, opt: ad.AdamState, cfg: TrainConfig, epochs_done: int
) -> tuple[dict, dict]:
    arrays, meta = model.state()
    for name, arr in opt.m.items():
        arrays[f"opt.m/{name}"] = np.asarray(arr, dtype=np.float32)
    for name, arr in opt.v.items():
        arrays[f"opt.v/{name}"] = np.asarray(arr, dtype=np.float32)
    meta.update(train_config=cfg.to_dict(), opt_step=opt.step, epochs_done=epochs_done)
    return arrays, meta


def _kept(what: str, stored, given):
    """The checkpoint's config, which a resume keeps; one given must equal it."""
    if given is None or given == stored:
        return stored
    differ = [
        f"{f.name} {getattr(given, f.name)!r} (checkpoint: {getattr(stored, f.name)!r})"
        for f in dataclasses.fields(stored)
        if getattr(given, f.name) != getattr(stored, f.name)
    ]
    raise ConfigError(f"a resume keeps the checkpoint's {what} config; differs in {', '.join(differ)}")


def _restore_opt(
    model: PeakEncoder, arrays: dict, meta: dict
) -> tuple[ad.AdamState, int]:
    step, epochs_done = meta.get("opt_step"), meta.get("epochs_done")
    if not all(type(n) is int and n >= 0 for n in (step, epochs_done)):
        raise DecodeError("checkpoint has no optimizer step and epoch count")
    opt = ad.AdamState(step=step)
    for name, p in model.params.items():
        for moments, key in ((opt.m, f"opt.m/{name}"), (opt.v, f"opt.v/{name}")):
            if key not in arrays or arrays[key].shape != p.data.shape:
                raise DecodeError(f"checkpoint has no optimizer state {key!r}")
            if not np.isfinite(arrays[key]).all():
                raise DecodeError(f"checkpoint optimizer state {key!r} holds non-finite values")
            moments[name] = arrays[key].astype(model.dtype)
    return opt, epochs_done


def train(
    dataset: SegmentDataset,
    cfg: TrainConfig | None = None,
    model: PeakEncoder | None = None,
    out_path: str | Path | None = None,
    log_path: str | Path | None = None,
    resume: str | Path | None = None,
    stop_after: int | None = None,
) -> TrainResult:
    """Run the contrastive loop; returns the model and per-step records.

    With ``out_path`` a checkpoint is written after every epoch, the last
    one once. ``stop_after`` interrupts the schedule after that many epochs;
    ``resume`` continues from any of these checkpoints and reproduces the
    remaining epochs of an uninterrupted run exactly, learning-rate schedule
    included: it takes the checkpoint's train config when ``cfg`` is None,
    and refuses a ``cfg`` that differs from it, or a ``model`` whose config
    differs from the checkpoint's, with ``ConfigError``. Without
    ``resume``, a None ``cfg`` is ``TrainConfig()``. A non-finite loss aborts
    with a diagnostic dump next to ``out_path``.
    """
    opt = ad.AdamState()
    start_epoch = 0
    if resume is not None:
        arrays, meta = container.read(resume, CHECKPOINT)
        try:
            stored = TrainConfig.from_dict(meta.get("train_config"))
        except ConfigError as exc:
            raise DecodeError(f"checkpoint has no valid train config: {exc}") from exc
        cfg = _kept("train", stored, cfg)
        resumed = PeakEncoder.from_state(arrays, meta)
        _kept("encoder", resumed.config, model.config if model else None)
        model = resumed
        opt, start_epoch = _restore_opt(model, arrays, meta)
        log.info("resumed from %s at epoch %d (step %d)", resume, start_epoch, opt.step)
    else:
        cfg = cfg or TrainConfig()
        if model is None:
            model = PeakEncoder(seed=cfg.seed)

    total_steps = cfg.epochs * cfg.steps_per_epoch
    records: list[dict] = []
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None

    def checkpoint(epochs_done: int) -> None:
        if out_path is None:
            return
        container.write(out_path, CHECKPOINT, *_full_state(model, opt, cfg, epochs_done))

    done = start_epoch
    try:
        for epoch in range(start_epoch, cfg.epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            epoch_losses = []
            for step in range(cfg.steps_per_epoch):
                clouds, batch_meta = build_batch(dataset, cfg, rng)
                lr = _cosine_lr(opt.step, total_steps)
                emb = model.encode(clouds, training=True)
                loss = ntxent_loss(emb)
                loss_value = float(loss.data)
                if not math.isfinite(loss_value):
                    dump = Path(out_path or "train").with_suffix(".nan-dump.ckpt")
                    arrays, meta = _full_state(model, opt, cfg, epoch)
                    arrays["dump/batch_clouds"] = clouds
                    arrays["dump/batch_factors"] = batch_meta["factors"].astype(np.float32)
                    container.write(dump, CHECKPOINT, arrays, meta)
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} step {step}; "
                        f"state dumped to {dump}"
                    )
                ad.zero_grads(model.params.values())
                loss.backward()
                ad.adam_step(model.params, opt, lr)
                record = {
                    "epoch": epoch,
                    "step": opt.step,
                    "loss": loss_value,
                    "lr": lr,
                    "wall_time": time.time(),
                }
                records.append(record)
                epoch_losses.append(loss_value)
                if log_fh:
                    log_fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                    log_fh.flush()
            log.info(
                "epoch %d/%d: mean loss %.4f",
                epoch + 1,
                cfg.epochs,
                float(np.mean(epoch_losses)),
            )
            done = epoch + 1
            if stop_after is not None and done >= stop_after:
                break
            if done < cfg.epochs:
                checkpoint(done)
        # the last checkpoint: at the end, at stop_after, or with no epochs to run
        checkpoint(done)
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(model=model, records=records)
