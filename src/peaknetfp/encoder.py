"""Point-set fingerprint encoder.

A peak cloud (rows of ``(t, f, a)``) is summarized hierarchically: anchors
are the highest-amplitude points; each anchor gathers its radius
neighborhood at several scales; a small MLP lifts each neighborhood's
center-relative coordinates (plus carried features) and max-pools it; two
such stages feed a global stage that max-pools pointwise features, applies a
plain affine projection (no rectifier, so fingerprints are not confined to
the non-negative orthant), and row-normalizes to a unit 128-d fingerprint.
Each MLP layer is a bias-free linear map, BatchNorm and a ReLU: the mean
subtraction would cancel a bias, and BatchNorm's shift stands in for it. Only
the final projection has a bias.

Determinism guarantees, relied on by tests and by retrieval:
- the input cloud is re-sorted into a canonical order (amplitude descending,
  ties by ascending (t, f)) before any geometry, so any permutation of the
  same points takes a bit-identical floating-point path;
- neighbor ties are broken by ascending point index; squared distances are
  compared in float64 against the squared radius;
- max-pool ties route to the lowest index.

``EncoderConfig``, ``StageSpec`` and ``BranchSpec`` take their JSON form, which
checkpoints store as ``config``, from :class:`~peaknetfp.config.JsonConfig`.

Grouping work is done once per stage and cloud, not once per branch: the
distance matrix and the nearest-first order of the ``k = max(group_size)``
closest points are shared by all branches, and each branch cuts its groups
from that order at its own in-radius count. The order comes from
:func:`~peaknetfp.index.smallest_k`, a partition equal to a stable argsort,
not a full sort. Anchors are the first points of a canonically
ordered cloud, so each stage takes them by slicing.
"""
from __future__ import annotations

import hashlib
import logging
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from . import autodiff as ad
from . import container
from .config import JsonConfig
from .errors import ConfigError, DecodeError, ShapeError
from .index import smallest_k
from .signal.peaks import strength_order

log = logging.getLogger(__name__)

# BatchNorm's running-statistics momentum
BN_MOMENTUM = 0.1
# config keys that older checkpoints store, with the only value the encoder has
_PINNED = {"distance_mode": "3d", "bn_eps": ad.BN_EPS, "bn_momentum": BN_MOMENTUM}
# most clouds per forward pass when fingerprinting: a stage-1 activation
# (clouds x 200 x 16 x 64 float32) is 3.3 MB at 4, close to L2 size, so the
# in-place affine and ReLU work in cache and peak memory stays low; on 2 vCPUs
# with 2 MB of L2 each, identify ran faster at 4 than at 2, 8 or 16, level with 3
INFER_BATCH = 4
# the container kind of model checkpoints and training state
CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class BranchSpec(JsonConfig):
    """One grouping scale: neighborhood size, radius, MLP widths."""

    group_size: int
    radius: float
    mlp: tuple[int, ...]


@dataclass(frozen=True)
class StageSpec(JsonConfig):
    n_anchors: int
    branches: tuple[BranchSpec, ...]


@dataclass(frozen=True)
class EncoderConfig(JsonConfig):
    stage1: StageSpec
    stage2: StageSpec
    global_mlp: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 < self.stage2.n_anchors < self.stage1.n_anchors:
            raise ConfigError("anchor counts must be positive and decrease stage to stage")
        for si, stage in enumerate((self.stage1, self.stage2), start=1):
            if not stage.branches:
                raise ConfigError(f"stage {si} has no branches")
            by_size = sorted(stage.branches, key=lambda b: b.group_size)
            radii = [b.radius for b in by_size]
            if any(r2 < r1 for r1, r2 in zip(radii, radii[1:])):
                raise ConfigError(
                    f"stage {si}: radius must grow with group size, got {radii}"
                )
            if any(
                b.group_size <= 0 or b.radius <= 0 or not b.mlp or min(b.mlp) <= 0
                for b in stage.branches
            ):
                raise ConfigError(f"stage {si}: bad branch spec")
        if not self.global_mlp or min(self.global_mlp) <= 0:
            raise ConfigError("global MLP needs at least one layer, all widths positive")

    @property
    def embed_dim(self) -> int:
        return self.global_mlp[-1]

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        """The :class:`JsonConfig` reader, after checking and dropping the
        pinned keys that older checkpoints store."""
        if isinstance(d, dict):
            for key, value in _PINNED.items():
                if d.get(key, value) != value:
                    raise ConfigError(f"encoder {key} {d[key]!r} is not supported, only {value!r}")
            d = {k: v for k, v in d.items() if k not in _PINNED}
        return super().from_dict(d)


DEFAULT_CONFIG = EncoderConfig(
    stage1=StageSpec(
        n_anchors=200,
        branches=(
            BranchSpec(4, 0.1, (16, 16, 32)),
            BranchSpec(8, 0.2, (32, 32, 64)),
            BranchSpec(16, 0.3, (32, 48, 64)),
        ),
    ),
    stage2=StageSpec(
        n_anchors=100,
        branches=(
            BranchSpec(4, 0.2, (32, 32, 64)),
            BranchSpec(8, 0.3, (64, 64, 128)),
            BranchSpec(16, 0.4, (64, 64, 128)),
        ),
    ),
    global_mlp=(128, 256, 128),
)


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Rows sorted by amplitude descending, ties by ascending (t, f)."""
    p = np.asarray(points)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ShapeError(f"expected (n, 3) points, got {p.shape}")
    return p[strength_order(p[:, 0], p[:, 1], p[:, 2])]


def sample_anchors(points: np.ndarray, n_anchors: int) -> np.ndarray:
    """Indices of the n_anchors highest-amplitude points, deterministic ties."""
    p = np.asarray(points)
    if n_anchors > p.shape[0]:
        raise ShapeError(f"cannot sample {n_anchors} anchors from {p.shape[0]} points")
    return strength_order(p[:, 0], p[:, 1], p[:, 2])[:n_anchors]


def query_ball_groups(
    anchor_indices: np.ndarray,
    points: np.ndarray,
    branches: list[tuple[float, int]],
) -> list[np.ndarray]:
    """``query_ball_group`` for several ``(radius, group_size)`` branches.

    Distances and neighbor order are computed once and shared: each branch
    takes its group from the same nearest-first order, cut at its own
    in-radius count.
    """
    idx = np.asarray(anchor_indices, dtype=np.int64)
    pts = np.asarray(points, dtype=np.float64)
    # summed in axis order t, f, a, as the loop oracles do
    d2 = cdist(pts[idx], pts, "sqeuclidean")
    # smallest_k ranks a NaN distance as +inf, and it is never in radius
    k = min(max(g for _, g in branches), d2.shape[1])
    order, od2 = smallest_k(d2, k)
    groups = []
    for radius, group_size in branches:
        # in-radius count capped at the group size, all the cut needs
        count = (od2[:, :group_size] <= float(radius) * float(radius)).sum(axis=1)
        cols = np.arange(group_size)
        g = np.where(cols < count[:, None], order[:, np.minimum(cols, k - 1)], order[:, :1])
        empty = count == 0
        g[empty] = idx[empty, None]
        groups.append(g)
    return groups


def query_ball_group(
    anchor_indices: np.ndarray,
    points: np.ndarray,
    radius: float,
    group_size: int,
) -> np.ndarray:
    """Up-to-``group_size`` nearest in-radius neighbors per anchor.

    Anchors are indices into ``points``. Neighbors come nearest-first (ties
    by ascending index); short groups repeat the first qualifying index; an
    anchor with no qualifying point groups with itself (unreachable when the
    anchor is a member, since its own distance is zero).
    """
    return query_ball_groups(anchor_indices, points, [(radius, group_size)])[0]


class PeakEncoder:
    """The trainable model: parameters, running stats, forward passes."""

    def __init__(
        self,
        config: EncoderConfig | None = None,
        seed: int = 0,
        dtype=ad.DEFAULT_DTYPE,
    ):
        self.config = config or DEFAULT_CONFIG
        self.dtype = np.dtype(dtype)
        self.params: dict[str, ad.Tensor] = {}
        self.running: dict[str, np.ndarray] = {}
        self._init_params(np.random.default_rng(seed))

    # -- parameters -------------------------------------------------------

    def _add_layer(self, rng, prefix: str, fan_in: int, fan_out: int, norm: bool = True) -> None:
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        self.params[f"{prefix}.w"] = ad.Tensor(w.astype(self.dtype), requires_grad=True)
        if not norm:
            # BatchNorm would cancel a bias, so only an unnormalized layer has one
            self.params[f"{prefix}.b"] = ad.Tensor(
                np.zeros(fan_out, dtype=self.dtype), requires_grad=True
            )
            return
        self.params[f"{prefix}.gamma"] = ad.Tensor(
            np.ones(fan_out, dtype=self.dtype), requires_grad=True
        )
        self.params[f"{prefix}.beta"] = ad.Tensor(
            np.zeros(fan_out, dtype=self.dtype), requires_grad=True
        )
        self.running[f"{prefix}.rmean"] = np.zeros(fan_out, dtype=self.dtype)
        self.running[f"{prefix}.rvar"] = np.ones(fan_out, dtype=self.dtype)

    def _init_params(self, rng) -> None:
        in_dim = 3
        for si, stage in enumerate((self.config.stage1, self.config.stage2), start=1):
            for bi, br in enumerate(stage.branches):
                d = in_dim
                for li, width in enumerate(br.mlp):
                    self._add_layer(rng, f"s{si}.b{bi}.l{li}", d, width)
                    d = width
            in_dim = 3 + sum(br.mlp[-1] for br in stage.branches)
        d = in_dim
        for li, width in enumerate(self.config.global_mlp[:-1]):
            self._add_layer(rng, f"g.l{li}", d, width)
            d = width
        # final projection: plain affine on the pooled feature, so embeddings
        # can occupy the whole sphere instead of the non-negative orthant that
        # a rectified, max-pooled output is confined to
        self._add_layer(
            rng, f"g.l{len(self.config.global_mlp) - 1}", d, self.config.global_mlp[-1], norm=False
        )

    def parameter_count(self) -> int:
        return sum(int(p.data.size) for p in self.params.values())

    # -- forward ----------------------------------------------------------

    def _mlp(self, h: ad.Tensor, prefix: str, widths: tuple[int, ...], training: bool) -> ad.Tensor:
        for li in range(len(widths)):
            p = f"{prefix}.l{li}"
            w = self.params[f"{p}.w"]
            gamma, beta = self.params[f"{p}.gamma"], self.params[f"{p}.beta"]
            if training:
                h, mu, var = ad.mlp_layer(h, w, gamma, beta)
                self.running[f"{p}.rmean"] += (BN_MOMENTUM * (mu - self.running[f"{p}.rmean"])).astype(self.dtype)
                self.running[f"{p}.rvar"] += (BN_MOMENTUM * (var - self.running[f"{p}.rvar"])).astype(self.dtype)
            else:
                # rebinding h frees each layer's input as it goes
                h = ad.frozen_mlp_layer(
                    h, w, gamma, beta, self.running[f"{p}.rmean"], self.running[f"{p}.rvar"]
                )
        return h

    def _stage(
        self,
        xyz: np.ndarray,
        feats: ad.Tensor | None,
        spec: StageSpec,
        prefix: str,
        training: bool,
    ) -> tuple[np.ndarray, ad.Tensor]:
        b_sz, n, _ = xyz.shape
        n_anchor = spec.n_anchors
        # clouds arrive in canonical order, and a prefix of a sorted cloud
        # stays sorted, so sample_anchors would pick the first n_anchor points
        anchor_idx = np.arange(n_anchor)
        rows = np.arange(b_sz)[:, None]
        new_xyz = xyz[:, :n_anchor]
        branches = [(br.radius, br.group_size) for br in spec.branches]
        per_cloud = [query_ball_groups(anchor_idx, xyz[b], branches) for b in range(b_sz)]
        outs = []
        for bi, br in enumerate(spec.branches):
            g = np.stack([groups[bi] for groups in per_cloud])
            rel = xyz[rows[..., None], g] - new_xyz[:, :, None, :]
            x = ad.constant(rel.reshape(-1, 3))
            if feats is not None:
                flat_idx = g + rows[..., None] * n
                x = ad.concat([x, ad.gather_rows(feats, flat_idx.reshape(-1))], axis=1)
            h = self._mlp(x, f"{prefix}.b{bi}", br.mlp, training)
            h = ad.reshape(h, (b_sz * n_anchor, br.group_size, br.mlp[-1]))
            outs.append(ad.reduce_max(h, axis=1))
        return new_xyz, ad.concat(outs, axis=1)

    def encode(self, clouds: np.ndarray, training: bool = False) -> ad.Tensor:
        """Embed a batch of clouds; returns a (batch, embed_dim) tensor.

        Inference (``training=False``) applies the frozen statistics under
        ``no_grad``: it builds no tape, and its result never requires grad.
        """
        x = np.asarray(clouds, dtype=self.dtype)
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3 or x.shape[2] != 3:
            raise ShapeError(f"expected (batch, n, 3) clouds, got {x.shape}")
        if x.shape[1] < self.config.stage1.n_anchors:
            raise ShapeError(
                f"cloud has {x.shape[1]} points, need >= {self.config.stage1.n_anchors}"
            )
        with nullcontext() if training else ad.no_grad():
            xyz = np.stack([canonical_order(c) for c in x])
            xyz, feats = self._stage(xyz, None, self.config.stage1, "s1", training)
            xyz, feats = self._stage(xyz, feats, self.config.stage2, "s2", training)
            b_sz, n, _ = xyz.shape
            h = ad.concat([ad.constant(xyz.reshape(-1, 3)), feats], axis=1)
            h = self._mlp(h, "g", self.config.global_mlp[:-1], training)
            h = ad.reshape(h, (b_sz, n, int(h.data.shape[1])))
            pooled = ad.reduce_max(h, axis=1)
            li = len(self.config.global_mlp) - 1
            out = ad.linear(pooled, self.params[f"g.l{li}.w"], self.params[f"g.l{li}.b"])
            return ad.l2_normalize(out, axis=1)

    def fingerprints(self, clouds: np.ndarray) -> np.ndarray:
        """Unit-norm float32 fingerprints for many clouds: the one inference
        entry point, untaped like ``encode(training=False)``.

        The clouds go through ``ceil(n / INFER_BATCH)`` forward passes of
        near-equal size, which differ by at most one cloud. Two or more clouds
        never leave a chunk of one, which would take another BLAS path (a
        one-row matmul) and change the last bits of its fingerprint; chunks of
        two or more clouds give the bytes of a single pass over all of them.
        """
        x = np.asarray(clouds)
        if x.ndim == 2:
            x = x[None]
        n_chunks = -(-x.shape[0] // INFER_BATCH)
        chunks = [
            self.encode(chunk, training=False).data.astype(np.float32)
            for chunk in np.array_split(x, n_chunks)
        ]
        out = np.concatenate(chunks, axis=0)
        # a silent/degenerate segment can collapse to the zero vector before
        # normalization; give it a fixed unit direction so the norm contract
        # holds everywhere downstream
        dead = np.linalg.norm(out, axis=1) < 0.5
        if dead.any():
            out[dead] = 0.0
            out[dead, 0] = 1.0
        return out

    # -- persistence ------------------------------------------------------

    def state(self) -> tuple[dict[str, np.ndarray], dict]:
        """Checkpoint arrays, float32 whatever the model dtype, and meta."""
        arrays = {f"p/{name}": p.data for name, p in self.params.items()}
        arrays.update((f"r/{name}", a) for name, a in self.running.items())
        arrays = {k: np.asarray(a, dtype=np.float32) for k, a in arrays.items()}
        return arrays, {"config": self.config.to_dict()}

    def save(self, path: str | Path) -> None:
        container.write(path, CHECKPOINT, *self.state())

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Parameters and running statistics from checkpoint arrays.

        Older checkpoints also store a bias ``p/<layer>.b`` for normalized
        layers. BatchNorm subtracts the mean after it, z + b − μ = z − (μ − b),
        so such a bias is folded into that layer's running mean.
        """
        for key, now in self.state()[0].items():
            if key not in arrays or arrays[key].shape != now.shape:
                raise DecodeError(f"checkpoint has no {key!r} of shape {now.shape}")
            if not np.isfinite(arrays[key]).all():
                raise DecodeError(f"checkpoint {key!r} holds non-finite values")
        means = {}
        for name, now in self.running.items():
            bias = arrays.get(f"p/{name.removesuffix('.rmean')}.b")
            if not name.endswith(".rmean") or bias is None:
                continue
            if bias.shape != now.shape:
                raise DecodeError(f"checkpoint bias of {name!r} is not of shape {now.shape}")
            means[name] = arrays[f"r/{name}"].astype(self.dtype) - bias.astype(self.dtype)
            if not np.isfinite(means[name]).all():
                raise DecodeError(f"checkpoint bias of {name!r} is not finite")
        for name, p in self.params.items():
            p.data = arrays[f"p/{name}"].astype(self.dtype)
        for name in self.running:
            self.running[name] = arrays[f"r/{name}"].astype(self.dtype)
        self.running.update(means)

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], meta: dict, dtype=ad.DEFAULT_DTYPE
    ) -> "PeakEncoder":
        """Inverse of :meth:`state`."""
        try:
            config = EncoderConfig.from_dict(meta["config"])
            model = cls(config=config, seed=0, dtype=dtype)
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DecodeError(f"checkpoint has no valid model config: {exc}") from exc
        model.load_state(arrays)
        return model

    @classmethod
    def from_checkpoint(cls, path: str | Path, dtype=ad.DEFAULT_DTYPE) -> "PeakEncoder":
        return cls.from_state(*container.read(path, CHECKPOINT), dtype=dtype)


def checkpoint_id(path: str | Path) -> str:
    """Stable content hash used to stamp fingerprint databases and reports."""
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]
