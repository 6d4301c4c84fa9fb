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

Grouping work is done once per stage, not once per branch or cloud: the
distance matrices and the nearest-first order of the ``k = max(group_size)``
closest points are shared by all branches, and each branch cuts its groups
from that order at its own in-radius count. The order comes from one
:func:`~peaknetfp.index.smallest_k` over the anchors of every cloud in the
batch, a partition equal to a stable argsort, not a full sort. Anchors are
the first points of a canonically ordered cloud, so each stage takes them by
slicing.

The two modes share one forward pass and choose between two layer ops.
Training (taped, batch statistics) runs the plain order: concatenate the
relative coordinates with the gathered features, lift every grouped row,
then max-pool. Inference (untaped, frozen statistics) computes the same
function with less work, in two rewrites:

- stage 2's first layer projects before it gathers (PointNet++'s linear
  first layer commutes with the gather, Qi et al., NeurIPS 2017):
  ``rel @ w[:3] + (F @ w[3:])[idx]`` projects each anchor's features once
  and gathers layer-wide rows instead of building the 163-column
  concatenation. Only the rounding differs from the concatenated input's;
- each pooled layer (a branch's last layer, the global MLP's last normalized
  layer) max-pools ``x @ w`` over the group, or min-pools it where the frozen
  scale is negative, before its affine and ReLU, which are monotone per
  channel; this is bit-exact (``autodiff.frozen_mlp_layer`` with a group).

Training keeps its order: a projected first layer measured 3-6% faster per
training step, but it retrains a different model, and the reordered
arithmetic would move the training losses and every trained output.
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
                b.group_size <= 0 or not 0 < b.radius < np.inf or not b.mlp or min(b.mlp) <= 0
                for b in stage.branches
            ):
                raise ConfigError(f"stage {si}: bad branch spec")
        if not self.global_mlp or min(self.global_mlp) <= 0:
            raise ConfigError("global MLP needs at least one layer, all widths positive")

    @property
    def embed_dim(self) -> int:
        return self.global_mlp[-1]


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
    in-radius count. ``points`` is one ``(n, 3)`` cloud or a ``(batch, n, 3)``
    stack whose clouds share the anchor indices; a stack takes one
    nearest-first selection over all its anchors' rows, which are independent,
    so each cloud's groups are the bytes of a call on that cloud alone.
    """
    idx = np.asarray(anchor_indices, dtype=np.int64)
    pts = np.asarray(points, dtype=np.float64)
    clouds = pts if pts.ndim == 3 else pts[None]
    # summed in axis order t, f, a, as the loop oracles do
    d2 = np.concatenate([cdist(c[idx], c, "sqeuclidean") for c in clouds])
    # smallest_k ranks a NaN distance as +inf, and it is never in radius
    k = min(max(g for _, g in branches), d2.shape[1])
    order, od2 = smallest_k(d2, k)
    own = np.tile(idx, len(clouds))
    groups = []
    for radius, group_size in branches:
        # in-radius count capped at the group size, all the cut needs
        count = (od2[:, :group_size] <= float(radius) * float(radius)).sum(axis=1)
        cols = np.arange(group_size)
        g = np.where(cols < count[:, None], order[:, np.minimum(cols, k - 1)], order[:, :1])
        empty = count == 0
        g[empty] = own[empty, None]
        groups.append(g.reshape(*pts.shape[:-2], idx.size, group_size))
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

    def _mlp(
        self,
        h: ad.Tensor,
        prefix: str,
        widths: tuple[int, ...],
        training: bool,
        group: int,
        gather: tuple[ad.Tensor, np.ndarray] | None = None,
    ) -> ad.Tensor:
        """The MLP of ``widths`` on the rows of ``h``, then the max over each
        run of ``group`` rows.

        Training runs ``mlp_layer`` on batch statistics and pools its output.
        Inference runs ``frozen_mlp_layer`` per layer and gives the last one
        the group, so it pools before its affine; ``gather`` is the first
        layer's. With no layers (a one-entry global MLP) it pools ``h``
        itself.
        """
        for li in range(len(widths)):
            p = f"{prefix}.l{li}"
            w = self.params[f"{p}.w"]
            gamma, beta = self.params[f"{p}.gamma"], self.params[f"{p}.beta"]
            if training:
                h, mu, var = ad.mlp_layer(h, w, gamma, beta)
                self.running[f"{p}.rmean"] += (BN_MOMENTUM * (mu - self.running[f"{p}.rmean"])).astype(self.dtype)
                self.running[f"{p}.rvar"] += (BN_MOMENTUM * (var - self.running[f"{p}.rvar"])).astype(self.dtype)
                continue
            frozen = (w, gamma, beta, self.running[f"{p}.rmean"], self.running[f"{p}.rvar"])
            if li == len(widths) - 1:
                return ad.frozen_mlp_layer(h, *frozen, gather, group)
            # rebinding h frees each layer's input as it goes
            h = ad.frozen_mlp_layer(h, *frozen, gather)
            gather = None
        if not training:  # no layer to pool in: a plain max, with no argmax
            return ad.constant(h.data.reshape(-1, group, h.data.shape[1]).max(axis=1))
        h = ad.reshape(h, (-1, group, int(h.data.shape[1])))
        return ad.reduce_max(h, axis=1)

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
        rows = np.arange(b_sz)[:, None, None]
        new_xyz = xyz[:, :n_anchor]
        branches = [(br.radius, br.group_size) for br in spec.branches]
        groups = query_ball_groups(anchor_idx, xyz, branches)
        outs = []
        for bi, (br, g) in enumerate(zip(spec.branches, groups)):
            rel = xyz[rows, g] - new_xyz[:, :, None, :]
            x = ad.constant(rel.reshape(-1, 3))
            gather = None
            if feats is not None:
                flat_idx = (g + rows * n).reshape(-1)
                if training:
                    x = ad.concat([x, ad.gather_rows(feats, flat_idx)], axis=1)
                else:
                    gather = (feats, flat_idx)
            outs.append(self._mlp(x, f"{prefix}.b{bi}", br.mlp, training, br.group_size, gather))
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
            h = ad.concat([ad.constant(xyz.reshape(-1, 3)), feats], axis=1)
            pooled = self._mlp(h, "g", self.config.global_mlp[:-1], training, xyz.shape[1])
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
        No clouds give a ``(0, embed_dim)`` array.
        """
        x = np.asarray(clouds)
        if x.ndim == 2:
            x = x[None]
        if x.ndim == 3 and len(x) == 0:
            return np.empty((0, self.config.embed_dim), dtype=np.float32)
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

        A ``p/`` or ``r/`` array the model does not have is refused; other
        arrays, such as a training checkpoint's ``opt.*`` and ``dump/*``, are
        not the model's and are left alone.
        """
        expected = self.state()[0]
        extra = sorted(k for k in arrays if k.startswith(("p/", "r/")) and k not in expected)
        if extra:
            raise DecodeError(f"checkpoint has arrays the model does not: {', '.join(extra)}")
        for key, now in expected.items():
            if key not in arrays or arrays[key].shape != now.shape:
                raise DecodeError(f"checkpoint has no {key!r} of shape {now.shape}")
            if not np.isfinite(arrays[key]).all():
                raise DecodeError(f"checkpoint {key!r} holds non-finite values")
        for name, p in self.params.items():
            p.data = arrays[f"p/{name}"].astype(self.dtype)
        for name in self.running:
            self.running[name] = arrays[f"r/{name}"].astype(self.dtype)

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
