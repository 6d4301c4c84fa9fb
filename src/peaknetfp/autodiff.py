"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough machinery for the point-set encoder and its contrastive loss:
dense matmul and the fused linear layer, same-shape add/sub/mul, scalar
mul, transpose, relu, concat, max/sum reductions, log-softmax, row L2
normalization, reshape, row gathering, scale-and-shift, and batch
normalization.
Each MLP layer runs as one fused op that does its composition's arithmetic
in its order, so it equals the composition bit for bit. In training,
``mlp_layer`` = relu(batch_norm(matmul(...))) is one taped node with a
hand-written backward. In inference, ``frozen_mlp_layer`` =
relu(scale_bias(matmul(...))) with the affine of the frozen statistics runs
in place on the matmul output and builds no tape: inference never tapes. A
normalized layer has no bias: BatchNorm's mean subtraction would cancel it.
``batch_norm``, ``scale_bias`` and ``relu`` stay: they are the references the
fused layers are tested against, and the benchmark's tracer wraps ops by name.
The final projection uses ``linear``.
Gradients flow through a recorded tape of closures, replayed in reverse
topological order. float32 is the working dtype; float64 inputs are honored
(gradient checks run the whole stack in float64).

Deliberate restrictions, enforced loudly:
- matmul is strictly 2-D;
- broadcasting exists only where stated: the bias of ``linear``, the
  per-channel vectors of ``scale_bias``, ``batch_norm`` and the fused layers,
  and ``mul``'s scalar; ``add`` and ``sub`` take same-shape tensors only;
- ``backward()`` starts from scalars only.

``backward()`` consumes the graph it runs through: each node releases its
closure, parents and gradient as soon as its closure has run, so the tape
holds no reference cycles afterwards and needs no garbage collection. A second
``backward()`` through the same graph is unsupported. Gradients accumulate out
of place (``grad = grad + g``) and may share buffers, so a ``.grad`` must never
be written in place.

Also here: the Adam optimizer that consumes these gradients.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from scipy import sparse

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32
# BatchNorm's variance epsilon
BN_EPS = 1e-5
# the least norm l2_normalize divides by
NORM_FLOOR = 1e-12

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording; intermediates are freed as references drop."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def backward(self) -> None:
        """Add d(self)/d(leaf) to the ``.grad`` of every leaf that requires it.

        This consumes the graph: once a node's closure has run, the node drops
        its closure, its parents and its ``.grad``, so activations and
        intermediate gradients are freed as backward goes and no reference
        cycle outlives the call. Leaves keep their grads. A second
        ``backward()`` through the same graph is unsupported. Grads accumulate
        out of place and may share buffers with each other or with views of
        them, so a grad must never be written in place.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() starts from a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward()
            node._backward = None
            node._parents = ()
            node.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # out of place: g may be another tensor's grad or a view of one
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _make(data: np.ndarray, parents: Iterable[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if not _grad_enabled:
        return out
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} / {b.data.shape}")
    out_data = a.data + b.data

    def back():
        _accumulate(a, out.grad)
        _accumulate(b, out.grad)

    out = _make(out_data, (a, b), back)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: incompatible shapes {a.data.shape} / {b.data.shape}")
    out_data = a.data - b.data

    def back():
        _accumulate(a, out.grad)
        _accumulate(b, -out.grad)

    out = _make(out_data, (a, b), back)
    return out


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)
        out_data = a.data * s

        def back():
            _accumulate(a, out.grad * s)

        out = _make(out_data, (a,), back)
        return out
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} / {b.data.shape}")
    out_data = a.data * b.data

    def back():
        _accumulate(a, out.grad * b.data)
        _accumulate(b, out.grad * a.data)

    out = _make(out_data, (a, b), back)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul is 2-D only, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def back():
        _accumulate(a, out.grad @ b.data.T)
        _accumulate(b, a.data.T @ out.grad)

    out = _make(out_data, (a, b), back)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for 2-D x: the final projection, the one layer with a bias."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"linear: bad ranks {x.data.shape} @ {w.data.shape} + {b.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"linear: {x.data.shape} @ {w.data.shape} + {b.data.shape}"
        )
    out_data = x.data @ w.data
    out_data += b.data

    def back():
        g = out.grad
        if x.requires_grad:  # the first layers take constant coordinates
            _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    out = _make(out_data, (x, w, b), back)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose is 2-D only, got {a.data.shape}")
    out_data = a.data.T.copy()

    def back():
        _accumulate(a, out.grad.T)

    out = _make(out_data, (a,), back)
    return out


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def back():
        _accumulate(a, out.grad * (a.data > 0))

    out = _make(out_data, (a,), back)
    return out


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractError("concat of zero tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * out_data.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, out.grad[tuple(sl)])

    out = _make(out_data, tensors, back)
    return out


def reduce_max(a: Tensor, axis: int) -> Tensor:
    """Max along one axis; ties route the gradient to the lowest index.

    The ``argmax`` the gradient needs runs only when the result is taped
    (grad enabled and ``a`` requires grad); otherwise only the max is taken.
    """
    out_data = a.data.max(axis=axis)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(out_data)
    # argmax, several times faster along a short strided axis: rank the hits
    # from the end of the axis and keep the top rank, the lowest hit index
    hit = a.data == np.expand_dims(out_data, axis)
    if np.isnan(out_data).any():
        hit |= np.isnan(a.data)  # argmax takes the first NaN
    n = a.data.shape[axis]
    rank = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))
    idx = n - (np.moveaxis(hit, axis, -1) * rank).max(axis=-1).astype(np.intp)

    def back():
        g = np.zeros_like(a.data)
        np.put_along_axis(
            g, np.expand_dims(idx, axis), np.expand_dims(out.grad, axis), axis
        )
        _accumulate(a, g)

    out = _make(out_data, (a,), back)
    return out


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def back():
        if axis is None:
            _accumulate(a, np.full_like(a.data, out.grad))
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(out.grad, axis), a.data.shape))

    out = _make(out_data, (a,), back)
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def back():
        soft = np.exp(out_data)
        _accumulate(a, out.grad - soft * out.grad.sum(axis=axis, keepdims=True))

    out = _make(out_data, (a,), back)
    return out


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    norm = np.maximum(norm, NORM_FLOOR)
    out_data = a.data / norm

    def back():
        g = out.grad
        proj = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, (g - out_data * proj) / norm)

    out = _make(out_data, (a,), back)
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)

    def back():
        _accumulate(a, out.grad.reshape(a.data.shape))

    out = _make(out_data, (a,), back)
    return out


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """out[..., :] = a[indices[...], :]; repeated indices accumulate grads."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {a.data.shape}")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("gather_rows indices must be integers")
    out_data = a.data[idx]

    def back():
        # row r of the 0/1 matrix sums the grads gathered from row r in order
        # from zero, which is np.add.at's arithmetic bit for bit
        g = out.grad.reshape(-1, a.data.shape[1])
        cols = np.arange(g.shape[0])
        hits = (np.ones(cols.size, g.dtype), (idx.reshape(-1) % a.data.shape[0], cols))
        _accumulate(a, sparse.csr_matrix(hits, shape=(a.data.shape[0], cols.size)) @ g)

    out = _make(out_data, (a,), back)
    return out


def scale_bias(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """y = x * scale + shift with (C,) scale/shift over the last axis."""
    c = x.data.shape[-1]
    if scale.data.shape != (c,) or shift.data.shape != (c,):
        raise ShapeError(
            f"scale_bias: need ({c},) vectors, got {scale.data.shape}/{shift.data.shape}"
        )
    out_data = x.data * scale.data
    out_data += shift.data

    def back():
        g2 = out.grad.reshape(-1, c)
        x2 = x.data.reshape(-1, c)
        _accumulate(x, out.grad * scale.data)
        _accumulate(scale, (g2 * x2).sum(axis=0))
        _accumulate(shift, g2.sum(axis=0))

    out = _make(out_data, (x, scale, shift), back)
    return out


def batch_norm(
    x: Tensor, gamma: Tensor, beta: Tensor
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize rows of a 2-D tensor by batch statistics (training mode).

    Returns (y, batch_mean, batch_var); the plain-array statistics feed the
    caller's running averages. Inference applies the frozen statistics'
    affine instead (``frozen_mlp_layer``).
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm expects 2-D input, got {x.data.shape}")
    n, c = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be (C,)")
    mu = x.data.mean(axis=0)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=0)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    out_data = gamma.data * xhat
    out_data += beta.data

    def back():
        g = out.grad
        _accumulate(beta, g.sum(axis=0))
        _accumulate(gamma, (g * xhat).sum(axis=0))
        gx = g * gamma.data
        m1 = gx.mean(axis=0)
        m2 = (gx * xhat).mean(axis=0)
        gx -= m1
        gx -= xhat * m2
        gx *= inv
        _accumulate(x, gx)

    out = _make(out_data, (x, gamma, beta), back)
    return out, mu, var


def _col_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (a * b).sum(axis=0) bit for bit, without the (N, C) temporary
    return np.einsum("ij,ij->j", a, b)


def _check_layer(op: str, x: Tensor, w: Tensor, *vectors: np.ndarray) -> None:
    # a 2-D x @ w, and every per-channel vector of the layer is (C,)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"{op}: {x.data.shape} @ {w.data.shape}")
    c = w.data.shape[1]
    if any(v.shape != (c,) for v in vectors):
        raise ShapeError(f"{op}: per-channel vectors must be ({c},), got {[v.shape for v in vectors]}")


def mlp_layer(
    x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """relu(batch_norm(matmul(x, w), gamma, beta)) as one taped node.

    Training mode only; returns (y, batch_mean, batch_var) as ``batch_norm``
    does. The arithmetic is the composition's, in its order, so every bit
    matches it; the tape keeps only the normalized activations and ``y``.
    There is no bias operand: the mean subtraction would cancel it.
    """
    _check_layer("mlp_layer", x, w, gamma.data, beta.data)
    n = x.data.shape[0]
    xhat = x.data @ w.data
    mu = xhat.mean(axis=0)
    xhat -= mu
    var = _col_dot(xhat, xhat) / n
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    out_data = xhat * gamma.data
    out_data += beta.data
    np.maximum(out_data, 0, out=out_data)

    def back():
        g = out.grad * (out_data > 0)  # fresh: out.grad may share a buffer
        _accumulate(beta, g.sum(axis=0))
        _accumulate(gamma, _col_dot(g, xhat))
        g *= gamma.data
        m1 = g.mean(axis=0)
        m2 = _col_dot(g, xhat) / n
        g -= m1
        g -= xhat * m2
        g *= inv
        if x.requires_grad:  # the first layers take constant coordinates
            _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)

    out = _make(out_data, (x, w, gamma, beta), back)
    return out, mu, var


def frozen_mlp_layer(
    x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, rmean: np.ndarray, rvar: np.ndarray
) -> Tensor:
    """relu(scale_bias(matmul(x, w), scale, shift)) as one untaped op (inference mode).

    Frozen BatchNorm is the affine ``scale = gamma / sqrt(rvar + eps)``,
    ``shift = beta - rmean * scale``; it and the ReLU run in place on the
    matmul output, one activation per layer instead of three. Inference builds
    no tape: the result never requires grad, whatever its operands do. Every
    bit matches the composition.
    """
    _check_layer("frozen_mlp_layer", x, w, gamma.data, beta.data, rmean, rvar)
    inv = (1.0 / np.sqrt(rvar.astype(np.float64) + BN_EPS)).astype(gamma.data.dtype)
    scale = gamma.data * inv
    out = x.data @ w.data
    out *= scale
    out += beta.data - rmean * scale
    np.maximum(out, 0, out=out)
    return Tensor(out)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


@dataclass
class AdamState:
    """First/second moment estimates plus the global step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


# moment decay rates and denominator epsilon of Kingma & Ba (2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One in-place Adam update over named parameters."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"adam_step: parameter {name!r} has no gradient")
        g = p.grad
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
