"""Autodiff stack: every primitive against central finite differences,
Adam against hand-worked arithmetic, checkpoint containers against themselves.
"""
from __future__ import annotations

import numpy as np
import pytest

from peaknetfp import autodiff as ad
from peaknetfp import container
from peaknetfp import reference as ref
from peaknetfp.encoder import CHECKPOINT, BranchSpec, EncoderConfig, PeakEncoder, StageSpec
from peaknetfp.errors import ContractError, DataError, DecodeError, ShapeError

RTOL = 1e-5
ATOL = 1e-7


def check_grads(build, arrays, rtol=RTOL, atol=ATOL, h=1e-4):
    """Compare tape gradients of scalar build(tensors) with central FD."""
    tensors = {k: ad.Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    loss = build(tensors)
    assert loss.data.size == 1
    loss.backward()

    def f(arrs):
        plain = {k: ad.Tensor(a.copy()) for k, a in arrs.items()}
        return float(build(plain).data)

    fd = ref.finite_difference_grad(f, {k: v.copy() for k, v in arrays.items()}, h=h)
    for k in arrays:
        assert tensors[k].grad is not None, k
        np.testing.assert_allclose(
            tensors[k].grad, fd[k], rtol=rtol, atol=atol, err_msg=k
        )


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape).astype(np.float64)


class TestPrimitiveGradients:
    def test_matmul(self):
        rng = np.random.default_rng(1)
        arrays = {"a": rand(rng, 3, 4), "b": rand(rng, 4, 2)}
        check_grads(lambda t: ad.reduce_sum(ad.matmul(t["a"], t["b"])), arrays)

    def test_add_same_shape_and_scalar(self):
        rng = np.random.default_rng(2)
        arrays = {"a": rand(rng, 3, 4), "b": rand(rng, 3, 4)}
        check_grads(lambda t: ad.reduce_sum(ad.add(t["a"], t["b"])), arrays)

    def test_sub_mul(self):
        rng = np.random.default_rng(4)
        arrays = {"a": rand(rng, 2, 5), "b": rand(rng, 2, 5)}
        check_grads(
            lambda t: ad.reduce_sum(ad.mul(ad.sub(t["a"], t["b"]), t["a"])), arrays
        )

    def test_scalar_mul_div(self):
        rng = np.random.default_rng(5)
        arrays = {"a": rand(rng, 3, 3)}
        check_grads(lambda t: ad.reduce_sum(ad.mul(ad.mul(t["a"], 2.5), 1.0 / 4.0)), arrays)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(6)
        a = rand(rng, 4, 4)
        a += np.sign(a) * 0.06  # keep FD probes off the kink
        w = rand(rng, 4, 4)
        check_grads(
            lambda t: ad.reduce_sum(ad.mul(ad.relu(t["a"]), ad.constant(w))),
            {"a": a},
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat(self, axis):
        rng = np.random.default_rng(7)
        arrays = {"a": rand(rng, 3, 4), "b": rand(rng, 3, 4)}
        w = rand(rng, *(6, 4) if axis == 0 else (3, 8))
        check_grads(
            lambda t: ad.reduce_sum(
                ad.mul(ad.concat([t["a"], t["b"]], axis), ad.constant(w))
            ),
            arrays,
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_reduce_max(self, axis):
        rng = np.random.default_rng(8)
        # permutation of spaced values: all gaps far above the FD step
        a = (rng.permutation(20).reshape(4, 5) * 0.1).astype(np.float64)
        check_grads(lambda t: ad.reduce_sum(ad.reduce_max(t["a"], axis)), {"a": a})

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_sum_mean(self, axis):
        rng = np.random.default_rng(9)
        arrays = {"a": rand(rng, 3, 4)}
        if axis is None:
            check_grads(lambda t: ad.reduce_sum(t["a"]), arrays)
        else:
            w = rand(rng, 4 if axis == 0 else 3)
            check_grads(
                lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t["a"], axis), ad.constant(w))),
                arrays,
            )

    def test_log_softmax(self):
        rng = np.random.default_rng(11)
        w = rand(rng, 4, 5)
        arrays = {"a": rand(rng, 4, 5) * 3.0}
        check_grads(
            lambda t: ad.reduce_sum(ad.mul(ad.log_softmax(t["a"], 1), ad.constant(w))),
            arrays,
        )

    def test_l2_normalize(self):
        rng = np.random.default_rng(12)
        a = rand(rng, 4, 6)
        a[np.linalg.norm(a, axis=1) < 0.5] += 1.0
        w = rand(rng, 4, 6)
        check_grads(
            lambda t: ad.reduce_sum(ad.mul(ad.l2_normalize(t["a"], 1), ad.constant(w))),
            {"a": a},
        )

    def test_reshape_transpose(self):
        rng = np.random.default_rng(13)
        w = rand(rng, 4, 6)
        arrays = {"a": rand(rng, 6, 4)}
        check_grads(
            lambda t: ad.reduce_sum(
                ad.mul(ad.transpose(ad.reshape(t["a"], (6, 4))), ad.constant(w))
            ),
            arrays,
        )

    def test_gather_rows_accumulates_repeats(self):
        rng = np.random.default_rng(14)
        idx = np.array([[0, 2, 1], [2, 2, 0]])
        w = rand(rng, 2, 3, 4)
        arrays = {"a": rand(rng, 3, 4)}
        check_grads(
            lambda t: ad.reduce_sum(ad.mul(ad.gather_rows(t["a"], idx), ad.constant(w))),
            arrays,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, max_repeat",
        [((600,), 40), ((30, 17), 40), ((5, 4), 1), ((0,), 0), ((3, 0), 0)],
    )
    def test_gather_rows_grad_equals_add_at_bytes(self, dtype, shape, max_repeat):
        rng = np.random.default_rng(18)
        n_rows, cols = 64, 7
        size = int(np.prod(shape))
        # repeats from 1 to max_repeat, unsorted; rows 48.. are never referenced
        counts = rng.integers(1, max(max_repeat, 1) + 1, 48)
        idx = rng.permutation(np.repeat(np.arange(48), counts))[:size]
        if max_repeat:
            idx[:max_repeat] = 3  # one row at the full multiplicity
            idx = rng.permutation(idx)
            idx[np.flatnonzero(idx == 3)[::2]] -= n_rows  # both spellings of row 3
        idx = idx.reshape(shape)
        # magnitudes over six decades, so summation order shows in the bits
        w = (rng.normal(size=shape + (cols,)) * 10.0 ** rng.uniform(-3, 3, shape + (cols,)))
        w = w.astype(dtype)
        a = ad.Tensor(rng.normal(size=(n_rows, cols)).astype(dtype), requires_grad=True)
        ad.reduce_sum(ad.mul(ad.gather_rows(a, idx), ad.constant(w))).backward()
        want = np.zeros((n_rows, cols), dtype=dtype)
        np.add.at(want, idx.reshape(-1), w.reshape(-1, cols))
        assert a.grad.dtype == want.dtype
        assert a.grad.tobytes() == want.tobytes()

    def test_scale_bias(self):
        rng = np.random.default_rng(15)
        w = rand(rng, 5, 3)
        arrays = {"x": rand(rng, 5, 3), "s": rand(rng, 3), "b": rand(rng, 3)}
        check_grads(
            lambda t: ad.reduce_sum(
                ad.mul(ad.scale_bias(t["x"], t["s"], t["b"]), ad.constant(w))
            ),
            arrays,
        )

    def test_batch_norm_training_mode(self):
        rng = np.random.default_rng(16)
        w = rand(rng, 6, 3)
        arrays = {"x": rand(rng, 6, 3), "g": rng.uniform(0.5, 1.5, 3), "b": rand(rng, 3)}
        check_grads(
            lambda t: ad.reduce_sum(
                ad.mul(ad.batch_norm(t["x"], t["g"], t["b"])[0], ad.constant(w))
            ),
            arrays,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_composite_chain(self):
        # mlp -> relu -> mlp -> row normalize -> masked sum, at 1e-4
        rng = np.random.default_rng(17)
        mask = rand(rng, 5, 4)
        arrays = {
            "x": rand(rng, 5, 3),
            "w1": rand(rng, 3, 8),
            "b1": rand(rng, 8),
            "w2": rand(rng, 8, 4),
        }

        def build(t):
            h = ad.relu(ad.linear(t["x"], t["w1"], t["b1"]))
            z = ad.l2_normalize(ad.matmul(h, t["w2"]), 1)
            return ad.reduce_sum(ad.mul(z, ad.constant(mask)))

        check_grads(build, arrays, rtol=1e-4, atol=1e-6)


def composed_mlp_layer(x, w, gamma, beta):
    """The reference ``mlp_layer`` must match bit for bit."""
    y, mu, var = ad.batch_norm(ad.matmul(x, w), gamma, beta)
    return ad.relu(y), mu, var


class TestMlpLayer:
    @staticmethod
    def _run(layer, arrays, head, x_const):
        t = {
            k: ad.Tensor(v.copy(), requires_grad=not (x_const and k == "x"))
            for k, v in arrays.items()
        }
        y, mu, var = layer(t["x"], t["w"], t["gamma"], t["beta"])
        ad.reduce_sum(ad.mul(y, ad.constant(head))).backward()
        return {"y": y.data, "mu": mu, "var": var, **{k: v.grad for k, v in t.items()}}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "rows, dead_column, x_const",
        [(1, False, False), (37, False, False), (37, True, False), (37, False, True)],
    )
    def test_bytes_equal_the_composed_ops(self, dtype, rows, dead_column, x_const):
        rng = np.random.default_rng(rows)
        arrays = {
            "x": rng.normal(size=(rows, 5)),
            "w": rng.normal(size=(5, 6)),
            "gamma": rng.uniform(0.5, 1.5, 6),
            "beta": rng.normal(size=6),
        }
        if dead_column:  # |xhat| < sqrt(rows), so ReLU zeroes all of column 2
            arrays["beta"][2] = -10.0
        arrays = {k: v.astype(dtype) for k, v in arrays.items()}
        head = rng.normal(size=(rows, 6)).astype(dtype)
        fused = self._run(ad.mlp_layer, arrays, head, x_const)
        want = self._run(composed_mlp_layer, arrays, head, x_const)
        if dead_column:
            assert not fused["y"][:, 2].any() and not fused["gamma"][2]
        assert (fused["x"] is None) == x_const
        for k, v in want.items():
            if v is None:
                assert fused[k] is None, k
            else:
                assert fused[k].dtype == v.dtype == dtype, k
                assert fused[k].tobytes() == v.tobytes(), k

    def test_column_sums_match_numpy_summation_order(self):
        # mlp_layer takes its column sums and means with einsum; if a numpy adds
        # the rows in another order, this fails before a trained bit moves.
        # The shapes are training's (rows, layer width), plus the widest input.
        shapes = [(1600, 3), (1600, 128), (1600, 256), (1600, 323), (6400, 32), (6400, 64),
                  (12800, 16), (12800, 32), (12800, 64), (12800, 128), (25600, 32),
                  (25600, 64), (25600, 128), (51200, 32), (51200, 48), (51200, 64)]
        differ = []
        for rows, cols in shapes:
            rng = np.random.default_rng(rows + cols)
            z = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-4, 4, size=(rows, cols))
            for dtype in (np.float32, np.float64):
                x = z.astype(dtype)
                got = ad._col_sum(x)
                if got.tobytes() != x.sum(axis=0).tobytes() or (
                    (got / rows).tobytes() != x.mean(axis=0).tobytes()
                ):
                    differ.append((rows, cols, np.dtype(dtype).name))
        assert not differ, f"numpy sums the rows of these shapes in another order: {differ}"

    def test_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(18)
        x, w = rand(rng, 6, 3), rand(rng, 3, 4)
        gamma = rng.uniform(0.5, 1.5, 4)
        z = x @ w
        xhat = np.sort((z - z.mean(0)) / np.sqrt(z.var(0) + ad.BN_EPS), axis=0)
        # each column's kink halfway between its 3rd and 4th normalized value
        beta = -gamma * (xhat[2] + xhat[3]) / 2
        assert (gamma * (xhat[3] - xhat[2]) / 2).min() > 0.05
        head = rand(rng, 6, 4)
        check_grads(
            lambda t: ad.reduce_sum(
                ad.mul(
                    ad.mlp_layer(t["x"], t["w"], t["g"], t["beta"])[0],
                    ad.constant(head),
                )
            ),
            {"x": x, "w": w, "g": gamma, "beta": beta},
            rtol=1e-4,
            atol=1e-6,
        )

    def test_shape_violations(self):
        x, w, v = ad.Tensor(np.ones((4, 3))), ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones(2))
        with pytest.raises(ShapeError):
            ad.mlp_layer(x, ad.Tensor(np.ones((2, 2))), v, v)
        with pytest.raises(ShapeError):
            ad.mlp_layer(x, w, ad.Tensor(np.ones(3)), v)
        with pytest.raises(ShapeError):
            ad.mlp_layer(x, w, v, ad.Tensor(np.ones(3)))


def composed_frozen_mlp_layer(x, w, gamma, beta, rmean, rvar, gather=None, group=None):
    """The reference ``frozen_mlp_layer`` must match bit for bit: the
    inference layer as separate ops. A ``gather`` projects the table with the
    rows of ``w`` past the width of ``x``, then gathers the projected rows; a
    ``group`` takes the max over each run of ``group`` rows of the layer."""
    inv = (1.0 / np.sqrt(rvar.astype(np.float64) + ad.BN_EPS)).astype(gamma.data.dtype)
    scale = ad.mul(gamma, ad.constant(inv))
    shift = ad.sub(beta, ad.mul(ad.constant(rmean), scale))
    if gather is None:
        z = ad.matmul(x, w)
    else:
        table, rows = gather
        k = x.data.shape[1]
        z = ad.add(
            ad.matmul(x, ad.constant(w.data[:k])),
            ad.gather_rows(ad.matmul(table, ad.constant(w.data[k:])), rows),
        )
    h = ad.relu(ad.scale_bias(z, scale, shift))
    if group is None:
        return h
    return ad.reduce_max(ad.reshape(h, (-1, group, h.data.shape[1])), axis=1)


class TestFrozenMlpLayer:
    @staticmethod
    def _operands(rows, dtype, requires_grad, dead_column=False):
        rng = np.random.default_rng(rows)
        arrays = {
            "x": rng.normal(size=(rows, 5)),
            "w": rng.normal(size=(5, 6)),
            "gamma": rng.uniform(0.5, 1.5, 6),
            "beta": rng.normal(size=6),
            "rmean": rng.normal(size=6),
            "rvar": rng.uniform(0.5, 2.0, 6),
        }
        arrays = {k: v.astype(dtype) for k, v in arrays.items()}
        if dead_column:  # the shift swamps every row, so ReLU zeroes column 2
            arrays["beta"][2] = -100.0
        tensors = [ad.Tensor(arrays[k].copy(), requires_grad) for k in ("x", "w", "gamma", "beta")]
        return arrays, (*tensors, arrays["rmean"].copy(), arrays["rvar"].copy())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "rows, dead_column, requires_grad",
        [(1, False, False), (37, False, False), (37, True, False), (37, False, True)],
    )
    def test_bytes_equal_the_composed_ops(self, dtype, rows, dead_column, requires_grad):
        # the fused layer runs with grad enabled, its reference under no_grad
        _, operands = self._operands(rows, dtype, requires_grad, dead_column)
        fused = ad.frozen_mlp_layer(*operands)
        with ad.no_grad():
            want = composed_frozen_mlp_layer(*operands).data
        if dead_column:
            assert not fused.data[:, 2].any()
        assert fused.data.any() and not fused.requires_grad
        assert fused.data.dtype == want.dtype == dtype
        assert fused.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untaped_in_place_forward_equals_taped(self, dtype):
        # grad enabled and operands that require grad still build no tape
        arrays, operands = self._operands(37, dtype, requires_grad=True)
        out = ad.frozen_mlp_layer(*operands)
        assert not out.requires_grad and out._parents == () and out._backward is None
        with ad.no_grad():
            untaped = ad.frozen_mlp_layer(*operands)
        assert out.data.dtype == dtype and out.data.tobytes() == untaped.data.tobytes()
        for k, v in zip(arrays, operands):  # operands are never written
            v = v.data if isinstance(v, ad.Tensor) else v
            assert v.tobytes() == arrays[k].tobytes() and not np.shares_memory(v, out.data), k

    def test_taped_inference_encode_equals_composed_ops(self, monkeypatch):
        rng = np.random.default_rng(20)
        model = PeakEncoder(seed=0)
        for name, p in model.params.items():
            if name.endswith((".gamma", ".beta")):
                p.data = rng.uniform(0.5, 1.5, p.data.shape).astype(p.data.dtype)
        for name, r in model.running.items():
            lo, hi = (-0.2, 0.2) if name.endswith(".rmean") else (0.5, 2.0)
            model.running[name] = rng.uniform(lo, hi, r.shape).astype(r.dtype)
        clouds = rng.random((3, 256, 3)).astype(np.float32)
        fused = model.encode(clouds, training=False).data
        monkeypatch.setattr(ad, "frozen_mlp_layer", composed_frozen_mlp_layer)
        want = model.encode(clouds, training=False).data
        assert fused.tobytes() == want.tobytes()

    def test_shape_violations(self):
        x, w, v = ad.Tensor(np.ones((4, 3))), ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones(2))
        s, bad = np.ones(2), np.ones(3)
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(ad.Tensor(np.ones(3)), w, v, v, s, s)
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(x, ad.Tensor(np.ones((2, 2))), v, v, s, s)
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(x, w, ad.Tensor(bad), v, s, s)
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(x, w, v, ad.Tensor(bad), s, s)
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(x, w, v, v, bad, s)
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(x, w, v, v, s, bad)


class TestFrozenLayerGather:
    @staticmethod
    def _operands(dtype, rows=37, k=3, table_rows=11, table_cols=6):
        rng = np.random.default_rng(rows)
        x = ad.Tensor(rng.normal(size=(rows, k)).astype(dtype))
        table = ad.Tensor(rng.normal(size=(table_rows, table_cols)).astype(dtype))
        idx = rng.integers(0, table_rows, rows)
        w = ad.Tensor(rng.normal(size=(k + table_cols, 5)).astype(dtype))
        vectors = [rng.uniform(0.5, 1.5, 5), rng.normal(size=5), rng.normal(size=5),
                   rng.uniform(0.5, 2.0, 5)]
        gamma, beta, rmean, rvar = (v.astype(dtype) for v in vectors)
        return x, w, ad.Tensor(gamma), ad.Tensor(beta), rmean, rvar, (table, idx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_composed_ops_and_near_the_concat(self, dtype):
        x, w, gamma, beta, rmean, rvar, gather = self._operands(dtype)
        fused = ad.frozen_mlp_layer(x, w, gamma, beta, rmean, rvar, gather)
        with ad.no_grad():
            want = composed_frozen_mlp_layer(x, w, gamma, beta, rmean, rvar, gather)
        assert fused.data.dtype == dtype and fused.data.tobytes() == want.data.tobytes()
        # the projected layer is the layer of the concatenated rows, up to rounding
        table, idx = gather
        cat = ad.Tensor(np.concatenate([x.data, table.data[idx]], axis=1))
        plain = ad.frozen_mlp_layer(cat, w, gamma, beta, rmean, rvar)
        np.testing.assert_allclose(fused.data, plain.data, rtol=1e-5, atol=1e-5)
        assert fused.data.any()

    def test_shape_violations(self):
        x, w, gamma, beta, rmean, rvar, (table, idx) = self._operands(np.float64)
        frozen = (gamma, beta, rmean, rvar)
        with pytest.raises(ShapeError):  # one row index per row of x
            ad.frozen_mlp_layer(x, w, *frozen, (table, idx[1:]))
        with pytest.raises(ShapeError):  # x and the table are too wide for w
            ad.frozen_mlp_layer(x, ad.Tensor(w.data[1:]), *frozen, (table, idx))
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(x, w, *frozen, (ad.Tensor(table.data[0]), idx))
        with pytest.raises(ShapeError):
            ad.frozen_mlp_layer(x, w, *frozen, (table, idx[1:]), group=2)


class TestFrozenMaxLayer:
    @staticmethod
    def _operands(groups, group, dtype):
        rng = np.random.default_rng(groups)
        x = ad.Tensor(rng.normal(size=(groups * group, 5)).astype(dtype))
        w = ad.Tensor(rng.normal(size=(5, 7)).astype(dtype))
        gamma = rng.uniform(0.5, 1.5, 7) * np.array([1, -1, 1, -1, 1, -1, 1])
        gamma[4] = 0.0  # every row maps to relu(beta)
        beta = rng.normal(size=7)
        beta[[1, 3]] = 5.0  # most rows of the negative columns stay live
        beta[5] = -100.0  # the shift swamps every row, so ReLU zeroes column 5
        vectors = [gamma, beta, rng.normal(size=7), rng.uniform(0.5, 2.0, 7)]
        gamma, beta, rmean, rvar = (v.astype(dtype) for v in vectors)
        return x, w, ad.Tensor(gamma), ad.Tensor(beta), rmean, rvar

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups, group", [(1, 1), (1, 16), (37, 1), (37, 4), (37, 16)])
    def test_bytes_equal_the_composed_ops(self, dtype, groups, group):
        operands = self._operands(groups, group, dtype)
        fused = ad.frozen_mlp_layer(*operands, group=group)
        with ad.no_grad():
            want = composed_frozen_mlp_layer(*operands, group=group)
        assert fused.data.shape == (groups, 7) and not fused.requires_grad
        assert fused.data.dtype == want.data.dtype == dtype
        assert fused.data.tobytes() == want.data.tobytes()
        assert not fused.data[:, 5].any() and fused.data[:, [1, 3]].all()
        if group > 1:  # where gamma < 0 the layer of the group's max is not the max
            x, w, gamma, beta, rmean, rvar = operands
            scale = gamma.data / np.sqrt(rvar + ad.BN_EPS)
            z_max = (x.data @ w.data).reshape(groups, group, 7).max(axis=1)
            wrong = np.maximum(z_max * scale + beta.data - rmean * scale, 0)
            assert not np.allclose(wrong[:, 1], fused.data[:, 1])

    def test_gather_bytes_equal_the_composed_ops(self):
        x, w, gamma, beta, rmean, rvar, gather = TestFrozenLayerGather._operands(
            np.float32, rows=36
        )
        gamma.data[1::2] *= -1.0
        fused = ad.frozen_mlp_layer(x, w, gamma, beta, rmean, rvar, gather, 4)
        with ad.no_grad():
            want = composed_frozen_mlp_layer(x, w, gamma, beta, rmean, rvar, gather, 4)
        assert fused.data.shape == (9, 5) and fused.data.tobytes() == want.data.tobytes()

    def test_operands_are_never_written(self):
        operands = self._operands(37, 4, np.float32)
        arrays = [v.data if isinstance(v, ad.Tensor) else v for v in operands]
        before = [a.copy() for a in arrays]
        out = ad.frozen_mlp_layer(*operands, group=4)
        for b, a in zip(before, arrays):
            assert a.tobytes() == b.tobytes() and not np.shares_memory(a, out.data)

    def test_group_must_split_the_rows(self):
        operands = self._operands(3, 4, np.float32)
        for group in (0, 5, 24):
            with pytest.raises(ShapeError):
                ad.frozen_mlp_layer(*operands, group=group)


class TestGraphMechanics:
    def test_backward_from_vector_rejected(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            ad.mul(t, 2.0).backward()

    def test_grad_accumulates_over_reuse(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        y = ad.reduce_sum(ad.add(ad.mul(x, 3.0), ad.mul(x, 4.0)))
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_shared_grad_buffers_are_not_written_in_place(self):
        a = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        b = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        ad.reduce_sum(ad.add(ad.add(a, b), a)).backward()
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))

    def test_backward_releases_the_graph(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        h = ad.relu(ad.matmul(x, w))
        loss = ad.reduce_sum(h)
        loss.backward()
        for node in (h, loss):
            assert node._backward is None and node._parents == () and node.grad is None
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(w.grad, [[3.0, 3.0], [5.0, 5.0], [7.0, 7.0]])

    def test_constants_collect_no_grad(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        c = ad.constant(np.ones((2, 2)))
        ad.reduce_sum(ad.mul(x, c)).backward()
        assert c.grad is None

    def test_max_tie_goes_to_lowest_index(self):
        x = ad.Tensor(np.array([[3.0, 3.0], [1.0, 2.0]]), requires_grad=True)
        ad.reduce_sum(ad.reduce_max(x, 1)).backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_untaped_max_equals_taped_and_records_nothing(self):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.normal(size=(6, 5, 4)).astype(np.float32), requires_grad=True)
        taped = ad.reduce_max(x, 1)
        with ad.no_grad():
            untaped = ad.reduce_max(x, 1)
        np.testing.assert_array_equal(untaped.data, taped.data)
        assert taped._parents and taped._backward is not None
        assert untaped._parents == () and untaped._backward is None
        assert not untaped.requires_grad

    def test_shape_violations(self):
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            ad.add(a, b)
        with pytest.raises(ShapeError):  # no bias broadcast: linear adds its own
            ad.add(a, ad.Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 2, 2))), a)
        with pytest.raises(ShapeError):
            ad.mul(a, b)

    def test_float64_stays_float64(self):
        t = ad.Tensor(np.ones(3, dtype=np.float64))
        assert t.data.dtype == np.float64
        assert ad.Tensor([1, 2]).data.dtype == np.float32


class TestAdam:
    def test_first_step_matches_hand_arithmetic(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        state = ad.AdamState()
        ad.adam_step({"p": p}, state, lr)
        # plain-python replay
        m = (1 - b1) * 0.5
        v = (1 - b2) * 0.25
        want = 1.0 - lr * (m / (1 - b1)) / ((v / (1 - b2)) ** 0.5 + eps)
        np.testing.assert_allclose(p.data, [want], rtol=1e-12)
        assert state.step == 1

    def test_second_step_matches_hand_arithmetic(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p = ad.Tensor(np.array([0.3]), requires_grad=True)
        state = ad.AdamState()
        grads = [0.5, -0.25]
        m = v = 0.0
        want = 0.3
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
        for g in grads:
            p.grad = np.array([g])
            ad.adam_step({"p": p}, state, lr)
        np.testing.assert_allclose(p.data, [want], rtol=1e-12)

    def test_missing_grad_rejected(self):
        p = ad.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ContractError):
            ad.adam_step({"p": p}, ad.AdamState(), 0.1)

    def test_update_is_deterministic(self):
        def run():
            rng = np.random.default_rng(0)
            p = ad.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
            st = ad.AdamState()
            for i in range(5):
                p.grad = rng.normal(size=(4, 4)).astype(np.float32)
                ad.adam_step({"p": p}, st, 1e-3)
            return p.data.tobytes()

        assert run() == run()


class TestCheckpointFiles:
    def _payload(self):
        rng = np.random.default_rng(33)
        return {
            "enc/w1": rng.normal(size=(4, 3)).astype(np.float32),
            "enc/b1": rng.normal(size=3).astype(np.float32),
            "scalar": np.float32(17.0),
        }

    def test_roundtrip_bit_exact_and_ordered(self, tmp_path):
        path = tmp_path / "model.ckpt"
        payload = self._payload()
        container.write(path, CHECKPOINT, payload, {"opt_step": 2**53 + 1})
        back, meta = container.read(path, CHECKPOINT)
        assert list(back) == list(payload)
        for k, v in payload.items():
            assert back[k].dtype == np.float32
            np.testing.assert_array_equal(back[k], v)
        assert back["scalar"].shape == ()
        assert meta == {"opt_step": 2**53 + 1}

    def test_float64_saved_as_float32(self, tmp_path):
        config = EncoderConfig(
            stage1=StageSpec(8, (BranchSpec(2, 0.3, (4, 4)),)),
            stage2=StageSpec(4, (BranchSpec(2, 0.4, (8, 8)),)),
            global_mlp=(8, 6),
        )
        model = PeakEncoder(config, seed=1, dtype=np.float64)
        path = tmp_path / "m.ckpt"
        model.save(path)
        arrays, _ = container.read(path, CHECKPOINT)
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
        back = PeakEncoder.from_checkpoint(path, dtype=np.float64)
        for name, p in model.params.items():
            assert back.params[name].data.dtype == np.float64
            np.testing.assert_array_equal(
                back.params[name].data, p.data.astype(np.float32)
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(DecodeError):
            container.read(path, CHECKPOINT)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        container.write(path, CHECKPOINT, self._payload(), {})
        blob = bytearray(path.read_bytes())
        blob[7] = ord("9")
        path.write_bytes(bytes(blob))
        with pytest.raises(DecodeError):
            container.read(path, CHECKPOINT)
        path.write_bytes(b"PNFPCKPT" + bytes(blob[8:]))  # the retired format
        with pytest.raises(DecodeError, match="retired"):
            container.read(path, CHECKPOINT)

    def test_truncation_and_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        container.write(path, CHECKPOINT, self._payload(), {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DecodeError):
            container.read(path, CHECKPOINT)
        path.write_bytes(blob + b"xx")
        with pytest.raises(DecodeError):
            container.read(path, CHECKPOINT)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            container.read(tmp_path / "absent.ckpt", CHECKPOINT)
