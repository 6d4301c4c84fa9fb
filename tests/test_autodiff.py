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
        check_grads(
            lambda t: ad.reduce_sum(ad.add(ad.add(t["a"], t["b"]), 0.7)), arrays
        )

    def test_bias_add_broadcast(self):
        rng = np.random.default_rng(3)
        w = rand(rng, 4, 3)
        arrays = {"a": rand(rng, 4, 3), "b": rand(rng, 3)}
        check_grads(
            lambda t: ad.reduce_sum(ad.mul(ad.add(t["a"], t["b"]), ad.constant(w))),
            arrays,
        )

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
            check_grads(lambda t: ad.mean(t["a"]), arrays)
        else:
            w = np.ones(4 if axis == 0 else 3)
            check_grads(
                lambda t: ad.reduce_sum(ad.mul(ad.mean(t["a"], axis), ad.constant(w))),
                arrays,
            )

    def test_log_exp(self):
        rng = np.random.default_rng(10)
        arrays = {"a": rng.uniform(0.5, 2.0, (3, 4))}
        check_grads(lambda t: ad.reduce_sum(ad.log(ad.exp(t["a"]))), arrays)
        check_grads(lambda t: ad.reduce_sum(ad.exp(ad.log(t["a"]))), arrays)

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
            h = ad.relu(ad.add(ad.matmul(t["x"], t["w1"]), t["b1"]))
            z = ad.l2_normalize(ad.matmul(h, t["w2"]), 1)
            return ad.reduce_sum(ad.mul(z, ad.constant(mask)))

        check_grads(build, arrays, rtol=1e-4, atol=1e-6)


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
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 2, 2))), a)
        with pytest.raises(ShapeError):
            ad.mul(a, b)

    def test_debug_checks_reject_nonfinite(self):
        ad.set_debug_checks(True)
        try:
            with pytest.raises(ContractError):
                ad.Tensor(np.array([1.0, np.nan]))
        finally:
            ad.set_debug_checks(False)
        ad.Tensor(np.array([1.0, np.nan]))  # allowed when checks are off

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
        ad.adam_step({"p": p}, state, lr, b1, b2, eps)
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
            ad.adam_step({"p": p}, state, lr, b1, b2, eps)
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
