"""tensor-core: kernels against naive loop oracles, plus type invariants."""

import tracemalloc

import numpy as np
import pytest

import attnfold.tensor as tensor_mod
from attnfold import (ConvSpec, InvariantError, MatrixOperator, ConvOperator,
                      ShapeError, Tensor, batchnorm_infer, channel_mul, conv2d,
                      global_avg_pool, linear, relu, sigmoid, spectral_norm)


def conv2d_loop(x, k, b, stride, pad):
    """Seven-nested-loop cross-correlation oracle."""
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    y = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += xp[ni, ci, i * stride + di, j * stride + dj] \
                                    * k[oi, ci, di, dj]
                    y[ni, oi, i, j] = acc + b[oi]
    return y


def matmul_loop(x, w, b):
    n, d = x.shape
    m = w.shape[0]
    y = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(d):
                acc += x[i, k] * w[j, k]
            y[i, j] = acc + b[j]
    return y


class TestTensorType:
    def test_rejects_nan(self):
        with pytest.raises(InvariantError):
            Tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(InvariantError):
            Tensor(np.array([np.inf]))

    def test_shape_and_data_agree(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6

    def test_immutable(self):
        t = Tensor([1.0])
        with pytest.raises(AttributeError):
            t.data = np.zeros(1)

    def test_data_is_read_only(self):
        t = Tensor(np.arange(3.0))
        with pytest.raises(ValueError, match="read-only"):
            t.data[0] = 7.0
        assert t.data.tolist() == [0.0, 1.0, 2.0]

    def test_caller_array_stays_writable(self):
        arr = np.arange(3.0)
        t = Tensor(arr)
        assert arr.flags.writeable
        arr[0] = 7.0
        assert arr[0] == 7.0 and not t.data.flags.writeable


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 1, 4, 4))
        k = np.ones((1, 1, 1, 1))
        y = conv2d(x, k, [0.0])
        np.testing.assert_array_equal(y.data, x)

    def test_zero_kernel_bias_broadcast(self):
        x = np.random.default_rng(1).standard_normal((1, 2, 3, 3))
        k = np.zeros((1, 2, 2, 2))
        y = conv2d(x, k, [3.0])
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), 3.0))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (1, 2, 5, 5))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        y = conv2d(x, k, b, ConvSpec(stride=1, padding=1))
        np.testing.assert_allclose(y.data, conv2d_loop(x, k, b, 1, 1), atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 2), (2, 0)])
    def test_strides_and_padding(self, stride, pad):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 3, 6, 7))
        k = rng.uniform(-1, 1, (4, 3, 3, 3))
        b = rng.uniform(-1, 1, 4)
        y = conv2d(x, k, b, ConvSpec(stride=stride, padding=pad))
        np.testing.assert_allclose(y.data, conv2d_loop(x, k, b, stride, pad), atol=1e-12)

    def test_channel_mismatch_names_axes(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), [0.0])

    def test_too_small_input(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)), [0.0])


class TestGap:
    def test_constant(self):
        x = np.full((2, 3, 4, 4), 2.5)
        np.testing.assert_array_equal(global_avg_pool(x).data, np.full((2, 3), 2.5))

    def test_single_pixel(self):
        x = np.arange(6.0).reshape(2, 3, 1, 1)
        np.testing.assert_array_equal(global_avg_pool(x).data,
                                      np.arange(6.0).reshape(2, 3))

    def test_mean(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert global_avg_pool(x).data[0, 0] == 2.5


class TestBatchnormInfer:
    def test_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 4, 4))
        y = batchnorm_infer(x, np.zeros(3), np.ones(3), np.ones(3), np.zeros(3), 1e-12)
        np.testing.assert_allclose(y.data, x, atol=1e-10)

    def test_zero_scale(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 2, 2))
        beta = np.array([1.0, -2.0, 0.5])
        y = batchnorm_infer(x, np.zeros(3), np.ones(3), np.zeros(3), beta)
        for c in range(3):
            np.testing.assert_array_equal(y.data[:, c], np.full((2, 2, 2), beta[c]))

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 3, 3))
        mu = rng.standard_normal(4)
        var = rng.uniform(0.1, 2.0, 4)
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        eps = 1e-5
        y = batchnorm_infer(x, mu, var, gamma, beta, eps)
        expected = np.empty_like(x)
        for n in range(2):
            for c in range(4):
                for i in range(3):
                    for j in range(3):
                        expected[n, c, i, j] = ((x[n, c, i, j] - mu[c])
                                                / np.sqrt(var[c] + eps)
                                                * gamma[c] + beta[c])
        np.testing.assert_allclose(y.data, expected, atol=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(InvariantError, match="variance"):
            batchnorm_infer(np.zeros((1, 1, 2, 2)), [0.0], [-1.0], [1.0], [0.0])


class TestChannelMul:
    def test_ones_identity(self):
        x = np.random.default_rng(7).standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(channel_mul(x, np.ones(3)).data, x)

    def test_zeros(self):
        x = np.random.default_rng(8).standard_normal((2, 3, 2, 2))
        np.testing.assert_array_equal(channel_mul(x, np.zeros(3)).data, np.zeros_like(x))

    def test_matches_loop(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4, 4))
        v = rng.standard_normal(3)
        y = channel_mul(x, v)
        expected = np.empty_like(x)
        for n in range(2):
            for c in range(3):
                expected[n, c] = x[n, c] * v[c]
        np.testing.assert_array_equal(y.data, expected)

    def test_relu_commutes_for_positive_v(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 5, 4, 4))
        v = rng.uniform(0.01, 1.0, 5)
        lhs = channel_mul(relu(x), v)
        rhs = relu(channel_mul(x, v))
        np.testing.assert_array_equal(lhs.data, rhs.data)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            channel_mul(np.zeros((1, 3, 2, 2)), np.zeros(4))


class TestPointwise:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0])).data[0] == 0.5

    def test_sigmoid_open_interval(self):
        x = np.array([-700.0, -30.0, 0.0, 30.0, 700.0])
        y = sigmoid(x).data
        assert (y > 0).all() and (y < 1).all()

    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 2.0])).data, [0.0, 2.0])

    def test_linear_matches_loop(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (4, 5))
        w = rng.uniform(-1, 1, (3, 5))
        b = rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(linear(x, w, b).data, matmul_loop(x, w, b),
                                   atol=1e-12)

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))


def svd_oracle(w):
    """Largest singular value via eigen-decomposition of W^T W."""
    return float(np.sqrt(np.linalg.eigvalsh(w.T @ w).max()))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(MatrixOperator(np.eye(4))) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        got = spectral_norm(MatrixOperator(np.diag([3.0, 1.0])))
        assert got == pytest.approx(3.0, abs=1e-8)

    def test_zero_operator(self):
        assert spectral_norm(MatrixOperator(np.zeros((3, 3)))) == 0.0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((8, 8))
        got = spectral_norm(MatrixOperator(w), iters=200, tol=1e-14)
        assert got == pytest.approx(svd_oracle(w), rel=1e-6)

    def test_non_decreasing_in_iters(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((10, 10))
        ests = [spectral_norm(MatrixOperator(w), iters=k, tol=0.0)
                for k in (1, 2, 5, 10, 30, 80)]
        for a, b in zip(ests, ests[1:]):
            assert b >= a - 1e-12

    def test_below_frobenius(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            w = rng.standard_normal((6, 9))
            est = spectral_norm(MatrixOperator(w), iters=100)
            assert est <= np.linalg.norm(w) + 1e-12

    def test_conv_operator_matches_dense_matrix(self):
        rng = np.random.default_rng(15)
        k = rng.standard_normal((2, 3, 3, 3))
        spec = ConvSpec(stride=1, padding=1)
        op = ConvOperator(k, spec, (4, 4))
        dense = np.zeros((2 * 4 * 4, op.input_size))
        for i in range(op.input_size):
            e = np.zeros(op.input_size)
            e[i] = 1.0
            dense[:, i] = op.apply(e)
        got = spectral_norm(op, iters=400, tol=1e-14)
        assert got == pytest.approx(svd_oracle(dense), rel=1e-6)

    def test_conv_operator_transpose_is_adjoint(self):
        rng = np.random.default_rng(16)
        k = rng.standard_normal((3, 2, 3, 3))
        op = ConvOperator(k, ConvSpec(stride=2, padding=1), (6, 6))
        x = rng.standard_normal(op.input_size)
        y = rng.standard_normal(op.apply(x).size)
        assert np.dot(op.apply(x), y) == pytest.approx(np.dot(x, op.apply_transpose(y)),
                                                       rel=1e-12)


def dense_matrix(op):
    """The operator's dense matrix, one column per unit input vector."""
    return np.stack([op.apply(e) for e in np.eye(op.input_size)], axis=1)


def svd_norm(w):
    return float(np.linalg.svd(w, compute_uv=False)[0])


class TestSpectralNormPaths:
    """Explicit matrices take the exact path; implicit convs power-iterate."""

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (7, 7), (3, 64), (64, 3)])
    def test_matrix_exact_against_svd(self, shape):
        w = np.random.default_rng(sum(shape)).standard_normal(shape)
        oracle = svd_norm(w)
        assert abs(spectral_norm(MatrixOperator(w)) - oracle) <= 1e-12 * oracle

    def test_matrix_ignores_power_iteration_knobs(self):
        w = np.random.default_rng(18).standard_normal((20, 30))
        assert (spectral_norm(MatrixOperator(w), iters=1, tol=1.0, seed=5)
                == spectral_norm(MatrixOperator(w)))

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (0, 4), (4, 0)])
    def test_zero_and_empty_matrix(self, shape):
        assert spectral_norm(MatrixOperator(np.zeros(shape))) == 0.0

    @pytest.fixture
    def memo(self, monkeypatch):
        """An empty norm table for this test, and a count of eigen-solves."""
        table = {}
        monkeypatch.setattr(tensor_mod, "_MATRIX_NORMS", table)
        solves = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            solves.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return table, solves

    def test_equal_content_solves_once(self, memo):
        table, solves = memo
        w = np.random.default_rng(20).standard_normal((128, 128))
        norms = {spectral_norm(MatrixOperator(w.copy())) for _ in range(30)}
        assert len(solves) == 1 and len(table) == 1 and len(norms) == 1
        assert abs(norms.pop() - svd_norm(w)) <= 1e-12 * svd_norm(w)

    def test_in_place_change_is_solved_afresh(self, memo):
        _, solves = memo
        w = np.random.default_rng(21).standard_normal((16, 24))
        op = MatrixOperator(w)
        before = spectral_norm(op)
        w[3, 5] += 10.0
        after = spectral_norm(op)
        assert after != before
        assert abs(after - svd_norm(w)) <= 1e-12 * svd_norm(w)
        assert len(solves) == 2

    def test_shape_is_part_of_the_key(self, memo):
        table, _ = memo
        flat = np.random.default_rng(22).standard_normal(128 * 128)
        for shape in [(64, 256), (128, 128)]:
            w = flat.reshape(shape)
            assert abs(spectral_norm(MatrixOperator(w)) - svd_norm(w)) <= 1e-12 * svd_norm(w)
        assert len(table) == 2
        assert len(set(table.values())) == 2

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (7, 7), (3, 64), (64, 3)])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_cached_equals_fresh(self, memo, shape, transpose):
        table, solves = memo
        w = np.random.default_rng(sum(shape)).standard_normal(shape)
        if transpose:
            w = w.T
        fresh = spectral_norm(MatrixOperator(w))
        cached = spectral_norm(MatrixOperator(w))
        table.clear()
        again = spectral_norm(MatrixOperator(np.array(w)))
        assert len(solves) == 2
        assert fresh == cached == again
        assert abs(cached - svd_norm(w)) <= 1e-12 * svd_norm(w)

    def test_table_is_bounded_and_keeps_no_matrix(self, memo):
        table, _ = memo
        rng = np.random.default_rng(23)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(300):
                spectral_norm(MatrixOperator(rng.standard_normal((128, 128))))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(table) == tensor_mod._MATRIX_NORMS_MAX
        assert held < 100_000

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_conv_operator_against_dense_svd(self, ksize, stride, padding):
        rng = np.random.default_rng(100 * ksize + 10 * stride + padding)
        op = ConvOperator(rng.standard_normal((3, 2, ksize, ksize)),
                          ConvSpec(stride=stride, padding=padding), (6, 6))
        s = np.linalg.svd(dense_matrix(op), compute_uv=False)
        iters = 2000
        got = spectral_norm(op, iters=iters, tol=1e-14)
        # Power iteration approaches s0 from below, shrinking the error by
        # (s1/s0)^2 per step. Where that rate leaves it short after `iters`
        # steps (padded convs can have a near-tied leading pair), it must
        # still resolve the norm to the leading gap; an exact tie converges
        # like a single leading value.
        ratio = s[1] / s[0]
        slow = ratio ** (2 * iters) >= 1e-12
        rel = max(1e-9, 1.0 - ratio) if slow else 1e-9
        assert s[0] * (1.0 - rel) <= got <= s[0] * (1.0 + 1e-12)

    def test_conv_operator_non_decreasing_in_iters(self):
        k = np.random.default_rng(19).standard_normal((3, 2, 3, 3))
        op = ConvOperator(k, ConvSpec(stride=1, padding=1), (5, 5))
        ests = [spectral_norm(op, iters=n, tol=0.0) for n in (1, 2, 5, 10, 30, 80)]
        for a, b in zip(ests, ests[1:]):
            assert b >= a - 1e-12
        assert ests[-1] <= svd_norm(dense_matrix(op)) * (1 + 1e-12)
