"""Conv and eval-BN kernels against loop and formula oracles: exact values,
adjointness, fresh output, the cached patch index."""

import itertools
import tracemalloc

import numpy as np
import pytest

from attnfold import kernels

GRID = [(kh, kw, stride, padding, n, c)
        for (kh, kw), stride, padding, n, c in itertools.product(
            [(1, 1), (3, 3), (5, 5), (3, 2)], [1, 2], [0, 1, 2], [1, 3], [1, 3])]
H, W = 7, 6


def loop_im2col(x, kh, kw, stride, padding):
    n, c, h, w = x.shape
    oh, ow = kernels.conv_output_hw(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.zeros((n * oh * ow, c * kh * kw))
    for s, r, q in itertools.product(range(n), range(oh), range(ow)):
        row = (s * oh + r) * ow + q
        for ch, i, j in itertools.product(range(c), range(kh), range(kw)):
            cols[row, (ch * kh + i) * kw + j] = xp[s, ch, r * stride + i, q * stride + j]
    return cols


def loop_col2im(cols, x_shape, kh, kw, stride, padding):
    """Tap-order scatter: every pixel adds its taps in (i, j) order, from 0."""
    n, c, h, w = x_shape
    oh, ow = kernels.conv_output_hw(h, w, kh, kw, stride, padding)
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i, j in itertools.product(range(kh), range(kw)):
        for s, ch, r, q in itertools.product(range(n), range(c), range(oh), range(ow)):
            img[s, ch, r * stride + i, q * stride + j] += \
                cols[(s * oh + r) * ow + q, (ch * kh + i) * kw + j]
    return img[:, :, padding:padding + h, padding:padding + w]


@pytest.fixture(params=GRID, ids=lambda p: "k{}x{}-s{}-p{}-n{}-c{}".format(*p))
def case(request):
    kh, kw, stride, padding, n, c = request.param
    rng = np.random.default_rng(sum(request.param))
    return rng, (n, c, H, W), (kh, kw, stride, padding)


def test_im2col_matches_loop(case):
    rng, shape, geom = case
    x = rng.standard_normal(shape)
    assert np.array_equal(kernels.im2col(x, *geom), loop_im2col(x, *geom))


def test_col2im_matches_tap_order_loop(case):
    rng, shape, geom = case
    rows = loop_im2col(np.zeros(shape), *geom).shape
    cols = rng.standard_normal(rows)
    assert np.array_equal(kernels.col2im(cols, shape, *geom), loop_col2im(cols, shape, *geom))


def test_adjoint_identity(case):
    rng, shape, geom = case
    x = rng.standard_normal(shape)
    cols = kernels.im2col(x, *geom)
    p = rng.standard_normal(cols.shape)
    lhs = float((cols * p).sum())
    rhs = float((x * kernels.col2im(p, shape, *geom)).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_im2col_is_fresh_and_writable(case):
    rng, shape, geom = case
    x = rng.standard_normal(shape)
    before = x.copy()
    cols = kernels.im2col(x, *geom)
    assert cols.flags.c_contiguous and cols.flags.writeable
    assert not np.shares_memory(cols, x)
    cols[...] = 7.0
    assert np.array_equal(x, before)


def test_backward_input_matches_conv2d_backward(case):
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    k = rng.standard_normal((2, shape[1], kh, kw))
    y, cache = kernels.conv2d_forward(x, k, np.zeros(2), stride, padding)
    dy = rng.standard_normal(y.shape)
    dx, _, _ = kernels.conv2d_backward(dy, k, cache)
    assert np.array_equal(kernels.conv2d_backward_input(dy, k, shape, stride, padding), dx)


def test_backward_input_near_extended_precision_oracle(case):
    # The fused GEMM may round differently from the one-GEMM form, so hold
    # dx to a long-double oracle: rounding stays at a few ulps of max |dx|.
    rng, shape, (kh, kw, stride, padding) = case
    k = rng.standard_normal((2, shape[1], kh, kw))
    oh, ow = kernels.conv_output_hw(H, W, kh, kw, stride, padding)
    dy = rng.standard_normal((shape[0], 2, oh, ow))
    rows = dy.transpose(0, 2, 3, 1).reshape(-1, 2).astype(np.longdouble)
    want = loop_col2im(rows @ k.reshape(2, -1).astype(np.longdouble), shape,
                       kh, kw, stride, padding)
    dx = kernels.conv2d_backward_input(dy, k, shape, stride, padding)
    assert np.abs(dx - want).max() <= 1e-14 * np.abs(want).max()
    again = kernels.conv2d_backward_input(dy, k, shape, stride, padding)
    assert dx.tobytes() == again.tobytes()


def test_conv2d_backward_builds_no_patch_sized_product():
    # dL/dx is formed per sample inside col2im, so the backward pass never
    # holds a second [N*OH*OW, C*kh*kw] matrix next to the cached patches.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 16, 32, 32))
    k = rng.standard_normal((16, 16, 3, 3))
    y, cache = kernels.conv2d_forward(x, k, np.zeros(16), 1, 1)
    dy = rng.standard_normal(y.shape)
    tracemalloc.start()
    try:
        kernels.conv2d_backward(dy, k, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cache["cols"].nbytes


def test_im2col_of_non_contiguous_input(case):
    rng, (n, c, h, w), geom = case
    x = rng.standard_normal((w, h, c, n)).transpose(3, 2, 1, 0)
    assert not x.flags.c_contiguous
    assert np.array_equal(kernels.im2col(x, *geom), loop_im2col(x, *geom))


def test_conv2d_forward_is_one_gemm_plus_bias(case):
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    k = rng.standard_normal((2, shape[1], kh, kw))
    b = rng.standard_normal(2)
    y, _ = kernels.conv2d_forward(x, k, b, stride, padding)
    oh, ow = kernels.conv_output_hw(H, W, kh, kw, stride, padding)
    rows = loop_im2col(x, kh, kw, stride, padding) @ k.reshape(2, -1).T + b
    assert np.array_equal(y, rows.reshape(shape[0], oh, ow, 2).transpose(0, 3, 1, 2))


def test_patch_index_is_cached_and_read_only():
    x = np.random.default_rng(0).standard_normal((2, 3, 7, 6))
    kernels.im2col(x, 3, 3, 2, 1)
    hits = kernels._patch_index.cache_info().hits
    kernels.im2col(x[:1], 3, 3, 2, 1)
    assert kernels._patch_index.cache_info().hits == hits + 1
    idx = kernels._patch_index(3, 9, 8, 3, 3, 2)
    assert idx is kernels._patch_index(3, 9, 8, 3, 3, 2)
    with pytest.raises(ValueError, match="read-only"):
        idx[0] = 0


@pytest.mark.parametrize("shape", [(5, 4), (3, 4, 6, 5)])
@pytest.mark.parametrize("noise", [None, (1.3, -0.2)])
def test_batchnorm_eval_matches_formula(shape, noise):
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape)
    mean, gamma, beta = rng.standard_normal((3, 4))
    var = rng.random(4) + 0.1
    ex = (slice(None),) + (None,) * (len(shape) - 2)
    xhat = (x - mean[ex]) / np.sqrt(var + 1e-5)[ex]
    if noise is not None:
        xhat = xhat * noise[0] + noise[1]
    want = xhat * gamma[ex] + beta[ex]
    got = kernels.batchnorm_eval_forward(x, mean, var, gamma, beta, 1e-5, noise=noise)
    assert np.array_equal(got, want)
