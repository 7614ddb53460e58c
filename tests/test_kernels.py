"""im2col / col2im against loop oracles: exact values, adjointness, fresh output."""

import itertools

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
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
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
