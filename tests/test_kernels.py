"""Conv and eval-BN kernels against loop and formula oracles: exact values,
adjointness, fresh output, the cached patch index, the eval tap-major form."""

import itertools
import tracemalloc

import numpy as np
import pytest

from attnfold import kernels, tensor

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


def identity_kernel(c, kh, kw):
    """Kernels whose dL/dy rows are patches: `col2im` of them is a pure scatter."""
    return np.eye(c * kh * kw).reshape(-1, c, kh, kw)


def test_col2im_matches_tap_order_loop(case):
    rng, shape, (kh, kw, stride, padding) = case
    rows = loop_im2col(np.zeros(shape), kh, kw, stride, padding).shape
    cols = rng.standard_normal(rows)
    eye = identity_kernel(shape[1], kh, kw)
    assert np.array_equal(kernels.col2im(cols, eye, shape, stride, padding),
                          loop_col2im(cols, shape, kh, kw, stride, padding))


def test_adjoint_identity(case):
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    cols = kernels.im2col(x, kh, kw, stride, padding)
    p = rng.standard_normal(cols.shape)
    lhs = float((cols * p).sum())
    dx = kernels.col2im(p, identity_kernel(shape[1], kh, kw), shape, stride, padding)
    rhs = float((x * dx).sum())
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


def one_gemm(x, k, stride, padding):
    """The bias-free conv output [N,O,OH,OW] of one GEMM over the whole patch matrix."""
    n, _, h, w = x.shape
    o, _, kh, kw = k.shape
    oh, ow = kernels.conv_output_hw(h, w, kh, kw, stride, padding)
    rows = kernels.im2col(x, kh, kw, stride, padding) @ k.reshape(o, -1).T
    return rows.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)


def assert_eval_form_near_oracle(x, k, stride, padding):
    # The eval form multiplies tap-major blocks with the operands swapped, so
    # BLAS may round otherwise than the one-GEMM train form: hold y to a
    # long-double oracle, and to its own bytes from call to call.
    kh, kw = k.shape[2:]
    want = one_gemm(x.astype(np.longdouble), k.astype(np.longdouble), stride, padding)
    y = kernels.im2col(x, kh, kw, stride, padding, k=k)
    assert y.shape == want.shape and y.flags.c_contiguous
    assert np.abs(y - want).max() <= 1e-14 * np.abs(want).max()
    assert y.tobytes() == kernels.im2col(x, kh, kw, stride, padding, k=k).tobytes()


def test_block_form_equals_one_gemm(case):
    # Equal up to rounding: see assert_eval_form_near_oracle.
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    k = rng.standard_normal((2, shape[1], kh, kw))
    assert_eval_form_near_oracle(x, k, stride, padding)


def samples_per_block(shape, kk, stride, padding):
    """Samples in a full block of the eval form: as many as keep its
    tap-major matrix (full padded rows at stride 1) within the budget."""
    n, c, h, w = shape
    oh, ow = kernels.conv_output_hw(h, w, kk, kk, stride, padding)
    width = w + 2 * padding if stride == 1 else ow
    return min(n, max(1, kernels._BLOCK_BYTES // (c * kk * kk * oh * width * 8)))


# (x shape, output channels, kernel side, stride, padding), all multi-block.
MULTI_BLOCK = {
    "deploy-conv": ((64, 16, 16, 16), 16, 3, 1, 1),
    "deploy-stem": ((64, 3, 16, 16), 16, 3, 1, 1),
    "stride-2": ((64, 16, 16, 16), 8, 3, 2, 1),
    "uneven-blocks": ((37, 16, 16, 16), 4, 3, 1, 1),   # 3 samples a block, 37 = 12 * 3 + 1
    "o1": ((19, 16, 16, 16), 1, 3, 1, 0),
    "o2": ((5, 16, 16, 16), 2, 3, 1, 1),
    "o3": ((8, 16, 12, 12), 3, 5, 1, 1),
}
# One sample's tap-major matrix fills the block budget: one sample a block.
ONE_BLOCK = {
    "train-eval": ((16, 16, 32, 32), 16, 3, 1, 1),     # 1.3 MB a sample
    "o3-one-sample": ((8, 16, 16, 16), 3, 5, 1, 1),   # 0.8 MB: two samples would not fit
}


@pytest.mark.parametrize("geom", ONE_BLOCK.values(), ids=ONE_BLOCK.keys())
def test_one_block_form_equals_one_gemm(geom):
    shape, o, kk, stride, padding = geom
    assert samples_per_block(shape, kk, stride, padding) == 1
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    assert_eval_form_near_oracle(x, k, stride, padding)


@pytest.mark.parametrize("geom", MULTI_BLOCK.values(), ids=MULTI_BLOCK.keys())
def test_multi_block_form_near_extended_precision_oracle(geom):
    shape, o, kk, stride, padding = geom
    assert 1 < samples_per_block(shape, kk, stride, padding) < shape[0]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    assert_eval_form_near_oracle(x, k, stride, padding)


@pytest.mark.parametrize("name", ["deploy-conv", "deploy-stem", "stride-2", "train-eval"])
def test_eval_conv2d_forward_blocks_only_several_samples(name):
    # Eval mode is always the block form plus the bias, however many samples
    # a block holds, and it agrees with train mode's one GEMM up to rounding.
    shape, o, kk, stride, padding = {**MULTI_BLOCK, **ONE_BLOCK}[name]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    b = rng.standard_normal(o)
    y, cache = kernels.conv2d_forward(x, k, b, stride, padding, train=False)
    assert cache is None
    want = kernels.im2col(x, kk, kk, stride, padding, k=k) + b[:, None, None]
    assert y.tobytes() == want.tobytes()
    ytrain = kernels.conv2d_forward(x, k, b, stride, padding)[0]
    assert np.abs(y - ytrain).max() <= 1e-14 * np.abs(ytrain).max()


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_eval_form_keeps_samples_apart():
    # At stride 1 a tap's run reads past each output row into the next row,
    # sample or stale block; those columns are dropped, so a non-finite
    # sample leaves every other sample's output as it was, bit for bit.
    shape, o, kk, stride, padding = MULTI_BLOCK["uneven-blocks"]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    clean = kernels.im2col(x, kk, kk, stride, padding, k=k)
    for s, bad in [(0, np.nan), (2, np.inf), (35, -np.inf)]:
        x_bad = x.copy()
        x_bad[s] = bad
        y = kernels.im2col(x_bad, kk, kk, stride, padding, k=k)
        rest = np.arange(shape[0]) != s
        assert y[rest].tobytes() == clean[rest].tobytes()


@pytest.mark.parametrize("x_shape,k_shape", [((1, 0, 8, 8), (2, 0, 3, 3)),
                                             ((3, 0, 8, 8), (2, 0, 3, 3)),
                                             ((2, 3, 8, 8), (2, 3, 0, 3))],
                         ids=["no-channels", "no-channels-batch", "no-kernel-rows"])
def test_empty_patches_give_the_bias(x_shape, k_shape):
    # An empty patch row makes every product an empty sum, in either form.
    b = np.array([1.5, -2.0])
    y = tensor.conv2d(np.ones(x_shape), np.ones(k_shape), b, tensor.ConvSpec(1, 1)).data
    oh, ow = kernels.conv_output_hw(8, 8, k_shape[2], k_shape[3], 1, 1)
    assert np.array_equal(y, np.broadcast_to(b[:, None, None], (x_shape[0], 2, oh, ow)))
    ytrain, _ = kernels.conv2d_forward(np.ones(x_shape), np.ones(k_shape), b, 1, 1)
    assert np.array_equal(ytrain, y)


def test_eval_conv2d_forward_builds_no_patch_matrix():
    # In eval mode the patches are taken one sample block at a time, so the
    # forward never holds the [N*OH*OW, C*kh*kw] matrix.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16, 16, 16))
    k = rng.standard_normal((16, 16, 3, 3))
    tracemalloc.start()
    try:
        kernels.conv2d_forward(x, k, np.zeros(16), 1, 1, train=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 16 * 16 * 16 * 9 * 8


def test_one_block_eval_forward_holds_one_patch_matrix():
    # One sample a block: the eval forward holds the output and one sample's
    # tap-major block, far below the [N*OH*OW, C*kh*kw] patch matrix.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16, 32, 32))
    k = rng.standard_normal((16, 16, 3, 3))
    tracemalloc.start()
    try:
        kernels.conv2d_forward(x, k, np.zeros(16), 1, 1, train=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    patches = 16 * 32 * 32 * 16 * 9 * 8
    assert peak < patches / 4


def test_patch_fill_does_not_copy_the_index():
    # `take` copies a read-only index; the fill hands it the writable base.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16, 32, 32))
    cols = kernels.im2col(x, 3, 3, 1, 1)   # builds and caches the index
    index = kernels._patch_index(16, 34, 34, 3, 3, 1)
    tracemalloc.start()
    try:
        kernels.im2col(x, 3, 3, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = 16 * 16 * 34 * 34 * 8
    assert peak < padded + cols.nbytes + index.nbytes // 2


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


def masked_sigmoid(x):
    """The boolean-mask form `kernels.sigmoid` replaced, kept as its oracle."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, kernels._SIG_LO, kernels._SIG_HI)


def test_sigmoid_bytes_equal_masked_form():
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7, 37.5, -37.5,
             709.8, -709.8, 745.2, -745.2, 800.0, -800.0, np.inf, -np.inf]
    grid = np.concatenate([np.array(edges), np.linspace(-800.0, 800.0, 16006),
                           np.random.default_rng(7).standard_normal(4096) * 20.0])
    for x in (grid, grid.reshape(-1, 8), np.array(-0.0)):
        got = kernels.sigmoid(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == masked_sigmoid(x).tobytes()
