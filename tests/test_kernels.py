"""Conv and BN kernels against loop, long-double and unfused oracles: the
one-GEMM bits of a one-block train conv, adjointness, fresh output, the
tap-major blocks and their per-thread workspace, the BN train passes' bytes,
memory and write ranges over helper threads, and the `out=` forms of the
elementwise kernels."""

import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

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
    taps = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i, j in itertools.product(range(kh), range(kw)):
        img[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += taps[:, :, i, j]
    return img[:, :, padding:padding + h, padding:padding + w]


def window_im2col(x, kh, kw, stride, padding):
    """The patch matrix in x's dtype, from numpy's sliding windows: the
    oracle for shapes too large for `loop_im2col`."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    return win.reshape(-1, x.shape[1] * kh * kw)


def oracle_y(x, k, stride, padding):
    """The bias-free conv output in long double: one GEMM over the exact
    patch matrix."""
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    oh, ow = kernels.conv_output_hw(h, w, kh, kw, stride, padding)
    cols = window_im2col(x.astype(np.longdouble), kh, kw, stride, padding)
    y = cols @ k.reshape(o, -1).T.astype(np.longdouble)
    return y.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)


def oracle_grads(x, k, dy, stride, padding):
    """(dk, dx) of the bias-free conv in long double: dk by one GEMM over
    the exact patch matrix, dx by the tap-order scatter."""
    o, _, kh, kw = k.shape
    cols = window_im2col(x.astype(np.longdouble), kh, kw, stride, padding)
    rows = dy.transpose(0, 2, 3, 1).reshape(-1, o).astype(np.longdouble)
    dcols = rows @ k.reshape(o, -1).astype(np.longdouble)
    return (rows.T @ cols).reshape(k.shape), loop_col2im(dcols, x.shape, kh, kw, stride, padding)


def assert_near(got, want):
    """Equal up to rounding: within 1e-14 of max |want|."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def samples_per_block(shape, kh, kw, stride, padding):
    """Samples in a full block of the tap-major layout: as many as keep its
    matrix T (full padded rows at stride 1) within the budget."""
    n, c, h, w = shape
    oh, ow = kernels.conv_output_hw(h, w, kh, kw, stride, padding)
    width = w + 2 * padding if stride == 1 else ow
    return min(n, max(1, kernels._BLOCK_BYTES // (c * kh * kw * oh * width * 8)))


@pytest.fixture(params=GRID, ids=lambda p: "k{}x{}-s{}-p{}-n{}-c{}".format(*p))
def case(request):
    kh, kw, stride, padding, n, c = request.param
    rng = np.random.default_rng(sum(request.param))
    return rng, (n, c, H, W), (kh, kw, stride, padding)


def identity_kernel(c, kh, kw):
    """Kernels whose output channels are the patch values: `im2col` of them
    is the patch matrix, and `col2im` a pure scatter."""
    return np.eye(c * kh * kw).reshape(-1, c, kh, kw)


def test_im2col_matches_loop(case):
    # Both forms copy the loop's patch values: through the identity kernel
    # every product is exact, so y is the patch matrix.
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    eye = identity_kernel(shape[1], kh, kw)
    want = loop_im2col(x, kh, kw, stride, padding)
    for train in (True, False):
        y = kernels.im2col(x, eye, stride, padding, train)
        assert np.array_equal(y.transpose(0, 2, 3, 1).reshape(want.shape), want)


def test_col2im_matches_tap_order_loop(case):
    rng, shape, (kh, kw, stride, padding) = case
    oh, ow = kernels.conv_output_hw(H, W, kh, kw, stride, padding)
    cols = rng.standard_normal((shape[0] * oh * ow, shape[1] * kh * kw))
    dy = cols.reshape(shape[0], oh, ow, -1).transpose(0, 3, 1, 2)
    eye = identity_kernel(shape[1], kh, kw)
    dx, _ = kernels.col2im(dy, eye, rng.standard_normal(shape), stride, padding)
    assert np.array_equal(dx, loop_col2im(cols, shape, kh, kw, stride, padding))


def test_adjoint_identity(case):
    # <conv(x), dy> = <x, dx> = <k, dk>: col2im is the adjoint of im2col in
    # x and in k.
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    k = rng.standard_normal((2, shape[1], kh, kw))
    y = kernels.im2col(x, k, stride, padding, train=True)
    dy = rng.standard_normal(y.shape)
    dx, dk = kernels.col2im(dy, k, x, stride, padding)
    lhs = float((y * dy).sum())
    for rhs in (float((x * dx).sum()), float((k * dk).sum())):
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_im2col_is_fresh_and_writable(case):
    # y is fresh in either form, never the workspace the blocks reuse.
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    k = rng.standard_normal((2, shape[1], kh, kw))
    before = x.copy()
    for train in (True, False):
        y = kernels.im2col(x, k, stride, padding, train)
        assert y.flags.c_contiguous and y.flags.writeable
        assert not np.shares_memory(y, x)
        assert not any(np.shares_memory(y, buf) for buf in vars(kernels._workspace).values())
        y[...] = 7.0
        assert np.array_equal(x, before)


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
    x = rng.standard_normal(shape)
    dx = kernels.col2im(dy, k, x, stride, padding)[0]
    assert np.abs(dx - want).max() <= 1e-14 * np.abs(want).max()
    again = kernels.col2im(dy, k, x, stride, padding)[0]
    assert dx.tobytes() == again.tobytes()


def test_dk_near_extended_precision_oracle(case):
    # dk sums over T's columns, spill zeros included, in BLAS's order, not
    # the one-GEMM form's: hold it to a long-double oracle and its own bytes.
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    k = rng.standard_normal((2, shape[1], kh, kw))
    y, cache = kernels.conv2d_forward(x, k, np.zeros(2), stride, padding)
    dy = rng.standard_normal(y.shape)
    _, dk, _ = kernels.conv2d_backward(dy, k, cache)
    assert_near(dk, oracle_grads(x, k, dy, stride, padding)[0])
    assert dk.tobytes() == kernels.conv2d_backward(dy, k, cache)[1].tobytes()


def test_conv2d_backward_builds_no_patch_sized_product():
    # Fails at the parent, whose train cache held the [N*OH*OW, C*kh*kw]
    # patch matrix (37.7 MB here) from the forward to dk. Now the cache holds
    # x itself and both passes take their patches one block at a time.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 16, 32, 32))
    k = rng.standard_normal((16, 16, 3, 3))
    patches = 32 * 32 * 32 * 16 * 9 * 8
    tracemalloc.start()
    try:
        y, cache = kernels.conv2d_forward(x, k, np.zeros(16), 1, 1)
        forward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [v for v in cache.values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is x
    assert forward_peak < y.nbytes + patches / 4
    dy = rng.standard_normal(y.shape)
    tracemalloc.start()
    try:
        kernels.conv2d_backward(dy, k, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < patches / 4


def test_im2col_of_non_contiguous_input(case):
    rng, (n, c, h, w), (kh, kw, stride, padding) = case
    x = rng.standard_normal((w, h, c, n)).transpose(3, 2, 1, 0)
    assert not x.flags.c_contiguous
    k = rng.standard_normal((2, c, kh, kw))
    rows = loop_im2col(x, kh, kw, stride, padding) @ k.reshape(2, -1).T
    y = kernels.im2col(x, k, stride, padding, train=True)
    assert np.array_equal(y, rows.reshape(n, *y.shape[2:], 2).transpose(0, 3, 1, 2))
    xc = np.ascontiguousarray(x)
    assert (kernels.im2col(x, k, stride, padding).tobytes()
            == kernels.im2col(xc, k, stride, padding).tobytes())
    dy = rng.standard_normal(y.shape)
    got, want = (kernels.col2im(dy, k, a, stride, padding) for a in (x, xc))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_conv2d_forward_is_one_gemm_plus_bias(case):
    # The margin of the finite-difference gradient check (c4) rests on this:
    # a train conv whose batch fits in one block is the one GEMM over the
    # loop-built patch matrix plus the bias, bit for bit.
    rng, shape, (kh, kw, stride, padding) = case
    assert samples_per_block(shape, kh, kw, stride, padding) == shape[0]
    x = rng.standard_normal(shape)
    oh, ow = kernels.conv_output_hw(H, W, kh, kw, stride, padding)
    for o in (1, 2, 4):
        k = rng.standard_normal((o, shape[1], kh, kw))
        b = rng.standard_normal(o)
        y, _ = kernels.conv2d_forward(x, k, b, stride, padding)
        rows = loop_im2col(x, kh, kw, stride, padding) @ k.reshape(o, -1).T + b
        assert np.array_equal(y, rows.reshape(shape[0], oh, ow, o).transpose(0, 3, 1, 2))


def assert_eval_form_near_oracle(x, k, stride, padding):
    # The eval form multiplies tap-major blocks with the operands swapped, so
    # BLAS may round otherwise than the one-GEMM train form: hold y to a
    # long-double oracle, and to its own bytes from call to call.
    y = kernels.im2col(x, k, stride, padding)
    assert y.flags.c_contiguous
    assert_near(y, oracle_y(x, k, stride, padding))
    assert y.tobytes() == kernels.im2col(x, k, stride, padding).tobytes()


def test_block_form_equals_one_gemm(case):
    # Equal up to rounding: see assert_eval_form_near_oracle.
    rng, shape, (kh, kw, stride, padding) = case
    x = rng.standard_normal(shape)
    k = rng.standard_normal((2, shape[1], kh, kw))
    assert_eval_form_near_oracle(x, k, stride, padding)


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
ONE_SAMPLE_BLOCK = {
    "train-eval": ((16, 16, 32, 32), 16, 3, 1, 1),     # 1.3 MB a sample
    "o3-one-sample": ((8, 16, 16, 16), 3, 5, 1, 1),   # 0.8 MB: two samples would not fit
}


@pytest.mark.parametrize("geom", ONE_SAMPLE_BLOCK.values(), ids=ONE_SAMPLE_BLOCK.keys())
def test_one_sample_block_form_near_extended_precision_oracle(geom):
    shape, o, kk, stride, padding = geom
    assert samples_per_block(shape, kk, kk, stride, padding) == 1
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    assert_eval_form_near_oracle(x, k, stride, padding)


@pytest.mark.parametrize("geom", MULTI_BLOCK.values(), ids=MULTI_BLOCK.keys())
def test_multi_block_form_near_extended_precision_oracle(geom):
    shape, o, kk, stride, padding = geom
    assert 1 < samples_per_block(shape, kk, kk, stride, padding) < shape[0]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    assert_eval_form_near_oracle(x, k, stride, padding)


@pytest.mark.parametrize("name", ["uneven-blocks", "stride-2", "o3", "o3-one-sample"])
def test_train_conv_of_several_blocks_near_extended_precision_oracle(name):
    # Over several blocks, train y is one GEMM per block, dk adds up the
    # blocks' products and dx their taps: each equals its one-GEMM form up
    # to rounding only, and repeats its own bytes.
    shape, o, kk, stride, padding = {**MULTI_BLOCK, **ONE_SAMPLE_BLOCK}[name]
    assert samples_per_block(shape, kk, kk, stride, padding) < shape[0]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    y, cache = kernels.conv2d_forward(x, k, np.zeros(o), stride, padding)
    dy = rng.standard_normal(y.shape)
    dx, dk, _ = kernels.conv2d_backward(dy, k, cache)
    assert_near(y, oracle_y(x, k, stride, padding))
    for got, want in zip((dk, dx), oracle_grads(x, k, dy, stride, padding)):
        assert_near(got, want)
    assert y.tobytes() == kernels.conv2d_forward(x, k, np.zeros(o), stride, padding)[0].tobytes()
    again = kernels.conv2d_backward(dy, k, cache)
    assert dx.tobytes() == again[0].tobytes() and dk.tobytes() == again[1].tobytes()


@pytest.mark.parametrize("name", ["deploy-conv", "deploy-stem", "stride-2", "train-eval"])
def test_eval_conv2d_forward_is_the_block_form_plus_bias(name):
    # Eval mode is always the block form plus the bias, however many samples
    # a block holds, and it agrees with train mode up to rounding.
    shape, o, kk, stride, padding = {**MULTI_BLOCK, **ONE_SAMPLE_BLOCK}[name]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    b = rng.standard_normal(o)
    y, cache = kernels.conv2d_forward(x, k, b, stride, padding, train=False)
    assert cache is None
    want = kernels.im2col(x, k, stride, padding) + b[:, None, None]
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
    clean = kernels.im2col(x, k, stride, padding)
    for s, bad in [(0, np.nan), (2, np.inf), (35, -np.inf)]:
        x_bad = x.copy()
        x_bad[s] = bad
        y = kernels.im2col(x_bad, k, stride, padding)
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


def test_one_sample_block_eval_forward_holds_far_less_than_patch_matrix():
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


def in_new_thread(fn):
    """fn() run on a new thread, whose conv workspace starts empty."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn()))
    worker.start()
    worker.join()
    return result[0]


def eval_conv(x, k, stride, padding):
    return kernels.im2col(x, k, stride, padding)


def train_conv(x, k, stride, padding):
    """The train y, dx and dk of x, with dL/dy = y, as one byte string."""
    y, cache = kernels.conv2d_forward(x, k, np.zeros(k.shape[0]), stride, padding)
    dx, dk, _ = kernels.conv2d_backward(y, k, cache)
    return y.tobytes() + dx.tobytes() + dk.tobytes()


def test_workspace_border_is_zero_for_each_geometry():
    # Passes at the parent, whose buffers were fresh. Both geometries pad to
    # the same [N, 4, 10, 10] buffer, so they reuse one; the unpadded one
    # fills the other's border, which must read zero again.
    rng = np.random.default_rng(0)
    cases = [(rng.standard_normal((5, 4, 8, 8)), rng.standard_normal((3, 4, 3, 3)), 1),
             (rng.standard_normal((5, 4, 10, 10)), rng.standard_normal((3, 4, 3, 3)), 0)]
    want = [in_new_thread(lambda c=c: eval_conv(c[0], c[1], 1, c[2]).tobytes())
            for c in cases]

    def interleaved():
        return [eval_conv(x, k, 1, p).tobytes() for _ in range(3) for x, k, p in cases]
    assert in_new_thread(interleaved) == want * 3


def test_workspace_is_per_thread():
    # Passes at the parent, whose buffers were fresh: four threads (two per
    # conv, more than the cores) run two different convs at once, one eval
    # and one train forward and backward, with a short switch interval, and
    # each keeps the sequential bytes.
    rng = np.random.default_rng(1)
    x1, k1 = rng.standard_normal((12, 16, 16, 16)), rng.standard_normal((16, 16, 3, 3))
    x2, k2 = rng.standard_normal((9, 8, 12, 12)), rng.standard_normal((4, 8, 5, 5))
    cases = [lambda: eval_conv(x1, k1, 1, 1).tobytes(), lambda: train_conv(x2, k2, 1, 2)]
    want = [conv() for conv in cases]
    got = [[] for _ in range(4)]

    def repeat(i):
        got[i].extend(cases[i % 2]() for _ in range(50))
    workers = [threading.Thread(target=repeat, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [[want[i % 2]] * 50 for i in range(4)]


def workspace_bytes():
    return sum(buf.nbytes for buf in vars(kernels._workspace).values())


def test_over_budget_sample_leaves_the_workspace_within_budget():
    # Fails at the parent, which has no workspace. One sample's tap-major
    # matrix (1.3 MB) exceeds the block budget, so it is fresh and not kept;
    # the padded block and the product are kept, one budget each.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 16, 32, 32))
    k = rng.standard_normal((16, 16, 3, 3))

    def held():
        y = eval_conv(x, k, 1, 1)
        return {n: b.nbytes for n, b in vars(kernels._workspace).items()}, y
    sizes, y = in_new_thread(held)
    assert samples_per_block(x.shape, 3, 3, 1, 1) == 1
    assert sizes == {"flat": kernels._BLOCK_BYTES, "prod": kernels._BLOCK_BYTES}
    assert y.tobytes() == eval_conv(x, k, 1, 1).tobytes()


def test_warm_eval_conv_allocates_only_its_output():
    # Fails at the parent, which allocated its padded block, tap-major
    # matrix and product (1.2 MB at this shape) beside y on every call. What
    # is left beside y is numpy's own copy buffers (66 KB here).
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 16, 16, 16))
    k = rng.standard_normal((16, 16, 3, 3))
    y = kernels.conv2d_forward(x, k, np.zeros(16), 1, 1, train=False)[0]
    tracemalloc.start()
    try:
        kernels.conv2d_forward(x, k, np.zeros(16), 1, 1, train=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + 256 * 1024
    assert workspace_bytes() <= 3 * kernels._BLOCK_BYTES


def serial_and_threaded(monkeypatch, threads, conv, repeats):
    """conv() with the blocks on the calling thread alone, then `repeats`
    times over `threads` runs, from a new thread with a short switch
    interval and a time limit."""
    monkeypatch.setattr(kernels, "_threads", 1)
    want = conv()
    monkeypatch.setattr(kernels, "_threads", threads)
    got = []
    worker = threading.Thread(target=lambda: got.extend(conv() for _ in range(repeats)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert len(kernels._helpers) >= threads - 1
    return want, got


def all_directions(x, k, stride, padding):
    """The eval y's bytes, and the train y, dx and dk as one byte string."""
    return eval_conv(x, k, stride, padding).tobytes(), train_conv(x, k, stride, padding)


def test_thread_count_never_changes_bytes_on_the_grid(case, monkeypatch):
    # Each grid geometry at the smallest batch of two blocks, one a thread,
    # so the two runs meet at their boundary at once: every direction keeps
    # the serial bytes. The repeats are `test_thread_count_never_changes_bytes`.
    rng, (_, c, h, w), (kh, kw, stride, padding) = case
    fit = samples_per_block((1 << 30, c, h, w), kh, kw, stride, padding)
    x = rng.standard_normal((fit + 1, c, h, w))
    k = rng.standard_normal((2, c, kh, kw))
    want, got = serial_and_threaded(monkeypatch, 2,
                                    lambda: all_directions(x, k, stride, padding), 1)
    assert got == [want]


# (x shape, output channels, kernel side, stride, padding), several blocks each.
THREADED = {
    "pad0": ((24, 8, 20, 20), 8, 3, 1, 0),             # 5 blocks of 5 and 4
    "pad0-one-sample": ((8, 16, 32, 32), 8, 3, 1, 0),  # 8 one-sample blocks
    "stride2": ((20, 16, 21, 21), 8, 3, 2, 1),         # 3 blocks
    "kw5": ((12, 8, 16, 16), 6, 5, 1, 2),              # 6 blocks of 2
    "kw5-pad0": ((16, 16, 14, 14), 4, 5, 1, 0),        # 8 blocks of 2
}


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("geom", THREADED.values(), ids=THREADED.keys())
def test_thread_count_never_changes_bytes(geom, threads, monkeypatch):
    # At padding 0 a block's last tap runs spill into the next sample's real
    # pixels: dx adds only the valid columns, so runs that meet there never
    # write the same element, and repeats under a short switch interval
    # keep the serial bytes.
    shape, o, kk, stride, padding = geom
    assert samples_per_block(shape, kk, kk, stride, padding) < shape[0]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, shape[1], kk, kk))
    want, got = serial_and_threaded(monkeypatch, threads,
                                    lambda: all_directions(x, k, stride, padding), 3)
    assert got == [want] * 3


def conv_of_inf(direction):
    """A conv over 13 blocks whose last sample, in a helper's run of two,
    is inf: every direction's GEMM there meets inf - inf."""
    shape, o, kk, stride, padding = MULTI_BLOCK["uneven-blocks"]
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    x[-1] = np.inf
    k = rng.standard_normal((o, shape[1], kk, kk))
    if direction == "eval":
        return lambda: kernels.im2col(x, k, stride, padding)
    if direction == "train-forward":
        return lambda: kernels.conv2d_forward(x, k, np.zeros(o), stride, padding)
    with np.errstate(all="ignore"):
        y, cache = kernels.conv2d_forward(x, k, np.zeros(o), stride, padding)
    dy = rng.standard_normal(y.shape)
    return lambda: kernels.conv2d_backward(dy, k, cache)


def bn_of_inf(direction):
    """A BN train pass over 16 samples (over `_BLOCK_BYTES`) whose last
    sample is inf, built so that only the helper's run, samples 8 to 15,
    meets inf - inf: in the forward, x - mean there; in the backward, the
    sums through dy's inf reach every sample, and x̂ has the last sample's
    sign in the caller's run and the other sign in the rest of the helper's."""
    rng = np.random.default_rng(5)
    shape = (16, 8, 40, 40)
    assert 8 * math.prod(shape) > kernels._BLOCK_BYTES
    gamma, beta = np.ones(8), np.zeros(8)
    if direction == "bn-train-forward":
        x = rng.standard_normal(shape)
        x[-1] = np.inf
        return lambda: kernels.batchnorm_train_forward(x, gamma, beta, 1e-5)
    x = 5.0 + np.abs(rng.standard_normal(shape))
    x[8:15] *= -1.0
    cache = kernels.batchnorm_train_forward(x, gamma, beta, 1e-5)[1]
    dy = rng.standard_normal(shape)
    dy[-1] = np.inf
    return lambda: kernels.batchnorm_train_backward(dy, cache)


@pytest.mark.parametrize("direction", ["eval", "train-forward", "train-backward",
                                       "bn-train-forward", "bn-train-backward"])
def test_helpers_run_under_the_callers_error_state(direction, monkeypatch):
    # numpy's error state is per thread: a helper that ran under its own
    # default would warn where the caller ignores, and not raise where the
    # caller raises.
    monkeypatch.setattr(kernels, "_threads", 2)
    conv = (bn_of_inf if direction.startswith("bn-") else conv_of_inf)(direction)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        conv()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with np.errstate(all="ignore"):
            conv()
    assert seen == []


def test_one_block_conv_starts_no_thread():
    # A process whose convs are all one block and whose BN tensors are all
    # within `_BLOCK_BYTES` (or that runs neither, like the perturb sweep)
    # starts no helper thread and imports no executor.
    code = "\n".join([
        "import sys, threading",
        "import numpy as np",
        "from attnfold import kernels",
        "before = threading.active_count()",
        "x, k = np.ones((4, 3, 8, 8)), np.ones((5, 3, 3, 3))",
        "y, cache = kernels.conv2d_forward(x, k, np.zeros(5), 1, 1)",
        "kernels.conv2d_backward(y, k, cache)",
        "kernels.conv2d_forward(x, k, np.zeros(5), 2, 0, train=False)",
        "x = np.arange(8 * 16 * 32 * 32, dtype=float).reshape(8, 16, 32, 32)",
        "assert x.nbytes == kernels._BLOCK_BYTES",
        "y, cache, _, _ = kernels.batchnorm_train_forward(x, np.ones(16), np.zeros(16), 1e-5)",
        "kernels.batchnorm_train_backward(y, cache)",
        "assert threading.active_count() == before, threading.enumerate()",
        "assert not kernels._helpers",
        "assert 'concurrent.futures' not in sys.modules",
    ])
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def oracle_bn_forward(x, gamma, beta, eps):
    """The unfused BN train forward that `kernels.batchnorm_train_forward`
    replaced, kept as its oracle: (y, x̂, inv_std, mean, var)."""
    axes = kernels.bn_axes(x)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - kernels._bn_expand(mean, x.ndim)) * kernels._bn_expand(inv_std, x.ndim)
    y = xhat * kernels._bn_expand(gamma, x.ndim) + kernels._bn_expand(beta, x.ndim)
    return y, xhat, inv_std, mean, var


def oracle_bn_backward(dy, xhat, inv_std, gamma):
    """The unfused BN train backward, kept as its oracle: (dx, dgamma, dbeta)."""
    axes, e = kernels.bn_axes(dy), dy.ndim
    m = dy.size // dy.shape[1]
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * kernels._bn_expand(gamma, e)
    dx = (kernels._bn_expand(inv_std, e) / m) * (
        m * dxhat
        - kernels._bn_expand(dxhat.sum(axis=axes), e)
        - xhat * kernels._bn_expand((dxhat * xhat).sum(axis=axes), e)
    )
    return dx, dgamma, dbeta


def bn_train(x, gamma, beta, dy):
    """BN train forward then backward: (y, x̂, inv_std, mean, var, dx,
    dgamma, dbeta), as one byte string."""
    y, cache, mean, var = kernels.batchnorm_train_forward(x, gamma, beta, 1e-5)
    grads = kernels.batchnorm_train_backward(dy, cache)
    return b"".join(a.tobytes() for a in (y, cache["xhat"], cache["inv_std"], mean, var,
                                         *grads))


BN_SHAPES = {
    "5x3x7x9": (5, 3, 7, 9),           # odd H*W
    "4x2x3x3": (4, 2, 3, 3),
    "N1": (1, 4, 5, 5),
    "N1-over-budget": (1, 16, 96, 96),   # one sample: one run
    "over-budget": (32, 16, 32, 32),     # the train workload's BN
    "over-budget-odd": (9, 16, 33, 31),
    "2d": (32, 10),
    "2d-small": (7, 3),
    "2d-over-budget": (5000, 30),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("shape", BN_SHAPES.values(), ids=BN_SHAPES.keys())
def test_batchnorm_train_bytes_equal_the_unfused_oracle(shape, threads, monkeypatch):
    # Each element takes the oracle's operations in its order and every
    # reduction is one full-array call on the caller, so every output keeps
    # the oracle's bytes at every thread count.
    rng = np.random.default_rng(math.prod(shape))
    x = rng.standard_normal(shape) * 3.0 + 1.0
    gamma, beta = rng.standard_normal((2, shape[1]))
    dy = rng.standard_normal(shape)
    fwd = oracle_bn_forward(x, gamma, beta, 1e-5)
    want = b"".join(a.tobytes() for a in (*fwd, *oracle_bn_backward(dy, *fwd[1:3], gamma)))
    # `serial_and_threaded` checks that the helpers exist; a tensor within
    # the budget runs inline and starts none, so start them here.
    monkeypatch.setattr(kernels, "_threads", threads)
    kernels._split(threads, lambda lo, hi: None)
    serial, got = serial_and_threaded(monkeypatch, threads,
                                      lambda: bn_train(x, gamma, beta, dy), 2)
    assert serial == want
    assert got == [want] * 2


def test_batchnorm_train_holds_its_outputs_and_one_scratch():
    # Fails at the parent, whose unfused expressions held three fresh tensors
    # at once in each direction (12 MiB here). The forward holds x̂ and y,
    # the backward dx and one scratch, whatever the thread count.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((32, 16, 32, 32))
    gamma, beta = rng.standard_normal((2, 16))
    kernels.batchnorm_train_backward(x, kernels.batchnorm_train_forward(x, gamma, beta, 1e-5)[1])
    slack = 256 * 1024
    tracemalloc.start()
    try:
        y, cache, _, _ = kernels.batchnorm_train_forward(x, gamma, beta, 1e-5)
        forward_peak = tracemalloc.get_traced_memory()[1]
        del y
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        kernels.batchnorm_train_backward(x, cache)
        backward_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert forward_peak <= 2 * x.nbytes + slack
    assert backward_peak <= 2 * x.nbytes + slack


class WriteLog:
    """Stands in for numpy inside `kernels`, and wraps `kernels._split`, to
    record where each run writes: the byte bounds of every strided view made
    over a buffer (col2im's `acc`; the tap copy's read view is over the
    workspace) and of every ufunc's `out=` (the BN passes), each with the
    buffer it lies in and the run (split call, count, lo, hi) that made it."""

    def __init__(self, monkeypatch):
        self.writes = []
        self.current = threading.local()
        calls = itertools.count()
        split = kernels._split

        def logged_split(count, run):
            call = next(calls)

            def logged(lo, hi):
                self.current.run = (call, count, lo, hi)
                try:
                    return run(lo, hi)
                finally:
                    self.current.run = None
            return split(count, logged)
        monkeypatch.setattr(kernels, "_split", logged_split)
        monkeypatch.setattr(kernels, "np", self)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc):
            return attr

        def call(*args, **kw):
            if kw.get("out") is not None:
                self.note(kw["out"], kw["out"] if kw["out"].base is None else kw["out"].base)
            return attr(*args, **kw)
        return call

    def ndarray(self, *args, buffer=None, **kw):
        view = np.ndarray(*args, buffer=buffer, **kw)
        if buffer is not None:
            self.note(view, buffer)
        return view

    def note(self, view, buffer):
        run = getattr(self.current, "run", None)
        self.writes.append((run, buffer, np.lib.array_utils.byte_bounds(view)))

    def buffers(self):
        """Every buffer written, once each, in order."""
        seen = []
        for _, buffer, _ in self.writes:
            if not any(buffer is b for b in seen):
                seen.append(buffer)
        return seen


def assert_runs_write_apart(log, buffer, n, item):
    """Every write into `buffer`, whose n samples are `item` bytes each,
    lies inside the samples of its run, and the runs of each split write
    disjoint byte ranges."""
    start = np.lib.array_utils.byte_bounds(buffer)[0]
    splits = {}
    for run, written, (lo_b, hi_b) in log.writes:
        if written is not buffer:
            continue
        assert run is not None
        call, count, lo, hi = run
        s, e = n * lo // count, n * hi // count
        assert start + s * item <= lo_b and hi_b <= start + e * item, (run, s, e)
        splits.setdefault(call, {}).setdefault((lo, hi), []).append((lo_b, hi_b))
    assert splits
    for runs in splits.values():
        assert len(runs) >= 2
        extents = sorted((min(a for a, _ in w), max(b for _, b in w)) for w in runs.values())
        assert all(end <= begin for (_, end), (begin, _) in zip(extents, extents[1:]))


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("geom", THREADED.values(), ids=THREADED.keys())
def test_col2im_runs_add_inside_their_own_samples(geom, threads, monkeypatch):
    # The byte tests cannot see a race whose colliding adds are exact zeros:
    # col2im's former full-width tap adds wrote kw - 1 spill columns past a
    # block's last sample, into the next run's first sample (or the tail),
    # and kept the serial bytes. Here each block's `acc` view must stay
    # inside its run's samples of the padded dx.
    shape, o, kk, stride, padding = geom
    n, c, h, w = shape
    rng = np.random.default_rng(o)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((o, c, kk, kk))
    monkeypatch.setattr(kernels, "_threads", threads)
    y, cache = kernels.conv2d_forward(x, k, np.zeros(o), stride, padding)
    log = WriteLog(monkeypatch)
    dx = kernels.conv2d_backward(y, k, cache)[0]
    img = dx if dx.base is None else dx.base
    item = c * (h + 2 * padding) * (w + 2 * padding) * 8
    assert_runs_write_apart(log, img, n, item)


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("shape", [(9, 16, 33, 31), (5000, 30)], ids=["4d", "2d"])
def test_batchnorm_passes_write_inside_their_own_samples(shape, threads, monkeypatch):
    # Every BN train pass writes only its run's samples of x̂ and y (forward)
    # or of dx and its one scratch (backward).
    rng = np.random.default_rng(6)
    x = rng.standard_normal(shape)
    gamma, beta = rng.standard_normal((2, shape[1]))
    monkeypatch.setattr(kernels, "_threads", threads)
    log = WriteLog(monkeypatch)
    y, cache, _, _ = kernels.batchnorm_train_forward(x, gamma, beta, 1e-5)
    written = log.buffers()
    assert {id(b) for b in written} == {id(cache["xhat"]), id(y)}
    for buffer in written:
        assert_runs_write_apart(log, buffer, shape[0], x[0].nbytes)
    log.writes.clear()
    dx = kernels.batchnorm_train_backward(x, cache)[0]
    written = log.buffers()
    assert len(written) == 2 and id(dx) in {id(b) for b in written}
    for buffer in written:
        assert_runs_write_apart(log, buffer, shape[0], x[0].nbytes)


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


@pytest.mark.parametrize("noise", [None, (1.3, -0.2)])
def test_batchnorm_eval_into_its_input_keeps_the_bits(noise):
    # Fails at the parent, which had no `out`.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4, 6, 5))
    mean, gamma, beta = rng.standard_normal((3, 4))
    var = rng.random(4) + 0.1
    want = kernels.batchnorm_eval_forward(x, mean, var, gamma, beta, 1e-5, noise=noise)
    y = kernels.batchnorm_eval_forward(x, mean, var, gamma, beta, 1e-5, noise=noise, out=x)
    assert y is x and x.tobytes() == want.tobytes()


@pytest.mark.parametrize("v_shape", [(4,), (3, 4)], ids=["shared", "per-sample"])
@pytest.mark.parametrize("x_shape", [(3, 4), (3, 4, 6, 5)], ids=["2d", "4d"])
def test_relu_and_channel_scale_into_their_input_keep_the_bits(x_shape, v_shape):
    # Fails at the parent, which had no `out`.
    rng = np.random.default_rng(9)
    x = rng.standard_normal(x_shape)
    v = rng.random(v_shape)
    want = kernels.relu(kernels.channel_scale(x, v))
    assert kernels.channel_scale(x, v, out=x) is x
    assert kernels.relu(x, out=x) is x
    assert x.tobytes() == want.tobytes()


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
