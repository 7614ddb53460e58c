"""Raw ndarray kernels: forward rules plus the backward rules autodiff needs.

Everything here works on plain float64 arrays and trusts its caller for
validation; the public wrappers in `tensor` add the contract checks.
"""

from __future__ import annotations

import mmap
import os
import threading

import numpy as np


_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows; clamp to the nearest floats
    # strictly inside (0,1), which the exact function never leaves.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    np.maximum(out, _SIG_LO, out=out)
    np.minimum(out, _SIG_HI, out=out)
    return out


def sigmoid_grad(y: np.ndarray) -> np.ndarray:
    """Derivative of sigmoid expressed through its output y = sigmoid(x)."""
    return y * (1.0 - y)


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), into `out` when given (which may be x itself)."""
    return np.maximum(x, 0.0, out=out)


def relu_grad(x: np.ndarray) -> np.ndarray:
    # Subgradient 0 at exactly 0.
    return (x > 0).astype(np.float64)


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


# Convolution copies and multiplies whole samples, at most this many bytes of
# tap-major matrix at a time (see `im2col`).
_BLOCK_BYTES = 1 << 20

# Per-thread buffers of the conv blocks, reused from call to call.
_workspace = threading.local()

# A conv's blocks, and the samples of a BN train pass over `_BLOCK_BYTES`,
# run on every CPU this process may use (see `_split`).
_threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# Inboxes of the helper threads, started on first need; a forked child has none.
_helpers: list = []
_helpers_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers.clear)


def _reused(name: str, size: int) -> np.ndarray:
    """`size` float64 elements of this thread's buffer `name`, whose contents
    are whatever the last call on this thread left there.

    Each buffer is one `_BLOCK_BYTES` anonymous mapping of its own, made on
    first use, not malloc memory: a long-lived buffer inside the malloc heap
    would keep the heap below it from ever being trimmed, so the process
    would hold its peak heap instead of just these pages. A request above
    `_BLOCK_BYTES` gets a fresh array, which is not kept.
    """
    if size * 8 > _BLOCK_BYTES:
        return np.empty(size, dtype=np.float64)
    buf = getattr(_workspace, name, None)
    if buf is None:
        buf = np.frombuffer(mmap.mmap(-1, _BLOCK_BYTES), dtype=np.float64)
        setattr(_workspace, name, buf)
    return buf[:size]


def _helper(inbox) -> None:
    """A helper thread's loop: each task from `_split` runs, and its result
    or error goes back to the caller."""
    while True:
        run, lo, hi, err, done = inbox.get()
        try:
            with np.errstate(**err):
                result = (lo, run(lo, hi), None)
        except BaseException as exc:
            result = (lo, None, exc)
        done.put(result)
        del run, done, result   # hold none of the caller's arrays until the next task


def _split(count: int, run) -> list:
    """[run(lo, hi) for each run], over `count` items (a conv's blocks, or
    the samples of a BN train pass) cut into contiguous runs [lo, hi), one
    per CPU: the caller runs the first, and helper threads, one per extra
    CPU, the rest, under the caller's numpy error state. One item, or one
    CPU, runs inline and starts no thread. Returns once every run is done;
    the first error, in run order, is raised.
    """
    runs = min(count, _threads)
    if runs <= 1:
        return [run(0, count)]
    import queue   # not at import: a process that never splits never needs it

    with _helpers_lock:
        while len(_helpers) < runs - 1:
            _helpers.append(queue.SimpleQueue())
            threading.Thread(target=_helper, args=(_helpers[-1],), daemon=True).start()
    bounds = [count * r // runs for r in range(runs + 1)]
    done = queue.SimpleQueue()
    err = {**np.geterr(), "call": np.geterrcall()}
    for inbox, lo, hi in zip(_helpers, bounds[1:-1], bounds[2:]):
        inbox.put((run, lo, hi, err, done))
    got = {}
    try:
        got[0] = (run(0, bounds[1]), None)
    finally:
        # Helpers write into the caller's arrays: wait for every one, even
        # when the caller's own run raised.
        for _ in range(runs - 1):
            lo, value, exc = done.get()
            got[lo] = (value, exc)
    for lo in bounds[:-1]:
        if got[lo][1] is not None:
            raise got[lo][1]
    return [got[lo][0] for lo in bounds[:-1]]


def _tap_blocks(x: np.ndarray, kh: int, kw: int, stride: int, padding: int, body) -> list:
    """`body(blocks, m, wr)` over the tap-major layout of the conv input x
    [N,C,H,W] (see `im2col`), one contiguous run of its blocks per CPU
    (`_split`); the results, in run order.

    `blocks` yields (s, e, t, strides) for each block [s, e) of the run: t
    is T [C, kh, kw, e - s, OH, wr], the runs of x[s:e] in the running
    thread's workspace, and `strides` the byte strides that view a padded
    [.., C, Hp, Wp] buffer, from the block's first sample on, in T's shape.
    m is the most samples a block holds.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    rows = c * kh * kw
    if rows == 0:   # no patch rows, no blocks
        return []
    # Stride 1 copies runs over the full padded width, whose last kw - 1
    # columns read on into the next row, sample or stale block; larger
    # strides read only the OW valid ones.
    wr = wp if stride == 1 else ow
    fit = max(1, _BLOCK_BYTES // (rows * oh * wr * 8))
    count = max(1, -(-n // fit))
    m = -(-n // count)
    size = c * hp * wp
    strides = tuple(8 * v for v in (hp * wp, wp, 1, size, stride * wp, stride))

    def blocks(lo, hi):
        flat = _reused("flat", m * size + kw - 1)
        flat.fill(0.0)   # the border stays zero from block to block
        xp = flat[:m * size].reshape(m, c, hp, wp)
        taps = _reused("taps", rows * m * oh * wr)
        for b in range(lo, hi):
            s, e = n * b // count, n * (b + 1) // count
            t = taps[:rows * (e - s) * oh * wr].reshape(c, kh, kw, e - s, oh, wr)
            xp[:e - s, :, padding:padding + h, padding:padding + w] = x[s:e]
            view = np.ndarray(t.shape, buffer=flat, strides=strides)   # bounds-checked
            np.copyto(t, view)
            yield s, e, t, strides

    return _split(count, lambda lo, hi: body(blocks(lo, hi), m, wr))


def im2col(x: np.ndarray, k: np.ndarray, stride: int, padding: int,
           train: bool = False) -> np.ndarray:
    """The bias-free conv output [N,O,OH,OW] of x [N,C,H,W] and kernels k
    [O,C,kh,kw], from a tap-major layout that never builds the
    [N*OH*OW, C*kh*kw] patch matrix.

    The layout, shared by every conv direction: the batch is cut into as few
    near-equal blocks of whole samples as keep each block's T within
    `_BLOCK_BYTES`, one sample a block when a sample alone exceeds it. Each
    block is padded into a buffer and copied tap-major, by one `np.copyto`
    from a strided view, into a matrix T[(c, i, j), (sample, oh, w')] whose
    rows are runs of the padded input: at stride 1 one contiguous run per tap
    and sample over the full padded width (the buffer ends in kw - 1 zeros so
    the last run stays in bounds), else the OW strided elements of each
    output row. The padded buffer, T and the block's GEMM operand or product
    are this thread's workspace (`_reused`): one `_BLOCK_BYTES` buffer each,
    kept from call to call, or fresh, once per call, when a block needs more.
    The padded buffer is zeroed on every call, since it may hold another
    geometry's block. Only y is fresh. Per block, y is:
    - eval: the valid columns of `k.reshape(O, -1) @ T`;
    - train: `rows @ k.reshape(O, -1).T`, where `rows` are the block's patch
      rows, T's valid columns copied out transposed;
    and `col2im` takes dk and dx from the same blocks.

    Threads. The blocks are cut into contiguous runs, one per CPU in the
    process's affinity mask: the calling thread runs the first, and helper
    threads, started on first need and one per extra CPU, run the others
    with their own workspace. A conv of one block runs inline. Helpers call
    nothing but numpy and this module's untraced block loop, and run under
    the caller's numpy error state, so a floating-point error or warning in
    any block reaches the caller as if it ran them all. Each block's
    operations are the same whatever the thread count, and no two threads
    write the same element, so the bytes never depend on it.

    Bit rules. Every form repeats its own bytes exactly. The train y of a
    batch that fits in one block is bit-equal to the one-GEMM form
    `patches @ k.reshape(O, -1).T` (the finite-difference gradient check is
    sensitive to one ulp of the loss). Otherwise y, and dk and dx, run other
    GEMMs, with the operands swapped or over blocks of the batch, so BLAS may
    take other kernels: they equal the one-GEMM forms up to rounding (within
    1e-14 of max |.| against a long-double oracle). Which cases are bit-equal
    depends on the BLAS build and the CPU.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    rows = c * kh * kw
    if rows == 0:   # every product is an empty sum
        return np.zeros((n, o, oh, ow), dtype=np.float64)
    k2 = k.reshape(o, rows)
    y = np.empty((n, o, oh, ow), dtype=np.float64)

    def body(blocks, m, wr):
        prod = _reused("prod", m * oh * (ow * rows if train else o * wr))
        for s, e, t, _ in blocks:
            if train:
                p = prod[:(e - s) * oh * ow * rows].reshape(e - s, oh, ow, c, kh, kw)
                np.copyto(p, t[..., :ow].transpose(3, 4, 5, 0, 1, 2))
                yb = p.reshape(-1, rows) @ k2.T
                y[s:e] = yb.reshape(e - s, oh, ow, o).transpose(0, 3, 1, 2)
            else:
                p = prod[:o * (e - s) * oh * wr].reshape(o, -1)
                np.matmul(k2, t.reshape(rows, -1), out=p)
                y[s:e] = p.reshape(o, e - s, oh, wr)[..., :ow].transpose(1, 0, 2, 3)

    _tap_blocks(x, kh, kw, stride, padding, body)
    return y


def col2im(dy: np.ndarray, k: np.ndarray, x: np.ndarray, stride: int, padding: int,
           need_dx: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """(dL/dx [N,C,H,W], dL/dk [O,C,kh,kw]) of a conv of the input x with
    kernels k, given dL/dy [N,O,OH,OW]: the backward half of `im2col`, over
    its blocks and threads. With `need_dx=False`, dx is None and neither its
    GEMM nor its adds run.

    Per block, dY is dL/dy laid out like T's columns, zero in the kw - 1
    spill columns of each row. Then T @ dYᵀ, with T rebuilt from x, is the
    block's dkᵀ term; the terms are added up in block order after all runs
    are done. G = `k.reshape(O, -1).T @ dY` is written over T, and the
    valid columns of G's taps are added, in (i, j) order, into a padded dx
    through the same strided view that the copy into T reads: the exact
    adjoint of the copy. Each block's adds stay within its own samples, so
    runs on different threads never touch the same element; every pixel
    sums its contributions in the order of a tap-by-tap scatter over the
    batch. With the identity kernel `np.eye(C*kh*kw).reshape(-1, C, kh,
    kw)`, G is dY's patch gradients and dx is their exact tap-order scatter.
    See `im2col` for the bit rules.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    rows = c * kh * kw
    img = np.zeros((n, c, hp, wp), dtype=np.float64) if need_dx else None
    k2t = k.reshape(o, rows).T

    def body(blocks, m, wr):
        prod = _reused("prod", o * m * oh * wr)
        terms = []
        for s, e, t, strides in blocks:
            d = prod[:o * (e - s) * oh * wr].reshape(o, e - s, oh, wr)
            d[..., ow:] = 0.0
            d[..., :ow] = dy[s:e].transpose(1, 0, 2, 3)
            d2, t2 = d.reshape(o, -1), t.reshape(rows, -1)
            terms.append(t2 @ d2.T)
            if need_dx:
                np.matmul(k2t, d2, out=t2)
                g = t[..., :ow]
                acc = np.ndarray(g.shape, buffer=img, offset=s * strides[3], strides=strides)
                for i in range(kh):
                    for j in range(kw):
                        acc[:, i, j] += g[:, i, j]
        return terms

    dkt = np.zeros((rows, o), dtype=np.float64)
    for terms in _tap_blocks(x, kh, kw, stride, padding, body):
        for term in terms:
            dkt += term
    if img is not None and padding > 0:
        img = img[:, :, padding:padding + h, padding:padding + w]
    return img, dkt.T.reshape(k.shape)


def conv2d_forward(x: np.ndarray, k: np.ndarray, b: np.ndarray, stride: int,
                   padding: int, train: bool = True) -> tuple[np.ndarray, dict | None]:
    """y [N,O,OH,OW] of kernels k [O,C,kh,kw] plus bias b [O], and the cache
    for `conv2d_backward`: x itself, not a copy, in train mode, and None in
    eval mode (`train=False`), where no backward pass follows. y is
    `im2col`'s form for the mode plus the bias; see `im2col` for the layout
    and its bit rules.
    """
    y = im2col(x, k, stride, padding, train)
    y += b[:, None, None]
    return y, {"x": x, "stride": stride, "padding": padding} if train else None


def conv2d_backward(dy: np.ndarray, k: np.ndarray, cache: dict, need_dx: bool = True
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(dx, dk, db) of the conv whose `conv2d_forward` left `cache`; dx is
    None with `need_dx=False`, which skips its work (see `col2im`)."""
    # Over the rows (n, oh, ow) in order, as the one-GEMM form summed them:
    # `dy.sum(axis=(0, 2, 3))` would add in another order.
    db = dy.transpose(0, 2, 3, 1).reshape(-1, dy.shape[1]).sum(axis=0)
    dx, dk = col2im(dy, k, cache["x"], cache["stride"], cache["padding"], need_dx)
    return dx, dk, db


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w.T + b


def linear_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return dy @ w, dy.T @ x, dy.sum(axis=0)


def bn_axes(x: np.ndarray) -> tuple[int, ...]:
    # Per-channel statistics over batch (and spatial dims for 4-D inputs).
    return (0,) if x.ndim == 2 else (0, 2, 3)


def _bn_expand(v: np.ndarray, ndim: int) -> np.ndarray:
    return v if ndim == 2 else v[:, None, None]


def _by_samples(a: np.ndarray, run) -> None:
    """run(lo, hi) over the samples of a, spread over the CPUs by `_split`;
    a tensor of at most `_BLOCK_BYTES` runs inline and starts no thread."""
    if a.nbytes <= _BLOCK_BYTES:
        run(0, a.shape[0])
    else:
        _split(a.shape[0], run)


def batchnorm_train_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                            eps: float) -> tuple[np.ndarray, dict, np.ndarray, np.ndarray]:
    """(y, cache, mean, var) of batch-norm x [N,C] or [N,C,H,W] with the
    batch statistics: x̂ = (x - mean) * inv_std, y = x̂ * gamma + beta, var
    biased.

    Threads. Two elementwise passes write x̂ and y, allocated once per call
    in x's layout, through `out=` over contiguous runs of samples
    (`_by_samples`: the caller runs the first, helper threads the rest and
    call nothing but numpy). The first writes x - mean into x̂ and its
    square into y; the second scales x̂ by inv_std and writes y. Every
    reduction is one full-array numpy call on the calling thread: mean =
    `x.mean(axes)`, then var = Σ(y) / m, which is numpy's own
    `x.var(axes)`: the same squares, summed in the same layout.

    Bit rule: each element takes the operations of the unfused expressions
    in their order, and no reduction is split, so the bytes equal those
    expressions' and never depend on the thread count. Reductions split by
    channel (`x[:, c:c+1].sum(axis=(0, 2, 3))`) are not bit-equal to the
    full-array reduction, so the statistics stay whole.
    """
    axes, e = bn_axes(x), x.ndim
    m = x.size // x.shape[1]
    mean = x.mean(axis=axes)
    xhat, y = np.empty_like(x), np.empty_like(x)
    mu = _bn_expand(mean, e)

    def centre(lo, hi):
        np.subtract(x[lo:hi], mu, out=xhat[lo:hi])
        np.square(xhat[lo:hi], out=y[lo:hi])
    _by_samples(x, centre)
    var = np.true_divide(y.sum(axis=axes), m)
    inv_std = 1.0 / np.sqrt(var + eps)
    s, g, b = _bn_expand(inv_std, e), _bn_expand(gamma, e), _bn_expand(beta, e)

    def scale(lo, hi):
        np.multiply(xhat[lo:hi], s, out=xhat[lo:hi])
        np.multiply(xhat[lo:hi], g, out=y[lo:hi])
        np.add(y[lo:hi], b, out=y[lo:hi])
    _by_samples(x, scale)
    cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma, "m": m}
    return y, cache, mean, var


def batchnorm_train_backward(dy: np.ndarray, cache: dict
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dgamma, dbeta) of the batch norm whose forward left `cache`,
    the full gradient through the batch statistics:
    dx = inv_std / m * (m * dx̂ - Σdx̂ - x̂ * Σ(dx̂ * x̂)), dx̂ = dy * gamma.

    Threads. Three elementwise passes, as in the forward, write dx and one
    scratch t, allocated once per call in dy's layout: dy * x̂ into t and
    dx̂ into dx; then dx̂ * x̂ into t; then dx *= m, -= Σdx̂, -= x̂ *
    Σ(dx̂ * x̂) (through t), *= inv_std / m. The sums Σdy * x̂ (dgamma),
    Σdy (dbeta), Σdx̂ and Σdx̂ * x̂ are each one full-array numpy call on
    the calling thread, between the passes. The forward's bit rule holds.
    """
    axes, e = bn_axes(dy), dy.ndim
    xhat, inv_std, gamma, m = cache["xhat"], cache["inv_std"], cache["gamma"], cache["m"]
    dx, t = np.empty_like(dy), np.empty_like(dy)
    g = _bn_expand(gamma, e)

    def spread(lo, hi):
        np.multiply(dy[lo:hi], xhat[lo:hi], out=t[lo:hi])
        np.multiply(dy[lo:hi], g, out=dx[lo:hi])
    _by_samples(dy, spread)
    dgamma = t.sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    s1 = _bn_expand(dx.sum(axis=axes), e)

    def project(lo, hi):
        np.multiply(dx[lo:hi], xhat[lo:hi], out=t[lo:hi])
    _by_samples(dy, project)
    s2, k = _bn_expand(t.sum(axis=axes), e), _bn_expand(inv_std / m, e)

    def combine(lo, hi):
        d = dx[lo:hi]
        np.multiply(d, m, out=d)
        np.subtract(d, s1, out=d)
        np.multiply(xhat[lo:hi], s2, out=t[lo:hi])
        np.subtract(d, t[lo:hi], out=d)
        np.multiply(d, k, out=d)
    _by_samples(dy, combine)
    return dx, dgamma, dbeta


def batchnorm_eval_forward(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
                           gamma: np.ndarray, beta: np.ndarray, eps: float,
                           noise: tuple[float, float] | None = None,
                           out: np.ndarray | None = None) -> np.ndarray:
    """((x - mean) / sqrt(var + eps) [* na + nb]) * gamma + beta per channel,
    with the running statistics; `noise` is (na, nb). Every step writes into
    one array, `out` when given (which may be x itself), else a fresh one;
    either way the bits are the same."""
    y = np.subtract(x, _bn_expand(mean, x.ndim), out=out)
    y /= _bn_expand(np.sqrt(var + eps), x.ndim)
    if noise is not None:
        na, nb = noise
        y *= na
        y += nb
    y *= _bn_expand(gamma, x.ndim)
    y += _bn_expand(beta, x.ndim)
    return y


def gap_forward(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3))


def gap_backward(du: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    n, c, h, w = x_shape
    return np.broadcast_to(du[:, :, None, None] / (h * w), x_shape).copy()


def spatial_std_forward(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Per-channel spatial std (population); defined as 0 when H*W == 1."""
    mean = x.mean(axis=(2, 3), keepdims=True)
    var = ((x - mean) ** 2).mean(axis=(2, 3))
    std = np.sqrt(var)
    return std, {"x": x, "mean": mean, "std": std}


def spatial_std_backward(dstd: np.ndarray, cache: dict) -> np.ndarray:
    x, mean, std = cache["x"], cache["mean"], cache["std"]
    m = x.shape[2] * x.shape[3]
    safe = np.where(std > 0, std, 1.0)
    scale = np.where(std > 0, dstd / (m * safe), 0.0)
    return scale[:, :, None, None] * (x - mean)


def spatial_max_forward(x: np.ndarray) -> tuple[np.ndarray, dict]:
    n, c, h, w = x.shape
    flat = x.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)
    return np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0], {"idx": idx, "shape": x.shape}


def spatial_max_backward(dm: np.ndarray, cache: dict) -> np.ndarray:
    n, c, h, w = cache["shape"]
    dflat = np.zeros((n, c, h * w), dtype=np.float64)
    np.put_along_axis(dflat, cache["idx"][:, :, None], dm[:, :, None], axis=2)
    return dflat.reshape(n, c, h, w)


def maxpool2_forward(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """2x2 max pooling with stride 2; H and W must be even."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=4)
    y = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]
    return y, {"idx": idx, "shape": x.shape}


def maxpool2_backward(dy: np.ndarray, cache: dict) -> np.ndarray:
    n, c, h, w = cache["shape"]
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=np.float64)
    np.put_along_axis(dwin, cache["idx"][..., None], dy[..., None], axis=4)
    return dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def adaptive_avgpool_bins(size: int, grid: int) -> list[tuple[int, int]]:
    return [((i * size) // grid, -((-(i + 1) * size) // grid)) for i in range(grid)]


def adaptive_avgpool_forward(x: np.ndarray, grid: int) -> tuple[np.ndarray, dict]:
    n, c, h, w = x.shape
    rows = adaptive_avgpool_bins(h, grid)
    cols = adaptive_avgpool_bins(w, grid)
    y = np.empty((n, c, grid, grid), dtype=np.float64)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            y[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return y, {"rows": rows, "cols": cols, "shape": x.shape}


def adaptive_avgpool_backward(dy: np.ndarray, cache: dict) -> np.ndarray:
    dx = np.zeros(cache["shape"], dtype=np.float64)
    for i, (r0, r1) in enumerate(cache["rows"]):
        for j, (c0, c1) in enumerate(cache["cols"]):
            area = (r1 - r0) * (c1 - c0)
            dx[:, :, r0:r1, c0:c1] += dy[:, :, i, j][:, :, None, None] / area
    return dx


def circular_conv1d_forward(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Circular 1-D convolution over the last axis, kernel centered: k odd."""
    k = w.shape[0]
    h = k // 2
    z = np.zeros_like(u)
    for j in range(k):
        z += w[j] * np.roll(u, h - j, axis=-1)
    return z


def circular_conv1d_backward(dz: np.ndarray, u: np.ndarray, w: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    k = w.shape[0]
    h = k // 2
    du = np.zeros_like(u)
    dw = np.zeros_like(w)
    for j in range(k):
        du += w[j] * np.roll(dz, j - h, axis=-1)
        dw[j] = (dz * np.roll(u, h - j, axis=-1)).sum()
    return du, dw


def channel_scale(x: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale axis 1 by v; v is [C] (shared) or [N,C] (per sample). Into
    `out` when given (which may be x itself)."""
    if x.ndim == 2:
        return np.multiply(x, v if v.ndim == 2 else v[None, :], out=out)
    return np.multiply(x, v[:, :, None, None] if v.ndim == 2 else v[None, :, None, None],
                       out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
