"""Raw ndarray kernels: forward rules plus the backward rules autodiff needs.

Everything here works on plain float64 arrays and trusts its caller for
validation; the public wrappers in `tensor` add the contract checks.
"""

from __future__ import annotations

import functools

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


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    # Subgradient 0 at exactly 0.
    return (x > 0).astype(np.float64)


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


@functools.lru_cache(maxsize=64)
def _patch_index(c: int, hp: int, wp: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat offsets of every patch element in one padded [C,Hp,Wp] sample.

    Ordered (oh, ow, c, i, j), i.e. the patch matrix's rows then columns.
    Cached per geometry and returned as a read-only view, since every caller
    shares it; its `base` is the writable index `take` needs.
    """
    oh, ow = conv_output_hw(hp, wp, kh, kw, stride, 0)
    tap = (np.arange(c)[:, None, None] * (hp * wp)
           + np.arange(kh)[None, :, None] * wp + np.arange(kw)[None, None, :])
    corner = np.arange(oh)[:, None] * (stride * wp) + np.arange(ow)[None, :] * stride
    idx = np.empty(oh * ow * tap.size, dtype=np.intp)
    np.add(corner.reshape(-1, 1), tap.reshape(1, -1), out=idx.reshape(oh * ow, -1))
    view = idx.view()
    view.flags.writeable = False
    return view


# Eval-mode convolution copies and multiplies whole samples, at most this
# many bytes of tap-major matrix at a time (`im2col`'s `k` form).
_BLOCK_BYTES = 1 << 20


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
           k: np.ndarray | None = None) -> np.ndarray:
    """[N,C,H,W] -> [N*OH*OW, C*kh*kw] patch matrix, row-major; with
    kernels `k` [O,C,kh,kw], the bias-free conv output [N,O,OH,OW] instead.

    Row (n, oh, ow) holds the window under output pixel (oh, ow) of sample n,
    ordered (c, i, j) like `k.reshape(O, -1)`. The conv contract has one form
    per direction:
    - train: the batch is padded into one zero-bordered buffer and `take`n
      through `_patch_index` into the matrix, a fresh, writable array; y is
      one GEMM over it, `cols @ k.reshape(O, -1).T`, and `conv2d_forward`
      caches it for dk = `dy.T @ cols`;
    - eval, the `k` form: the batch is cut into as few near-equal blocks of
      whole samples as keep each block's T within `_BLOCK_BYTES`, one sample
      a block when a sample alone exceeds it. Each block is padded into a
      reused buffer and copied tap-major, by one `np.copyto` from a strided
      view, into a reused matrix T[(c, i, j), (sample, oh, w')] whose rows
      are runs of the padded input: at stride 1 one contiguous run per tap
      and sample over the full padded width (the buffer ends in kw - 1 zeros
      so the last run stays in bounds), else the OW strided elements of each
      output row. y[block] is the valid columns of `k.reshape(O, -1) @ T`, so
      the patch matrix is never built;
    - dx: `col2im` with `k`.

    Bit rules: train y and dk keep every patch value, GEMM operand and
    addition order, so they are bit-identical from run to run and to the
    one-GEMM form (the finite-difference gradient check is sensitive to one
    ulp of the loss). The eval form runs other GEMMs, with the operands
    swapped and over blocks of the batch, so BLAS may take other kernels:
    its y equals the train y up to rounding (within 1e-14 of max |y| against
    a long-double oracle) and repeats its own bytes exactly. Which cases are
    bit-equal to the train y depends on the BLAS build and the CPU.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    if k is None:
        # Padded batch before index: a geometry too large for memory fails in
        # numpy's allocation, not as an overflow in the index.
        xp = np.zeros((n, c, hp, wp), dtype=np.float64)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        # `take` copies a read-only index on every call, so it reads the
        # cached index's writable base. The index is in range by construction;
        # "clip" spares `take` the copy through a temporary it makes for
        # `out=` under "raise".
        idx = _patch_index(c, hp, wp, kh, kw, stride).base
        cols = np.empty((n, idx.size), dtype=np.float64)
        xp.reshape(n, -1).take(idx, axis=1, out=cols, mode="clip")
        return cols.reshape(n * oh * ow, c * kh * kw)
    o = k.shape[0]
    rows = c * kh * kw
    if rows == 0:   # every product is an empty sum
        return np.zeros((n, o, oh, ow), dtype=np.float64)
    # Stride 1 multiplies the full padded width and drops the last kw - 1
    # columns of each row, which read on into the next row, sample or stale
    # block; larger strides read only the OW valid ones.
    wr = wp if stride == 1 else ow
    fit = max(1, _BLOCK_BYTES // (rows * oh * wr * 8))
    blocks = max(1, -(-n // fit))
    m = -(-n // blocks)
    size = c * hp * wp
    flat = np.zeros(m * size + kw - 1, dtype=np.float64)   # the border stays zero
    xp = flat[:m * size].reshape(m, c, hp, wp)
    taps = np.empty(rows * m * oh * wr, dtype=np.float64)
    prod = np.empty(o * m * oh * wr, dtype=np.float64)
    k2 = k.reshape(o, rows)
    y = np.empty((n, o, oh, ow), dtype=np.float64)
    runs = tuple(8 * v for v in (hp * wp, wp, 1, size, stride * wp, stride))
    for b in range(blocks):
        s, e = n * b // blocks, n * (b + 1) // blocks
        xp[:e - s, :, padding:padding + h, padding:padding + w] = x[s:e]
        t = taps[:rows * (e - s) * oh * wr].reshape(c, kh, kw, e - s, oh, wr)
        np.copyto(t, np.ndarray(t.shape, buffer=flat, strides=runs))   # bounds-checked view
        p = prod[:o * (e - s) * oh * wr].reshape(o, -1)
        np.matmul(k2, t.reshape(rows, -1), out=p)
        y[s:e] = p.reshape(o, e - s, oh, wr)[..., :ow].transpose(1, 0, 2, 3)
    return y


def col2im(dy_rows: np.ndarray, k: np.ndarray, x_shape: tuple[int, ...],
           stride: int, padding: int) -> np.ndarray:
    """dL/dx [N,C,H,W] from the dL/dy rows [N*OH*OW, O] and kernels k
    [O,C,kh,kw]: the adjoint of `im2col`, the backward half of the conv
    contract.

    Each sample's patch gradients are formed by one GEMM written straight
    into a reused tap-major buffer, `k.reshape(O, -1).T @ rows.T`, so the
    patch-sized product `dy_rows @ k.reshape(O, -1)` is never built. The
    taps are then added in (i, j) order, so every pixel sums its
    contributions in the same order as a tap-by-tap scatter over the batch.
    The taps equal the product's entries up to rounding only: the GEMM runs
    with its operands swapped, so BLAS may pick another kernel for the same
    O-term dot products (dx stays within a few ulps of max |dx|). With the
    identity kernel `np.eye(C*kh*kw).reshape(-1, C, kh, kw)` the rows are
    patches and the result is their exact tap-order scatter.
    """
    n, c, h, w = x_shape
    o, _, kh, kw = k.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    rows = dy_rows.reshape(n, oh * ow, o)
    k2t = k.reshape(o, -1).T
    taps = np.empty((c, kh, kw, oh, ow), dtype=np.float64)
    tap_rows = taps.reshape(c * kh * kw, oh * ow)
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    for s in range(n):
        np.matmul(k2t, rows[s].T, out=tap_rows)
        for i in range(kh):
            i_max = i + stride * oh
            for j in range(kw):
                j_max = j + stride * ow
                img[s, :, i:i_max:stride, j:j_max:stride] += taps[:, i, j]
    if padding > 0:
        img = img[:, :, padding:padding + h, padding:padding + w]
    return img


def _output_rows(y: np.ndarray) -> np.ndarray:
    """[N,O,OH,OW] -> [N*OH*OW, O], rows in patch-matrix order."""
    return y.transpose(0, 2, 3, 1).reshape(-1, y.shape[1])


def conv2d_forward(x: np.ndarray, k: np.ndarray, b: np.ndarray, stride: int,
                   padding: int, train: bool = True) -> tuple[np.ndarray, dict | None]:
    """y [N,O,OH,OW] of kernels k [O,C,kh,kw] plus bias b [O], and the cache
    for `conv2d_backward`.

    In train mode y is one GEMM over the whole patch matrix, which the cache
    keeps for dk. In eval mode (`train=False`) no backward pass follows, the
    cache is None and y is `im2col`'s tap-major `k` form plus the bias, equal
    to the train y up to rounding; see `im2col` for the contract and its bit
    rules.
    """
    o, _, kh, kw = k.shape
    if not train:
        y = im2col(x, kh, kw, stride, padding, k=k)
        y += b[:, None, None]
        return y, None
    n, _, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    y = cols @ k.reshape(o, -1).T
    y += b
    y = y.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
    cache = {"cols": cols, "x_shape": x.shape, "k_shape": k.shape,
             "stride": stride, "padding": padding}
    return np.ascontiguousarray(y), cache


def conv2d_backward_input(dy: np.ndarray, k: np.ndarray, x_shape: tuple[int, ...],
                          stride: int, padding: int) -> np.ndarray:
    """dL/dx of a conv with kernels k [O,C,kh,kw] given dL/dy [N,O,OH,OW]."""
    return col2im(_output_rows(dy), k, x_shape, stride, padding)


def conv2d_backward(dy: np.ndarray, k: np.ndarray, cache: dict
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dy_rows = _output_rows(dy)
    db = dy_rows.sum(axis=0)
    dk = (dy_rows.T @ cache["cols"]).reshape(cache["k_shape"])
    dx = col2im(dy_rows, k, cache["x_shape"], cache["stride"], cache["padding"])
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


def batchnorm_train_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                            eps: float) -> tuple[np.ndarray, dict, np.ndarray, np.ndarray]:
    axes = bn_axes(x)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)  # biased, used for normalization
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - _bn_expand(mean, x.ndim)) * _bn_expand(inv_std, x.ndim)
    y = xhat * _bn_expand(gamma, x.ndim) + _bn_expand(beta, x.ndim)
    m = x.size // x.shape[1]
    cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma, "m": m}
    return y, cache, mean, var


def batchnorm_train_backward(dy: np.ndarray, cache: dict
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    axes = bn_axes(dy)
    xhat, inv_std, gamma, m = cache["xhat"], cache["inv_std"], cache["gamma"], cache["m"]
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * _bn_expand(gamma, dy.ndim)
    # Full gradient through the batch statistics.
    dx = (_bn_expand(inv_std, dy.ndim) / m) * (
        m * dxhat
        - _bn_expand(dxhat.sum(axis=axes), dy.ndim)
        - xhat * _bn_expand((dxhat * xhat).sum(axis=axes), dy.ndim)
    )
    return dx, dgamma, dbeta


def batchnorm_eval_forward(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
                           gamma: np.ndarray, beta: np.ndarray, eps: float,
                           noise: tuple[float, float] | None = None) -> np.ndarray:
    y = x - _bn_expand(mean, x.ndim)
    y /= _bn_expand(np.sqrt(var + eps), x.ndim)
    if noise is not None:
        na, nb = noise
        y = y * na + nb
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


def channel_scale(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scale axis 1 by v; v is [C] (shared) or [N,C] (per sample)."""
    if x.ndim == 2:
        return x * (v if v.ndim == 2 else v[None, :])
    return x * (v[:, :, None, None] if v.ndim == 2 else v[None, :, None, None])


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
