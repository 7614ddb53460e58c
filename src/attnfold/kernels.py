"""Raw ndarray kernels: forward rules plus the backward rules autodiff needs.

Everything here works on plain float64 arrays and trusts its caller for
validation; the public wrappers in `tensor` add the contract checks.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows; clamp to the nearest floats
    # strictly inside (0,1), which the exact function never leaves.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, _SIG_LO, _SIG_HI)


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


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """[N,C,H,W] -> [N*OH*OW, C*kh*kw] patch matrix, row-major.

    Row (n, oh, ow) holds the window under output pixel (oh, ow) of sample n,
    ordered (c, i, j) like `k.reshape(o, -1)`. This layout and the three
    GEMMs on it (`cols @ k.T` forward, `dy.T @ cols` and `dy @ k` backward)
    are the conv contract: a faster fill or drain must keep every patch
    value, GEMM operand and addition order, so that conv outputs and
    gradients stay bit-identical (the finite-difference gradient check is
    sensitive to one ulp of the loss). The matrix is one copy of a strided
    window view of the padded input; the copy is fresh and writable even
    where the view alone would already be contiguous.
    """
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    windows = as_strided(x, shape=(n, oh, ow, c, kh, kw),
                         strides=(sn, sh * stride, sw * stride, sc, sh, sw), writeable=False)
    return windows.copy().reshape(n * oh * ow, c * kh * kw)


def col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
           stride: int, padding: int) -> np.ndarray:
    """Adjoint of im2col: scatter-add patches back to [N,C,H,W].

    Each sample's rows are transposed once into a reused tap-major buffer,
    then the taps are added in (i, j) order, so every pixel sums its
    contributions in the same order as a tap-by-tap scatter over the batch.
    """
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kh, kw)
    taps = np.empty((c, kh, kw, oh, ow), dtype=np.float64)
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    for s in range(n):
        taps[...] = cols[s].transpose(2, 3, 4, 0, 1)
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


def _input_grad(dy_rows: np.ndarray, k: np.ndarray, x_shape: tuple[int, ...],
                stride: int, padding: int) -> np.ndarray:
    o, _, kh, kw = k.shape
    return col2im(dy_rows @ k.reshape(o, -1), x_shape, kh, kw, stride, padding)


def conv2d_forward(x: np.ndarray, k: np.ndarray, b: np.ndarray,
                   stride: int, padding: int) -> tuple[np.ndarray, dict]:
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    y = cols @ k.reshape(o, -1).T + b
    y = y.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
    cache = {"cols": cols, "x_shape": x.shape, "k_shape": k.shape,
             "stride": stride, "padding": padding}
    return np.ascontiguousarray(y), cache


def conv2d_backward_input(dy: np.ndarray, k: np.ndarray, x_shape: tuple[int, ...],
                          stride: int, padding: int) -> np.ndarray:
    """dL/dx of a conv with kernels k [O,C,kh,kw] given dL/dy [N,O,OH,OW]."""
    return _input_grad(_output_rows(dy), k, x_shape, stride, padding)


def conv2d_backward(dy: np.ndarray, k: np.ndarray, cache: dict
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dy_rows = _output_rows(dy)
    db = dy_rows.sum(axis=0)
    dk = (dy_rows.T @ cache["cols"]).reshape(cache["k_shape"])
    dx = _input_grad(dy_rows, k, cache["x_shape"], cache["stride"], cache["padding"])
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
    xhat = (x - _bn_expand(mean, x.ndim)) / _bn_expand(np.sqrt(var + eps), x.ndim)
    if noise is not None:
        na, nb = noise
        xhat = xhat * na + nb
    return xhat * _bn_expand(gamma, x.ndim) + _bn_expand(beta, x.ndim)


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
