"""Dense float64 tensors and the forward numeric kernels built on them.

All arithmetic is binary64. Convolution is cross-correlation (no kernel
flip). Operations are pure: tensors are immutable values once constructed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvariantError, ShapeError


class Tensor:
    """Immutable dense N-dimensional float64 array, row-major.

    Construction rejects NaN/Inf. `data` is a read-only view of the backing
    numpy array; the array passed in keeps its own writeable flag. An array
    that views an immutable `bytes` object, as every tensor returned by
    `checkpoint.load_checkpoint` does, cannot be written through at all: it
    is its own `data`, and its finite check runs once (`immutable_memo`).
    """

    __slots__ = ("data",)

    def __init__(self, data, *, _checked: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not _checked and not all_finite(arr):
            raise InvariantError("tensor contains non-finite elements")
        if arr.flags.writeable or not in_bytes(arr):
            arr = arr.view()
            arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Wrap an array produced internally from finite inputs (no re-check)."""
        return cls(arr, _checked=True)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")


def as_array(x) -> np.ndarray:
    """Coerce a Tensor or array-like to a validated float64 ndarray."""
    if isinstance(x, Tensor):
        return x.data
    return Tensor(x).data


@dataclass(frozen=True)
class ConvSpec:
    """Stride and symmetric zero-padding of a 2-D convolution."""

    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise InvariantError(f"stride must be positive, got {self.stride}")
        if self.padding < 0:
            raise InvariantError(f"padding must be non-negative, got {self.padding}")

    def output_hw(self, h: int, w: int, kh: int, kw: int) -> tuple[int, int]:
        oh, ow = kernels.conv_output_hw(h, w, kh, kw, self.stride, self.padding)
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"conv output dims ({oh},{ow}) not positive for input ({h},{w}), "
                f"kernel ({kh},{kw}), stride {self.stride}, padding {self.padding}")
        return oh, ow


def conv2d(x, k, bias, spec: ConvSpec = ConvSpec()) -> Tensor:
    """Cross-correlation of x [N,C,H,W] with kernels k [O,C,Kh,Kw] plus bias [O]."""
    xa, ka, ba = as_array(x), as_array(k), as_array(bias)
    if xa.ndim != 4 or ka.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D x and k, got {xa.shape} and {ka.shape}")
    if xa.shape[1] != ka.shape[1]:
        raise ShapeError(f"channel mismatch: x axis 1 is {xa.shape[1]}, k axis 1 is {ka.shape[1]}")
    if ba.shape != (ka.shape[0],):
        raise ShapeError(f"bias shape {ba.shape} does not match {ka.shape[0]} output channels")
    spec.output_hw(xa.shape[2], xa.shape[3], ka.shape[2], ka.shape[3])
    y, _ = kernels.conv2d_forward(xa, ka, ba, spec.stride, spec.padding, train=False)
    return Tensor._wrap(y)


def global_avg_pool(x) -> Tensor:
    """Per-channel mean over spatial positions: [N,C,H,W] -> [N,C]."""
    xa = as_array(x)
    if xa.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {xa.shape}")
    return Tensor._wrap(kernels.gap_forward(xa))


def batchnorm_infer(x, mu, var, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-channel (x-mu)/sqrt(var+eps)*gamma + beta with running statistics."""
    xa = as_array(x)
    mua, vara, ga, ba = (as_array(t) for t in (mu, var, gamma, beta))
    c = xa.shape[1]
    for name, t in (("mu", mua), ("var", vara), ("gamma", ga), ("beta", ba)):
        if t.shape != (c,):
            raise ShapeError(f"{name} shape {t.shape} does not match {c} channels")
    if eps <= 0:
        raise InvariantError(f"eps must be positive, got {eps}")
    if (vara < 0).any():
        raise InvariantError("running variance has negative elements")
    return Tensor._wrap(kernels.batchnorm_eval_forward(xa, mua, vara, ga, ba, eps))


def channel_mul(x, v) -> Tensor:
    """Scale channel c of x by v_c across batch and spatial dims."""
    xa, va = as_array(x), as_array(v)
    if xa.ndim not in (2, 4):
        raise ShapeError(f"channel_mul expects 2-D or 4-D input, got {xa.shape}")
    if va.shape != (xa.shape[1],):
        raise ShapeError(f"vector shape {va.shape} does not match {xa.shape[1]} channels")
    return Tensor._wrap(kernels.channel_scale(xa, va))


def sigmoid(x) -> Tensor:
    return Tensor._wrap(kernels.sigmoid(as_array(x)))


def relu(x) -> Tensor:
    return Tensor._wrap(kernels.relu(as_array(x)))


def linear(x, w, b) -> Tensor:
    """Affine map x W^T + b: [N,D] x [M,D] -> [N,M]."""
    xa, wa, ba = as_array(x), as_array(w), as_array(b)
    if xa.ndim != 2 or wa.ndim != 2:
        raise ShapeError(f"linear expects 2-D x and W, got {xa.shape} and {wa.shape}")
    if xa.shape[1] != wa.shape[1]:
        raise ShapeError(f"inner dim mismatch: x axis 1 is {xa.shape[1]}, W axis 1 is {wa.shape[1]}")
    if ba.shape != (wa.shape[0],):
        raise ShapeError(f"bias shape {ba.shape} does not match {wa.shape[0]} outputs")
    return Tensor._wrap(kernels.linear_forward(xa, wa, ba))


class MatrixOperator:
    """Explicit matrix as a linear operator."""

    def __init__(self, w):
        self.w = as_array(w)
        if self.w.ndim != 2:
            raise ShapeError(f"matrix operator expects 2-D array, got {self.w.shape}")

    @property
    def input_size(self) -> int:
        return self.w.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.w @ v

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.w.T @ v


class ConvOperator:
    """A convolution as an implicit linear map at a fixed input shape.

    The bias is excluded: the operator is the linear part only.
    """

    def __init__(self, k, spec: ConvSpec, input_hw: tuple[int, int]):
        self.k = as_array(k)
        self.spec = spec
        self.h, self.w = input_hw
        self.oh, self.ow = spec.output_hw(self.h, self.w, self.k.shape[2], self.k.shape[3])

    @property
    def input_size(self) -> int:
        return self.k.shape[1] * self.h * self.w

    def apply(self, v: np.ndarray) -> np.ndarray:
        x = v.reshape(1, self.k.shape[1], self.h, self.w)
        y, _ = kernels.conv2d_forward(x, self.k, np.zeros(self.k.shape[0]),
                                      self.spec.stride, self.spec.padding, train=False)
        return y.reshape(-1)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        dy = v.reshape(1, self.k.shape[0], self.oh, self.ow)
        dx = kernels.conv2d_backward_input(dy, self.k, (1, self.k.shape[1], self.h, self.w),
                                           self.spec.stride, self.spec.padding)
        return dx.reshape(-1)


# Facts about arrays held in immutable `bytes`, by identity (`immutable_memo`):
# key -> (weak references to the arrays, fact). Oldest first.
_IMMUTABLE_KEYS_MAX = 256
_IMMUTABLE_KEYS: dict[tuple, tuple[tuple[weakref.ref, ...], object]] = {}


def in_bytes(a: np.ndarray) -> bool:
    """Whether a's memory belongs to an immutable `bytes` object, so that
    nothing can write to it (numpy refuses to make such an array writable)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return type(a.base) is bytes


def immutable_memo(what, arrays, compute):
    """`compute()`, a fact named `what` about `arrays`, computed once for as
    long as they live when every one is held in immutable `bytes`
    (`in_bytes`), and afresh on every call otherwise.

    The key is `what` plus each array's id, shape, strides and dtype, all an
    array object can change about itself (its data address is fixed). The
    table holds the arrays by weak reference only, so it keeps no payload
    alive, an entry goes with its arrays, and a recycled id misses. It holds
    at most `_IMMUTABLE_KEYS_MAX` entries, dropping the oldest first.
    """
    if not all(map(in_bytes, arrays)):
        return compute()
    key = (what, *[(id(a), a.shape, a.strides, a.dtype) for a in arrays])
    entry = _IMMUTABLE_KEYS.get(key)
    if entry is not None and all(ref() is a for ref, a in zip(entry[0], arrays)):
        return entry[1]
    fact = compute()

    def drop(ref):
        entry = _IMMUTABLE_KEYS.get(key)
        if entry is not None and any(r is ref for r in entry[0]):
            _IMMUTABLE_KEYS.pop(key, None)
    _IMMUTABLE_KEYS.pop(key, None)
    while len(_IMMUTABLE_KEYS) >= _IMMUTABLE_KEYS_MAX:
        _IMMUTABLE_KEYS.pop(next(iter(_IMMUTABLE_KEYS)), None)
    _IMMUTABLE_KEYS[key] = (tuple(weakref.ref(a, drop) for a in arrays), fact)
    return fact


def all_finite(a: np.ndarray) -> bool:
    """Whether a has no NaN or Inf; checked once for immutable arrays."""
    return immutable_memo("finite", (a,), lambda: bool(np.isfinite(a).all()))


def spectral_norm(op, iters: int = 100, tol: float = 1e-8, seed: int = 0) -> float:
    """Largest singular value ||A||_2 of a linear operator.

    For an explicit `MatrixOperator` the norm is exact up to rounding: one
    symmetric eigen-solve of the smaller Gram matrix (W W^T or W^T W). For an
    implicit operator such as `ConvOperator`, which has no dense matrix,
    power iteration v <- A^T A v runs from a seeded start vector and stops
    early when successive estimates differ by less than `tol`; `iters`, `tol`
    and `seed` apply to that path only. Its estimate approaches the norm from
    below, its error shrinking by (s2/s1)^2 per step, so a near-tied leading
    pair of singular values slows it. Returns 0 for the zero operator.

    A matrix held in immutable `bytes` (every tensor `load_checkpoint`
    returns) cannot change, so its norm is solved once and found again by
    identity (`immutable_memo`); every other matrix is solved on every call,
    so one changed in place is solved afresh. Implicit operators are never
    memoised.
    """
    if iters < 1:
        raise InvariantError(f"iters must be >= 1, got {iters}")
    if isinstance(op, MatrixOperator):
        w = op.w

        def solve():
            gram = w @ w.T if w.shape[0] < w.shape[1] else w.T @ w
            return float(np.sqrt(np.linalg.eigvalsh(gram).max(initial=0.0)))
        return immutable_memo("norm", (w,), solve)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.input_size)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        av = op.apply(v)
        nav = np.linalg.norm(av)
        if nav == 0.0:
            return 0.0
        new_est = nav  # ||A v|| with ||v|| == 1
        w = op.apply_transpose(av)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return float(new_est)
        v = w / nw
        if abs(new_est - est) < tol:
            return float(new_est)
        est = new_est
    return float(est)
