"""Channel-attention bodies, the standard input-dependent path, and the
constant-input path whose output vector can later be folded away.

Raw `_raw` functions work on ndarrays and return backward caches; the
public wrappers validate and speak `Tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvariantError, ShapeError, require_keys
from .tensor import Tensor, as_array

VARIANTS = ("se", "ie", "srm", "spa", "eca", "cbam", "no_body")

POSITIONS = ("after_conv1", "after_bn1", "after_last_bn", "after_relu")


@dataclass(frozen=True)
class AttentionKind:
    """Attention body variant plus its hyperparameters."""

    variant: str
    reduction: int = 2          # se / cbam hidden width divisor
    levels: tuple[int, ...] = (1, 2)  # spa pyramid grid sizes
    kernel: int = 3             # eca 1-D kernel width

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvariantError(f"unknown attention variant {self.variant!r}")
        if self.variant == "eca" and self.kernel % 2 == 0:
            raise InvariantError(f"eca kernel must be odd, got {self.kernel}")
        if self.variant == "spa" and (not self.levels or any(g < 1 for g in self.levels)):
            raise InvariantError(f"spa levels must be positive, got {self.levels}")

    def validate_channels(self, channels: int) -> None:
        if self.variant in ("se", "cbam") and channels % self.reduction != 0:
            raise InvariantError(
                f"{self.variant} reduction {self.reduction} must divide {channels} channels")
        if self.variant == "eca" and self.kernel // 2 >= channels:
            raise InvariantError(
                f"eca kernel {self.kernel} too wide for {channels} channels")

    @property
    def pyramid_size(self) -> int:
        return sum(g * g for g in self.levels)

    def body_input_dim(self, channels: int, constant_input: bool) -> int:
        v = self.variant
        if v == "srm":
            return 2 * channels
        if v == "spa":
            return self.pyramid_size * channels
        if v == "cbam":
            # On a constant input the avg/max branches coincide; a single
            # shared-MLP branch is used.
            return channels if constant_input else 2 * channels
        return channels

    def param_shapes(self, channels: int) -> dict[str, tuple[int, ...]]:
        c, r = channels, self.reduction
        v = self.variant
        if v in ("se", "cbam"):
            return {"w1": (c // r, c), "w2": (c, c // r)}
        if v == "ie":
            return {"gamma": (c,), "beta": (c,)}
        if v == "srm":
            return {"w_mean": (c,), "w_std": (c,)}
        if v == "spa":
            return {"w1": (c, self.pyramid_size * c), "w2": (c, c)}
        if v == "eca":
            return {"w": (self.kernel,)}
        return {}

    def to_dict(self) -> dict:
        return {"variant": self.variant, "reduction": self.reduction,
                "levels": list(self.levels), "kernel": self.kernel}

    @classmethod
    def from_dict(cls, d: dict) -> "AttentionKind":
        require_keys(d, ("variant", "reduction", "levels", "kernel"), "attention kind")
        return cls(variant=d["variant"], reduction=d["reduction"],
                   levels=tuple(d["levels"]), kernel=d["kernel"])


def init_attention_params(kind: AttentionKind, channels: int,
                          rng: np.random.Generator) -> dict[str, np.ndarray]:
    kind.validate_channels(channels)
    out: dict[str, np.ndarray] = {}
    for role, shape in kind.param_shapes(channels).items():
        if role == "gamma" or role == "w_mean":
            out[role] = np.ones(shape)
        elif role == "beta" or role == "w_std":
            out[role] = np.zeros(shape)
        else:
            fan_in = shape[-1] if len(shape) > 1 else shape[0]
            out[role] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
    return out


@dataclass
class AsrSlot:
    """One constant-input attention instance attached to a graph position."""

    slot_id: str
    kind: AttentionKind
    channels: int
    position: str = "after_last_bn"
    delta_index: int = 0
    psi_mode: str = "learnable"  # learnable | frozen_constant | frozen_gaussian
    psi_init: float = 0.1
    psi_seed: int = 0

    def __post_init__(self):
        if self.position not in POSITIONS:
            raise InvariantError(f"unknown position tag {self.position!r}")
        if self.psi_mode not in ("learnable", "frozen_constant", "frozen_gaussian"):
            raise InvariantError(f"unknown psi mode {self.psi_mode!r}")
        if self.delta_index < 0:
            raise InvariantError("delta_index must be >= 0")
        self.kind.validate_channels(self.channels)

    @property
    def psi_dim(self) -> int:
        return self.kind.body_input_dim(self.channels, constant_input=True)

    @property
    def psi_name(self) -> str:
        return f"{self.slot_id}.psi"

    @property
    def param_names(self) -> dict[str, str]:
        return {role: f"{self.slot_id}.{role}"
                for role in self.kind.param_shapes(self.channels)}

    @property
    def psi_trainable(self) -> bool:
        return self.psi_mode == "learnable"

    def init_psi(self) -> np.ndarray:
        if self.psi_mode == "frozen_gaussian":
            rng = np.random.default_rng(self.psi_seed)
            return rng.normal(0.0, self.psi_init, self.psi_dim)
        return np.full(self.psi_dim, self.psi_init)

    def gather(self, values: dict) -> dict[str, np.ndarray]:
        return {role: values[name] for role, name in self.param_names.items()}

    def to_dict(self) -> dict:
        return {"slot_id": self.slot_id, "kind": self.kind.to_dict(),
                "channels": self.channels, "position": self.position,
                "delta_index": self.delta_index, "psi_mode": self.psi_mode,
                "psi_init": self.psi_init, "psi_seed": self.psi_seed}

    @classmethod
    def from_dict(cls, d: dict) -> "AsrSlot":
        require_keys(d, ("slot_id", "kind", "channels", "position", "delta_index",
                         "psi_mode", "psi_init", "psi_seed"), "slot")
        return cls(slot_id=d["slot_id"], kind=AttentionKind.from_dict(d["kind"]),
                   channels=d["channels"], position=d["position"],
                   delta_index=d["delta_index"], psi_mode=d["psi_mode"],
                   psi_init=d["psi_init"], psi_seed=d["psi_seed"])


@dataclass
class AttnModule:
    """A standard (input-dependent) attention module attached to a graph."""

    module_id: str
    kind: AttentionKind
    channels: int
    position: str = "after_last_bn"
    delta_index: int = 0

    def __post_init__(self):
        if self.kind.variant == "no_body":
            raise InvariantError("the body-less variant has no standard path")
        self.kind.validate_channels(self.channels)

    @property
    def param_names(self) -> dict[str, str]:
        return {role: f"{self.module_id}.{role}"
                for role in self.kind.param_shapes(self.channels)}

    def gather(self, values: dict) -> dict[str, np.ndarray]:
        return {role: values[name] for role, name in self.param_names.items()}

    def to_dict(self) -> dict:
        return {"module_id": self.module_id, "kind": self.kind.to_dict(),
                "channels": self.channels, "position": self.position,
                "delta_index": self.delta_index}

    @classmethod
    def from_dict(cls, d: dict) -> "AttnModule":
        require_keys(d, ("module_id", "kind", "channels", "position", "delta_index"),
                     "attention module")
        return cls(module_id=d["module_id"], kind=AttentionKind.from_dict(d["kind"]),
                   channels=d["channels"], position=d["position"],
                   delta_index=d["delta_index"])


# ---------------------------------------------------------------------------
# Body forward/backward (raw). u is [N, C'] and v is [N, C].


def _mlp_forward(u, w1, w2):
    h_pre = u @ w1.T
    h = kernels.relu(h_pre)
    return h @ w2.T, {"u": u, "h_pre": h_pre, "h": h}


def _mlp_backward(dz, w1, w2, cache):
    dw2 = dz.T @ cache["h"]
    dh = dz @ w2
    dh_pre = dh * kernels.relu_grad(cache["h_pre"])
    dw1 = dh_pre.T @ cache["u"]
    du = dh_pre @ w1
    return du, {"w1": dw1, "w2": dw2}


def body_forward_raw(kind: AttentionKind, channels: int, p: dict[str, np.ndarray],
                     u: np.ndarray) -> tuple[np.ndarray, dict]:
    c = channels
    v = kind.variant
    expect_const = kind.body_input_dim(c, constant_input=True)
    expect_std = kind.body_input_dim(c, constant_input=False)
    if u.shape[1] not in (expect_const, expect_std):
        raise ShapeError(
            f"{v} body expects input dim {expect_std} (or {expect_const} for a "
            f"constant input), got {u.shape[1]}")
    if v == "se" or v == "spa":
        z, cache = _mlp_forward(u, p["w1"], p["w2"])
    elif v == "ie":
        z, cache = u * p["gamma"] + p["beta"], {"u": u}
    elif v == "srm":
        z = u[:, :c] * p["w_mean"] + u[:, c:] * p["w_std"]
        cache = {"u": u}
    elif v == "eca":
        z, cache = kernels.circular_conv1d_forward(u, p["w"]), {"u": u}
    elif v == "cbam":
        if u.shape[1] == c:
            z, mc = _mlp_forward(u, p["w1"], p["w2"])
            cache = {"single": True, "mlp": mc}
        else:
            z1, c1 = _mlp_forward(u[:, :c], p["w1"], p["w2"])
            z2, c2 = _mlp_forward(u[:, c:], p["w1"], p["w2"])
            z = z1 + z2
            cache = {"single": False, "mlp_avg": c1, "mlp_max": c2}
    else:  # no_body: the vector is sigma(u) directly
        z, cache = u, {}
    out = kernels.sigmoid(z)
    cache["v"] = out
    return out, cache


def body_backward_raw(kind: AttentionKind, channels: int, p: dict[str, np.ndarray],
                      cache: dict, dv: np.ndarray) -> tuple[np.ndarray, dict]:
    c = channels
    v = kind.variant
    dz = dv * kernels.sigmoid_grad(cache["v"])
    if v == "se" or v == "spa":
        return _mlp_backward(dz, p["w1"], p["w2"], cache)
    if v == "ie":
        u = cache["u"]
        return dz * p["gamma"], {"gamma": (dz * u).sum(axis=0), "beta": dz.sum(axis=0)}
    if v == "srm":
        u = cache["u"]
        du = np.concatenate([dz * p["w_mean"], dz * p["w_std"]], axis=1)
        return du, {"w_mean": (dz * u[:, :c]).sum(axis=0),
                    "w_std": (dz * u[:, c:]).sum(axis=0)}
    if v == "eca":
        du, dw = kernels.circular_conv1d_backward(dz, cache["u"], p["w"])
        return du, {"w": dw}
    if v == "cbam":
        if cache["single"]:
            return _mlp_backward(dz, p["w1"], p["w2"], cache["mlp"])
        du1, dp1 = _mlp_backward(dz, p["w1"], p["w2"], cache["mlp_avg"])
        du2, dp2 = _mlp_backward(dz, p["w1"], p["w2"], cache["mlp_max"])
        return np.concatenate([du1, du2], axis=1), {k: dp1[k] + dp2[k] for k in dp1}
    return dz, {}


# ---------------------------------------------------------------------------
# Pooling stages of the standard path (raw).


def pool_forward_raw(kind: AttentionKind, x: np.ndarray) -> tuple[np.ndarray, dict]:
    v = kind.variant
    if v in ("se", "ie", "eca"):
        return kernels.gap_forward(x), {"x_shape": x.shape}
    if v == "srm":
        mean = kernels.gap_forward(x)
        std, sc = kernels.spatial_std_forward(x)
        return np.concatenate([mean, std], axis=1), {"x_shape": x.shape, "std": sc}
    if v == "spa":
        parts, caches = [], []
        for g in kind.levels:
            y, pc = kernels.adaptive_avgpool_forward(x, g)
            parts.append(y.reshape(x.shape[0], -1))
            caches.append(pc)
        return np.concatenate(parts, axis=1), {"x_shape": x.shape, "levels": caches}
    if v == "cbam":
        avg = kernels.gap_forward(x)
        mx, mc = kernels.spatial_max_forward(x)
        return np.concatenate([avg, mx], axis=1), {"x_shape": x.shape, "max": mc}
    raise InvariantError(f"variant {v!r} has no pooled standard path")


def pool_backward_raw(kind: AttentionKind, cache: dict, du: np.ndarray) -> np.ndarray:
    v = kind.variant
    n, c, h, w = cache["x_shape"]
    if v in ("se", "ie", "eca"):
        return kernels.gap_backward(du, cache["x_shape"])
    if v == "srm":
        dx = kernels.gap_backward(du[:, :c], cache["x_shape"])
        return dx + kernels.spatial_std_backward(du[:, c:], cache["std"])
    if v == "spa":
        dx = np.zeros(cache["x_shape"])
        off = 0
        for g, pc in zip(kind.levels, cache["levels"]):
            width = c * g * g
            dx += kernels.adaptive_avgpool_backward(
                du[:, off:off + width].reshape(n, c, g, g), pc)
            off += width
        return dx
    dx = kernels.gap_backward(du[:, :c], cache["x_shape"])
    return dx + kernels.spatial_max_backward(du[:, c:], cache["max"])


# ---------------------------------------------------------------------------
# Full standard-attention and constant-input paths (raw).


def attn_forward_raw(kind: AttentionKind, channels: int, p: dict, x: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, dict]:
    u, pool_cache = pool_forward_raw(kind, x)
    v, body_cache = body_forward_raw(kind, channels, p, u)
    y = kernels.channel_scale(x, v)
    return y, v, {"x": x, "v": v, "pool": pool_cache, "body": body_cache}


def attn_backward_raw(kind: AttentionKind, channels: int, p: dict, cache: dict,
                      dy: np.ndarray) -> tuple[np.ndarray, dict]:
    x, v = cache["x"], cache["v"]
    dx = kernels.channel_scale(dy, v)
    dv = (dy * x).sum(axis=(2, 3))
    du, dp = body_backward_raw(kind, channels, p, cache["body"], dv)
    dx += pool_backward_raw(kind, cache["pool"], du)
    return dx, dp


def asr_vector_raw(slot: AsrSlot, values: dict) -> tuple[np.ndarray, dict]:
    psi = values[slot.psi_name]
    v, cache = body_forward_raw(slot.kind, slot.channels, slot.gather(values),
                                psi[None, :])
    return v[0], cache


def asr_apply_raw(slot: AsrSlot, values: dict, x: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, dict]:
    v, body_cache = asr_vector_raw(slot, values)
    y = kernels.channel_scale(x, v)
    return y, v, {"x": x, "v": v, "body": body_cache}


def asr_backward_raw(slot: AsrSlot, values: dict, cache: dict, dy: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, dict]:
    x, v = cache["x"], cache["v"]
    dx = kernels.channel_scale(dy, v)
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    dv = (dy * x).sum(axis=axes)
    du, dp = body_backward_raw(slot.kind, slot.channels, slot.gather(values),
                               cache["body"], dv[None, :])
    return dx, du[0], dp


# ---------------------------------------------------------------------------
# Public wrappers.


def body_forward(kind: AttentionKind, params: dict, u) -> Tensor:
    """v = sigmoid(F(u)) for a single pooled vector u."""
    ua = as_array(u)
    if ua.ndim != 1:
        raise ShapeError(f"body_forward expects a 1-D input, got {ua.shape}")
    p = {k: as_array(t) for k, t in params.items()}
    channels = _infer_channels(kind, p, ua.shape[0])
    v, _ = body_forward_raw(kind, channels, p, ua[None, :])
    return Tensor._wrap(v[0])


def _infer_channels(kind: AttentionKind, p: dict, input_dim: int) -> int:
    v = kind.variant
    if v in ("se", "cbam", "spa"):
        return p["w2"].shape[0]
    if v == "ie":
        return p["gamma"].shape[0]
    if v == "srm":
        return p["w_mean"].shape[0]
    return input_dim  # eca and no_body keep the channel count


def attn_standard(kind: AttentionKind, params: dict, x) -> tuple[Tensor, Tensor]:
    """Standard input-dependent path: x' = x scaled by v(x) per sample."""
    xa = as_array(x)
    if xa.ndim != 4:
        raise ShapeError(f"attn_standard expects [N,C,H,W], got {xa.shape}")
    p = {k: as_array(t) for k, t in params.items()}
    channels = _infer_channels(kind, p, xa.shape[1])
    if channels != xa.shape[1]:
        raise ShapeError(f"body is sized for {channels} channels, input has {xa.shape[1]}")
    y, v, _ = attn_forward_raw(kind, channels, p, xa)
    return Tensor._wrap(y), Tensor._wrap(v)


def asr_vector(slot: AsrSlot, values: dict) -> Tensor:
    """The slot's constant vector sigma(F(psi)); input-independent."""
    v, _ = asr_vector_raw(slot, {k: as_array(t) for k, t in values.items()})
    return Tensor._wrap(v)


def asr_apply(slot: AsrSlot, values: dict, x) -> Tensor:
    xa = as_array(x)
    if xa.shape[1] != slot.channels:
        raise ShapeError(f"slot {slot.slot_id} is sized for {slot.channels} channels, "
                         f"input has {xa.shape[1]}")
    y, _, _ = asr_apply_raw(slot, {k: as_array(t) for k, t in values.items()}, xa)
    return Tensor._wrap(y)


def no_body_vector(psi) -> Tensor:
    """Body removed: the vector is sigma(psi) directly."""
    pa = as_array(psi)
    if pa.ndim != 1:
        raise ShapeError(f"no_body_vector expects a 1-D psi, got {pa.shape}")
    return Tensor._wrap(kernels.sigmoid(pa))
