"""Channel-attention bodies, the standard input-dependent path, and the
constant-input path whose output vector can later be folded away.

The module works on ndarrays only: each `_raw` function returns its result
with its backward rule and trusts the tensor shapes it is given, which
`layer_walk` sets at build and `load_checkpoint` checks at load (`tensor.py`
is the validating, `Tensor`-speaking layer over `kernels`). A variant is its
entry in `VARIANTS`, its `param_shapes` and `body_input_dim`, one branch of
`body_forward_raw` and, with a standard path, one of `pool_forward_raw`.
A slot (`AsrSlot`) and a module (`AttnModule`) share one attachment rule,
`Attachment`: its range checks, its JSON form and the names `<ident>.<role>`
of its body tensors, which the graph and autodiff read through `param_names`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .errors import InvariantError, ShapeError, require_keys, require_types

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
        if self.reduction < 1:
            raise InvariantError(f"reduction must be >= 1, got {self.reduction}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise InvariantError(f"kernel must be odd and >= 1, got {self.kernel}")
        if not self.levels or any(g < 1 for g in self.levels):
            raise InvariantError(f"levels must be non-empty and positive, got {self.levels}")

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
        """The body's tensor shapes by role; InvariantError if the variant
        cannot be sized for `channels`."""
        c, r = channels, self.reduction
        v = self.variant
        if v in ("se", "cbam"):
            if c % r != 0:
                raise InvariantError(f"{v} reduction {r} must divide {c} channels")
            return {"w1": (c // r, c), "w2": (c, c // r)}
        if v == "ie":
            return {"gamma": (c,), "beta": (c,)}
        if v == "srm":
            return {"w_mean": (c,), "w_std": (c,)}
        if v == "spa":
            return {"w1": (c, self.pyramid_size * c), "w2": (c, c)}
        if v == "eca":
            if self.kernel // 2 >= c:
                raise InvariantError(f"eca kernel {self.kernel} too wide for {c} channels")
            return {"w": (self.kernel,)}
        return {}

    def to_dict(self) -> dict:
        return {"variant": self.variant, "reduction": self.reduction,
                "levels": list(self.levels), "kernel": self.kernel}

    @classmethod
    def from_dict(cls, d: dict) -> "AttentionKind":
        require_keys(d, ("variant", "reduction", "levels", "kernel"), "attention kind")
        require_types(d, {"variant": str, "reduction": int, "levels": list[int],
                          "kernel": int}, "attention kind")
        return cls(variant=d["variant"], reduction=d["reduction"],
                   levels=tuple(d["levels"]), kernel=d["kernel"])


def init_tensor(role: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Initial value of a tensor from its role: unit scales, zero shifts and
    statistics, He-normal weights (fan-in: every axis but the first, or the
    length of a 1-D weight)."""
    if role in ("gamma", "w_mean", "running_var"):
        return np.ones(shape)
    if role in ("beta", "w_std", "b", "running_mean"):
        return np.zeros(shape)
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


# JSON types of the fields a slot and a module share.
ATTACHMENT_TYPES = {"kind": dict, "channels": int, "position": str, "delta_index": int}


class Attachment:
    """The rule a slot and a module share: range checks, JSON form and the
    body tensors `<ident>.<role>`. A subclass is a dataclass with an `ident`."""

    def __post_init__(self):
        if self.channels < 1:
            raise InvariantError(f"channels must be >= 1, got {self.channels}")
        if self.position not in POSITIONS:
            raise InvariantError(f"unknown position tag {self.position!r}")
        if self.delta_index < 0:
            raise InvariantError("delta_index must be >= 0")
        self.kind.param_shapes(self.channels)  # raises if the kind cannot be sized for them

    @property
    def param_names(self) -> dict[str, str]:
        return {role: f"{self.ident}.{role}"
                for role in self.kind.param_shapes(self.channels)}

    def gather(self, values: dict) -> dict[str, np.ndarray]:
        return {role: values[name] for role, name in self.param_names.items()}

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return d | {"kind": self.kind.to_dict()}


@dataclass
class AsrSlot(Attachment):
    """One constant-input attention instance attached to a graph position."""

    slot_id: str
    kind: AttentionKind
    channels: int
    position: str = "after_last_bn"
    delta_index: int = 0
    psi_mode: str = "learnable"  # learnable | frozen_constant | frozen_gaussian
    psi_init: float = 0.1        # psi's value, or its std under frozen_gaussian
    psi_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.psi_mode not in ("learnable", "frozen_constant", "frozen_gaussian"):
            raise InvariantError(f"unknown psi mode {self.psi_mode!r}")
        if not np.isfinite(self.psi_init) or (
                self.psi_mode == "frozen_gaussian" and self.psi_init < 0):
            raise InvariantError(f"psi_init must be finite, and >= 0 as a frozen_gaussian "
                                 f"std, got {self.psi_init} ({self.psi_mode})")

    @property
    def ident(self) -> str:
        return self.slot_id

    @property
    def psi_dim(self) -> int:
        return self.kind.body_input_dim(self.channels, constant_input=True)

    @property
    def psi_name(self) -> str:
        return f"{self.slot_id}.psi"

    @property
    def psi_trainable(self) -> bool:
        return self.psi_mode == "learnable"

    def init_psi(self) -> np.ndarray:
        if self.psi_mode == "frozen_gaussian":
            rng = np.random.default_rng(self.psi_seed)
            return rng.normal(0.0, self.psi_init, self.psi_dim)
        return np.full(self.psi_dim, self.psi_init)

    @classmethod
    def from_dict(cls, d: dict) -> "AsrSlot":
        require_keys(d, ("slot_id", "kind", "channels", "position", "delta_index",
                         "psi_mode", "psi_init", "psi_seed"), "slot")
        require_types(d, {**ATTACHMENT_TYPES, "slot_id": str, "psi_mode": str,
                          "psi_init": float, "psi_seed": int}, f"slot {d['slot_id']!r}")
        return cls(slot_id=d["slot_id"], kind=AttentionKind.from_dict(d["kind"]),
                   channels=d["channels"], position=d["position"],
                   delta_index=d["delta_index"], psi_mode=d["psi_mode"],
                   psi_init=d["psi_init"], psi_seed=d["psi_seed"])


@dataclass
class AttnModule(Attachment):
    """A standard (input-dependent) attention module attached to a graph."""

    module_id: str
    kind: AttentionKind
    channels: int
    position: str = "after_last_bn"
    delta_index: int = 0

    def __post_init__(self):
        if self.kind.variant == "no_body":
            raise InvariantError("the body-less variant has no standard path")
        super().__post_init__()

    @property
    def ident(self) -> str:
        return self.module_id

    @classmethod
    def from_dict(cls, d: dict) -> "AttnModule":
        require_keys(d, ("module_id", "kind", "channels", "position", "delta_index"),
                     "attention module")
        require_types(d, {**ATTACHMENT_TYPES, "module_id": str},
                      f"attention module {d['module_id']!r}")
        return cls(module_id=d["module_id"], kind=AttentionKind.from_dict(d["kind"]),
                   channels=d["channels"], position=d["position"],
                   delta_index=d["delta_index"])


# ---------------------------------------------------------------------------
# Raw paths. u is [N, C'] and v is [N, C]. Each forward returns its output
# with the backward rule of that call: a body's `back(dv) -> (du, grads by
# role)`, a pool's `back(du) -> dx`.


def _mlp(u, w1, w2):
    """z = relu(u w1^T) w2^T and its rule `back(dz) -> (du, grads)`."""
    h_pre = u @ w1.T
    h = kernels.relu(h_pre)

    def back(dz):
        dw2 = dz.T @ h
        dh_pre = (dz @ w2) * kernels.relu_grad(h_pre)
        return dh_pre @ w1, {"w1": dh_pre.T @ u, "w2": dw2}
    return h @ w2.T, back


def body_forward_raw(kind: AttentionKind, channels: int, p: dict[str, np.ndarray],
                     u: np.ndarray):
    """v = sigmoid(F(u)) and its rule `back(dv) -> (du, grads by role)`."""
    c = channels
    v = kind.variant
    expect_const = kind.body_input_dim(c, constant_input=True)
    expect_std = kind.body_input_dim(c, constant_input=False)
    if u.shape[1] not in (expect_const, expect_std):
        raise ShapeError(
            f"{v} body expects input dim {expect_std} (or {expect_const} for a "
            f"constant input), got {u.shape[1]}")
    if v in ("se", "spa") or (v == "cbam" and u.shape[1] == c):
        z, back = _mlp(u, p["w1"], p["w2"])
    elif v == "cbam":
        z1, back1 = _mlp(u[:, :c], p["w1"], p["w2"])
        z2, back2 = _mlp(u[:, c:], p["w1"], p["w2"])
        z = z1 + z2

        def back(dz):
            (du1, dp1), (du2, dp2) = back1(dz), back2(dz)
            return np.concatenate([du1, du2], axis=1), {k: dp1[k] + dp2[k] for k in dp1}
    elif v == "ie":
        z = u * p["gamma"] + p["beta"]

        def back(dz):
            return dz * p["gamma"], {"gamma": (dz * u).sum(axis=0), "beta": dz.sum(axis=0)}
    elif v == "srm":
        z = u[:, :c] * p["w_mean"] + u[:, c:] * p["w_std"]

        def back(dz):
            return (np.concatenate([dz * p["w_mean"], dz * p["w_std"]], axis=1),
                    {"w_mean": (dz * u[:, :c]).sum(axis=0), "w_std": (dz * u[:, c:]).sum(axis=0)})
    elif v == "eca":
        z = kernels.circular_conv1d_forward(u, p["w"])

        def back(dz):
            du, dw = kernels.circular_conv1d_backward(dz, u, p["w"])
            return du, {"w": dw}
    else:  # no_body: the vector is sigma(u) directly
        z, back = u, lambda dz: (dz, {})
    out = kernels.sigmoid(z)
    return out, lambda dv: back(dv * kernels.sigmoid_grad(out))


def pool_forward_raw(kind: AttentionKind, x: np.ndarray):
    """The standard path's pooled input u and its rule `back(du) -> dx`."""
    v, shape = kind.variant, x.shape
    n, c = shape[:2]
    if v in ("se", "ie", "eca"):
        return kernels.gap_forward(x), lambda du: kernels.gap_backward(du, shape)
    if v == "srm":
        mean = kernels.gap_forward(x)
        std, sc = kernels.spatial_std_forward(x)
        return np.concatenate([mean, std], axis=1), lambda du: (
            kernels.gap_backward(du[:, :c], shape)
            + kernels.spatial_std_backward(du[:, c:], sc))
    if v == "spa":
        parts, caches = [], []
        for g in kind.levels:
            y, pc = kernels.adaptive_avgpool_forward(x, g)
            parts.append(y.reshape(n, -1))
            caches.append(pc)

        def back(du):
            dx = np.zeros(shape)
            off = 0
            for g, pc in zip(kind.levels, caches):
                width = c * g * g
                dx += kernels.adaptive_avgpool_backward(
                    du[:, off:off + width].reshape(n, c, g, g), pc)
                off += width
            return dx
        return np.concatenate(parts, axis=1), back
    if v == "cbam":
        avg = kernels.gap_forward(x)
        mx, mc = kernels.spatial_max_forward(x)
        return np.concatenate([avg, mx], axis=1), lambda du: (
            kernels.gap_backward(du[:, :c], shape)
            + kernels.spatial_max_backward(du[:, c:], mc))
    raise InvariantError(f"variant {v!r} has no pooled standard path")


def attn_forward_raw(kind: AttentionKind, channels: int, p: dict, x: np.ndarray,
                     substitute=None, out: np.ndarray | None = None):
    """(y, v, cache): x scaled by its per-sample vector v, or by
    `substitute(v)` when given, into `out` when given (which may be x, if no
    backward pass follows); `attn_backward_raw` reads the cache."""
    u, pool_back = pool_forward_raw(kind, x)
    v, body_back = body_forward_raw(kind, channels, p, u)
    w = v if substitute is None else substitute(v)
    return kernels.channel_scale(x, w, out=out), v, (x, v, body_back, pool_back)


def attn_backward_raw(cache: tuple, dy: np.ndarray) -> tuple[np.ndarray, dict]:
    x, v, body_back, pool_back = cache
    dx = kernels.channel_scale(dy, v)
    du, dp = body_back((dy * x).sum(axis=(2, 3)))
    dx += pool_back(du)
    return dx, dp


def asr_vector_raw(slot: AsrSlot, values: dict):
    """The slot's vector [C] and its body rule (for a [1, C] gradient)."""
    v, back = body_forward_raw(slot.kind, slot.channels, slot.gather(values),
                               values[slot.psi_name][None, :])
    return v[0], back


def asr_apply_raw(slot: AsrSlot, values: dict, x: np.ndarray):
    """(y, v, cache): x scaled by the slot's vector; `asr_backward_raw` reads
    the cache."""
    v, back = asr_vector_raw(slot, values)
    return kernels.channel_scale(x, v), v, (x, v, back)


def asr_backward_raw(cache: tuple, dy: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, dict]:
    """(dx, dpsi, grads by role) of one `asr_apply_raw` call."""
    x, v, back = cache
    dx = kernels.channel_scale(dy, v)
    du, dp = back((dy * x).sum(axis=kernels.bn_axes(x))[None, :])
    return dx, du[0], dp

