"""Equivalent transformations that absorb constant channel vectors into
upstream layer parameters, plus model-level equivalence verification.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import attention
from .autodiff import ParamSet, forward
from .errors import FusionError, InvariantError, ShapeError
from .graph import ModelGraph, validate_graph
from .tensor import Tensor, as_array

FOLD_INTO_CONV = "into_conv"
FOLD_INTO_BN = "into_bn"
FOLD_INTO_FC = "into_fc"
FOLD_INTO_ATTENTION_VALUE = "into_attention_value"


def fold_into_conv(k, b, v) -> tuple[Tensor, Tensor]:
    """Scale the o-th output kernel and bias entry by v_o."""
    ka, ba, va = as_array(k), as_array(b), as_array(v)
    if va.shape != (ka.shape[0],):
        raise ShapeError(f"vector length {va.shape} does not match {ka.shape[0]} kernels")
    if ba.shape != (ka.shape[0],):
        raise ShapeError(f"bias length {ba.shape} does not match {ka.shape[0]} kernels")
    return Tensor._wrap(ka * va[:, None, None, None]), Tensor._wrap(ba * va)


def fold_into_bn(gamma, beta, v) -> tuple[Tensor, Tensor]:
    """gamma' = gamma*v, beta' = beta*v; running statistics untouched."""
    ga, ba, va = as_array(gamma), as_array(beta), as_array(v)
    if not (ga.shape == ba.shape == va.shape):
        raise ShapeError(f"length mismatch: gamma {ga.shape}, beta {ba.shape}, v {va.shape}")
    return Tensor._wrap(ga * va), Tensor._wrap(ba * va)


def fold_into_fc(w, bias, v) -> tuple[Tensor, Tensor]:
    """Scale row i of W and bias_i by v_i (bias scaling forced by distributivity)."""
    wa, ba, va = as_array(w), as_array(bias), as_array(v)
    if va.shape != (wa.shape[0],):
        raise ShapeError(f"vector length {va.shape} does not match {wa.shape[0]} rows")
    if ba.shape != (wa.shape[0],):
        raise ShapeError(f"bias length {ba.shape} does not match {wa.shape[0]} rows")
    return Tensor._wrap(wa * va[:, None]), Tensor._wrap(ba * va)


def fold_into_attention_value(w_v, v) -> Tensor:
    """Output-row scaling of the value projection: W_V' = W_V * v."""
    wa, va = as_array(w_v), as_array(v)
    if va.shape != (wa.shape[0],):
        raise ShapeError(f"vector length {va.shape} does not match {wa.shape[0]} rows")
    return Tensor._wrap(wa * va[:, None])


def attention_value_forward(w_q, w_k, w_v, x) -> Tensor:
    """Softmax-free attention block on token rows x [n, d].

    out = A (x W_V^T), A = (x W_Q^T)(x W_K^T)^T / sqrt(d_k). Channel scaling
    of the output commutes into W_V because A acts on the token axis only.
    """
    xq, xk, xv = (as_array(t) for t in (w_q, w_k, w_v))
    xa = as_array(x)
    dk = xq.shape[0]
    q = xa @ xq.T
    k = xa @ xk.T
    a = (q @ k.T) / np.sqrt(dk)
    return Tensor._wrap(a @ (xa @ xv.T))


@dataclass
class FusionRow:
    slot_id: str
    fold_kind: str
    target_layer: str
    through_relu: bool
    vector_norm: float


@dataclass
class FusionReport:
    rows: list[FusionRow] = field(default_factory=list)
    max_deviation: float = 0.0

    def to_csv(self) -> str:
        lines = ["slot_id,fold_kind,target_layer,through_relu,max_dev"]
        for r in self.rows:
            lines.append(f"{r.slot_id},{r.fold_kind},{r.target_layer},"
                         f"{int(r.through_relu)},{self.max_deviation!r}")
        return "\n".join(lines) + "\n"


def fuse_model(graph: ModelGraph, params: ParamSet, *, verify_samples: int = 100,
               seed: int = 0) -> tuple[ModelGraph, ParamSet, FusionReport]:
    """Fold every constant-input slot into its upstream layer.

    The fused graph has no asr nodes and exactly the parameter set of the
    slot-free backbone. Slots sitting after a ReLU commute through it
    (valid because every slot vector is strictly positive).
    """
    g = copy.deepcopy(graph)
    p = params.copy()
    report = FusionReport()
    for node in [n for n in graph.nodes if n.kind == "asr"]:
        slot = g.slots[node.attrs["slot"]]
        v, _ = attention.asr_vector_raw(slot, p.values)
        if (v <= 0).any():
            raise InvariantError(f"slot {slot.slot_id} vector has non-positive entries")
        by_name = {n.name: n for n in g.nodes}
        consumers: dict[str, list[str]] = {}
        for n in g.nodes:
            for i in n.inputs:
                consumers.setdefault(i, []).append(n.name)
        prev_name = node.name
        target_name = by_name[node.name].inputs[0]
        through_relu = False
        while True:
            target = by_name[target_name]
            # scaling the target's output must reach this slot only
            if consumers.get(target_name, []) != [prev_name]:
                raise FusionError(
                    f"slot {slot.slot_id}: layer {target_name!r} feeds "
                    f"{consumers.get(target_name)}, so the fold would leak "
                    f"outside the slot's path")
            if target.kind == "relu":
                through_relu = True
                prev_name = target_name
                target_name = target.inputs[0]
                continue
            if target.kind == "conv":
                k, b = fold_into_conv(p.values[f"{target.name}.k"],
                                      p.values[f"{target.name}.b"], v)
                p.values[f"{target.name}.k"] = k.data
                p.values[f"{target.name}.b"] = b.data
                kind = FOLD_INTO_CONV
                break
            if target.kind == "bn":
                gamma, beta = fold_into_bn(p.values[f"{target.name}.gamma"],
                                           p.values[f"{target.name}.beta"], v)
                p.values[f"{target.name}.gamma"] = gamma.data
                p.values[f"{target.name}.beta"] = beta.data
                kind = FOLD_INTO_BN
                break
            if target.kind == "linear":
                w, b = fold_into_fc(p.values[f"{target.name}.w"],
                                    p.values[f"{target.name}.b"], v)
                p.values[f"{target.name}.w"] = w.data
                p.values[f"{target.name}.b"] = b.data
                kind = FOLD_INTO_FC
                break
            raise FusionError(
                f"slot {slot.slot_id} has no foldable upstream layer: reached "
                f"{target.kind} node {target.name!r}")
        # Remove the slot node, rewire consumers, drop its parameters.
        fused_node = by_name[node.name]
        src = fused_node.inputs[0]
        g.nodes = [n for n in g.nodes if n.name != node.name]
        for n in g.nodes:
            n.inputs = [src if i == node.name else i for i in n.inputs]
        for pname in list(slot.param_names.values()) + [slot.psi_name]:
            p.values.pop(pname, None)
            p.trainable.discard(pname)
        del g.slots[slot.slot_id]
        report.rows.append(FusionRow(slot_id=slot.slot_id, fold_kind=kind,
                                     target_layer=target_name,
                                     through_relu=through_relu,
                                     vector_norm=float(np.linalg.norm(v))))
    validate_graph(g)
    if verify_samples > 0:
        report.max_deviation = verify_equivalence((graph, params), (g, p),
                                                  n=verify_samples, seed=seed)
    return g, p, report


@dataclass
class FuncModel:
    """A callable model for verification (batch array -> batch array)."""

    fn: Callable[[np.ndarray], np.ndarray]
    input_shape: tuple[int, ...]


def _as_func_model(model) -> FuncModel:
    if isinstance(model, FuncModel):
        return model
    graph, params = model

    def run(x: np.ndarray) -> np.ndarray:
        logits, _ = forward(graph, params, x, mode="eval")
        return logits.data

    return FuncModel(fn=run, input_shape=tuple(graph.input_shape))


def verify_equivalence(model_a, model_b, n: int = 100, seed: int = 0,
                       tol: float | None = None) -> float:
    """Max over n seeded random inputs of |a-b|_inf / (1 + |a|_inf).

    Accepts (graph, params) pairs or FuncModel instances. When `tol` is
    given, raises InvariantError unless the deviation is at most `tol`, so a
    NaN deviation fails.
    """
    a = _as_func_model(model_a)
    b = _as_func_model(model_b)
    if a.input_shape != b.input_shape:
        raise ShapeError(f"input signatures differ: {a.input_shape} vs {b.input_shape}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, *a.input_shape))
    ya = a.fn(x)
    yb = b.fn(x)
    flat_a = ya.reshape(n, -1)
    flat_b = yb.reshape(n, -1)
    per_input = (np.abs(flat_a - flat_b).max(axis=1)
                 / (1.0 + np.abs(flat_a).max(axis=1)))
    dev = float(per_input.max()) if n > 0 else 0.0
    if tol is not None and not dev <= tol:
        raise InvariantError(f"equivalence deviation {dev:.3e} exceeds tolerance {tol:.3e}")
    return dev
