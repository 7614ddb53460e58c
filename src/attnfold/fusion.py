"""Equivalent transformations that absorb constant channel vectors into
upstream layer parameters, plus model-level equivalence verification.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import attention
from .autodiff import ParamSet, forward
from .errors import FusionError, InvariantError, ShapeError
from .graph import ModelGraph, remove_node, validate_graph
from .tensor import Tensor, as_array

def _scale_rows(v: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Each array with row i of axis 0 multiplied by v_i: every fold is this
    rule on the roles of the layer that v follows (`FOLDS`)."""
    if any(a.shape[:1] != v.shape for a in arrays):
        raise ShapeError(f"vector of shape {v.shape} does not match the rows of "
                         f"tensors {[a.shape for a in arrays]}")
    return [a * v.reshape(-1, *(1,) * (a.ndim - 1)) for a in arrays]


def _fold(v, *tensors) -> tuple[Tensor, ...]:
    return tuple(map(Tensor._wrap, _scale_rows(as_array(v), *map(as_array, tensors))))


def fold_into_conv(k, b, v) -> tuple[Tensor, Tensor]:
    """Scale the o-th output kernel and bias entry by v_o."""
    return _fold(v, k, b)


def fold_into_bn(gamma, beta, v) -> tuple[Tensor, Tensor]:
    """gamma' = gamma*v, beta' = beta*v; running statistics untouched."""
    return _fold(v, gamma, beta)


def fold_into_fc(w, bias, v) -> tuple[Tensor, Tensor]:
    """Scale row i of W and bias_i by v_i (bias scaling forced by distributivity)."""
    return _fold(v, w, bias)


def fold_into_attention_value(w_v, v) -> Tensor:
    """Output-row scaling of the value projection: W_V' = W_V * v."""
    return _fold(v, w_v)[0]


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
        lines = ["slot_id,fold_kind,target_layer,through_relu,max_dev,vector_norm"]
        for r in self.rows:
            lines.append(f"{r.slot_id},{r.fold_kind},{r.target_layer},"
                         f"{int(r.through_relu)},{self.max_deviation!r},{r.vector_norm!r}")
        return "\n".join(lines) + "\n"


# Foldable layer kind -> (fold kind, the parameter roles whose rows it scales).
FOLDS = {"conv": ("into_conv", ("k", "b")),
         "bn": ("into_bn", ("gamma", "beta")),
         "linear": ("into_fc", ("w", "b"))}


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
        if not (v > 0).all():  # NaN fails too
            raise InvariantError(f"slot {slot.slot_id} vector has non-positive entries")
        by_name = {n.name: n for n in g.nodes}
        consumers: dict[str, list[str]] = {}
        for n in g.nodes:
            for i in n.inputs:
                consumers.setdefault(i, []).append(n.name)
        prev_name = node.name
        target = by_name[by_name[node.name].inputs[0]]
        through_relu = False
        while True:
            # scaling the target's output must reach this slot only
            if consumers.get(target.name, []) != [prev_name]:
                raise FusionError(
                    f"slot {slot.slot_id}: layer {target.name!r} feeds "
                    f"{consumers.get(target.name)}, so the fold would leak "
                    f"outside the slot's path")
            if target.kind != "relu":
                break
            through_relu = True
            prev_name = target.name
            target = by_name[target.inputs[0]]
        if target.kind not in FOLDS:
            raise FusionError(
                f"slot {slot.slot_id} has no foldable upstream layer: reached "
                f"{target.kind} node {target.name!r}")
        kind, roles = FOLDS[target.kind]
        names = [f"{target.name}.{role}" for role in roles]
        p.values.update(zip(names, _scale_rows(v, *(p.values[n] for n in names))))
        remove_node(g, p, node.name)
        report.rows.append(FusionRow(slot_id=slot.slot_id, fold_kind=kind,
                                     target_layer=target.name,
                                     through_relu=through_relu,
                                     vector_norm=float(np.linalg.norm(v))))
    validate_graph(g)
    if verify_samples > 0:
        report.max_deviation = verify_equivalence((graph, params), (g, p),
                                                  n=verify_samples, seed=seed)
    return g, p, report


def verify_equivalence(model_a, model_b, n: int = 100, seed: int = 0,
                       tol: float | None = None) -> float:
    """Max over n seeded random inputs of |a-b|_inf / (1 + |a|_inf) between
    two (graph, params) pairs.

    When `tol` is given, raises InvariantError unless the deviation is at
    most `tol`, so a NaN deviation fails.
    """
    (graph_a, params_a), (graph_b, params_b) = model_a, model_b
    shape_a, shape_b = tuple(graph_a.input_shape), tuple(graph_b.input_shape)
    if shape_a != shape_b:
        raise ShapeError(f"input signatures differ: {shape_a} vs {shape_b}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, *shape_a))
    ya = forward(graph_a, params_a, x, mode="eval")[0].data
    yb = forward(graph_b, params_b, x, mode="eval")[0].data
    flat_a = ya.reshape(n, -1)
    flat_b = yb.reshape(n, -1)
    per_input = (np.abs(flat_a - flat_b).max(axis=1)
                 / (1.0 + np.abs(flat_a).max(axis=1)))
    dev = float(per_input.max()) if n > 0 else 0.0
    if tol is not None and not dev <= tol:
        raise InvariantError(f"equivalence deviation {dev:.3e} exceeds tolerance {tol:.3e}")
    return dev
