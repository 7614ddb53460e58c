"""Reverse-mode differentiation over the fixed layer-node set.

A forward pass in train mode records a tape of per-node caches; backward
walks it in reverse and accumulates gradients into the ParamSet. In both
modes a node's output is released once its last consumer has run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention, kernels
from .errors import GraphError, InvariantError, StateError
from .graph import BN_EPS, BN_MOMENTUM, ModelGraph
from .tensor import Tensor, as_array


@dataclass
class ParamSet:
    """Named parameters plus matching gradient accumulators."""

    values: dict[str, np.ndarray]
    trainable: set[str] = field(default_factory=set)
    grads: dict[str, np.ndarray] = field(default_factory=dict)

    def zero_grads(self) -> None:
        self.grads = {name: np.zeros_like(self.values[name]) for name in self.trainable}

    def add_grad(self, name: str, g: np.ndarray) -> None:
        if name not in self.trainable:
            return
        if name not in self.grads:
            self.grads[name] = np.zeros_like(self.values[name])
        if self.grads[name].shape != g.shape:
            raise InvariantError(f"gradient shape {g.shape} does not match parameter "
                                 f"{name} of shape {self.grads[name].shape}")
        self.grads[name] = self.grads[name] + g

    def copy(self) -> "ParamSet":
        return ParamSet(values={k: v.copy() for k, v in self.values.items()},
                        trainable=set(self.trainable))

    def total_size(self, trainable_only: bool = True) -> int:
        names = self.trainable if trainable_only else self.values.keys()
        return sum(self.values[n].size for n in names)


@dataclass
class TapeNode:
    node: object                 # the LayerNode evaluated
    saved: dict                  # values the backward rule needs


@dataclass
class Tape:
    """What a forward pass leaves behind.

    `values` holds the output node's value plus those of the nodes named in
    `forward(keep=...)`; every other activation was released after its last
    consumer ran. `entries` (train mode only) holds each node's backward
    cache, which is all `backward` reads besides the output's shape.
    """

    mode: str
    graph: ModelGraph
    params: ParamSet
    values: dict[str, np.ndarray]
    entries: list[TapeNode]


def forward(graph: ModelGraph, params: ParamSet, x, mode: str = "eval", *,
            keep=(),
            record_vectors: dict | None = None,
            record_post: dict | None = None,
            attn_override: dict | None = None,
            bn_noise=None) -> tuple[Tensor, Tape]:
    """Evaluate the graph on a batch x of shape [N, *input_shape].

    In train mode BN uses batch statistics and updates the running state;
    eval mode uses the running state. Each node's value is dropped as soon
    as its last consumer has run, so the returned `tape.values` holds only
    the output and the nodes named in `keep`: a caller that reads an
    intermediate activation declares it there (an unknown name raises
    GraphError). Optional hooks: `record_vectors` / `record_post` collect
    per-module attention vectors and post-scaling channel means,
    `attn_override` replaces named attn modules with fixed vectors, and
    `bn_noise(name)` injects (scale, shift) noise on the normalized
    activation of each BN layer (eval only).
    """
    if mode not in ("train", "eval"):
        raise InvariantError(f"mode must be 'train' or 'eval', got {mode!r}")
    xa = as_array(x)
    if xa.shape[1:] != tuple(graph.input_shape):
        raise GraphError(f"input shape {xa.shape[1:]} does not match graph input "
                         f"{tuple(graph.input_shape)}")
    nodes = graph.nodes
    last_use: dict[str, int] = {}
    for pos, node in enumerate(nodes):
        last_use[node.name] = pos
        last_use.update(dict.fromkeys(node.inputs, pos))
    kept = {*keep, graph.output_name}
    unknown = sorted(kept - last_use.keys())
    if unknown:
        raise GraphError(f"keep names unknown node {unknown[0]!r}")
    release: list[list[str]] = [[] for _ in nodes]
    for name, pos in last_use.items():
        if name not in kept:
            release[pos].append(name)
    values: dict[str, np.ndarray] = {nodes[0].name: xa}
    entries: list[TapeNode] = []
    train = mode == "train"
    for pos, node in enumerate(nodes[1:], 1):
        ins = [values[i] for i in node.inputs]
        try:
            values[node.name], saved = _node_forward(graph, params, node, ins, train,
                                                     record_vectors, record_post,
                                                     attn_override, bn_noise)
        except GraphError:
            raise
        except ValueError as exc:
            raise GraphError(f"layer {node.name!r}: {exc}") from exc
        for name in release[pos]:
            values.pop(name, None)
        if train:
            entries.append(TapeNode(node=node, saved=saved))
        # Drop the locals too, so a released input or an eval-mode cache
        # does not live on through the next node.
        del ins, saved
    logits = values[graph.output_name]
    return Tensor._wrap(logits), Tape(mode=mode, graph=graph, params=params,
                                      values=values, entries=entries)


def _node_forward(graph, params, node, ins, train, record_vectors, record_post,
                  attn_override, bn_noise):
    kind = node.kind
    x = ins[0]
    vals = params.values
    if kind == "conv":
        a = node.attrs
        k, b = vals[f"{node.name}.k"], vals[f"{node.name}.b"]
        y, cache = kernels.conv2d_forward(x, k, b, a["stride"], a["padding"])
        return y, {"cache": cache}
    if kind == "bn":
        gamma, beta = vals[f"{node.name}.gamma"], vals[f"{node.name}.beta"]
        if train:
            y, cache, mean, var = kernels.batchnorm_train_forward(x, gamma, beta, BN_EPS)
            m = x.size // x.shape[1]
            unbiased = var * (m / (m - 1)) if m > 1 else var
            rm, rv = f"{node.name}.running_mean", f"{node.name}.running_var"
            vals[rm] = BN_MOMENTUM * vals[rm] + (1 - BN_MOMENTUM) * mean
            vals[rv] = BN_MOMENTUM * vals[rv] + (1 - BN_MOMENTUM) * unbiased
            return y, {"cache": cache}
        noise = bn_noise(node.name) if bn_noise is not None else None
        y = kernels.batchnorm_eval_forward(
            x, vals[f"{node.name}.running_mean"], vals[f"{node.name}.running_var"],
            gamma, beta, BN_EPS, noise=noise)
        return y, {}
    if kind == "relu":
        return kernels.relu(x), {"x": x}
    if kind == "linear":
        w, b = vals[f"{node.name}.w"], vals[f"{node.name}.b"]
        return kernels.linear_forward(x, w, b), {"x": x}
    if kind == "gap":
        return kernels.gap_forward(x), {"x_shape": x.shape}
    if kind == "maxpool2":
        y, cache = kernels.maxpool2_forward(x)
        return y, {"cache": cache}
    if kind == "add":
        return ins[0] + ins[1], {}
    if kind == "asr":
        slot = graph.slots[node.attrs["slot"]]
        y, v, cache = attention.asr_apply_raw(slot, vals, x)
        if record_vectors is not None:
            record_vectors[node.name] = np.broadcast_to(v, (x.shape[0], v.shape[0])).copy()
        if record_post is not None and y.ndim == 4:
            record_post[node.name] = y.mean(axis=(2, 3))
        return y, {"cache": cache, "slot": slot}
    if kind == "attn":
        mod = graph.modules[node.attrs["module"]]
        if attn_override is not None and node.name in attn_override:
            vbar = attn_override[node.name]
            y = kernels.channel_scale(x, vbar)
            v = np.broadcast_to(vbar, (x.shape[0], vbar.shape[0]))
            saved = {"override": True}
        else:
            y, v, cache = attention.attn_forward_raw(mod.kind, mod.channels,
                                                     mod.gather(vals), x)
            saved = {"cache": cache, "module": mod}
        if record_vectors is not None:
            record_vectors[node.name] = np.array(v, copy=True)
        if record_post is not None and y.ndim == 4:
            record_post[node.name] = y.mean(axis=(2, 3))
        return y, saved
    raise GraphError(f"unknown layer kind {kind!r} in node {node.name!r}")


def backward(tape: Tape, loss_grad) -> ParamSet:
    """Push the loss gradient through the tape; fills params.grads."""
    if tape.mode != "train":
        raise StateError("backward requires a tape from a train-mode forward pass")
    params = tape.params
    graph = tape.graph
    dvals: dict[str, np.ndarray] = {graph.output_name: as_array(loss_grad)}
    if dvals[graph.output_name].shape != tape.values[graph.output_name].shape:
        raise InvariantError("loss gradient shape does not match the logits")
    for entry in reversed(tape.entries):
        node = entry.node
        dy = dvals.pop(node.name, None)
        if dy is None:
            continue
        dins, dparams = _node_backward(graph, params, node, entry.saved, dy, tape)
        for iname, dx in zip(node.inputs, dins):
            if iname in dvals:
                dvals[iname] = dvals[iname] + dx
            else:
                dvals[iname] = dx
        for pname, g in dparams.items():
            params.add_grad(pname, g)
    return params


def _node_backward(graph, params, node, saved, dy, tape):
    kind = node.kind
    vals = params.values
    if kind == "conv":
        k = vals[f"{node.name}.k"]
        dx, dk, db = kernels.conv2d_backward(dy, k, saved["cache"])
        return [dx], {f"{node.name}.k": dk, f"{node.name}.b": db}
    if kind == "bn":
        dx, dgamma, dbeta = kernels.batchnorm_train_backward(dy, saved["cache"])
        return [dx], {f"{node.name}.gamma": dgamma, f"{node.name}.beta": dbeta}
    if kind == "relu":
        return [dy * kernels.relu_grad(saved["x"])], {}
    if kind == "linear":
        w = vals[f"{node.name}.w"]
        dx, dw, db = kernels.linear_backward(dy, saved["x"], w)
        return [dx], {f"{node.name}.w": dw, f"{node.name}.b": db}
    if kind == "gap":
        return [kernels.gap_backward(dy, saved["x_shape"])], {}
    if kind == "maxpool2":
        return [kernels.maxpool2_backward(dy, saved["cache"])], {}
    if kind == "add":
        return [dy, dy], {}
    if kind == "asr":
        slot = saved["slot"]
        dx, dpsi, dp = attention.asr_backward_raw(slot, vals, saved["cache"], dy)
        grads = {f"{slot.slot_id}.{role}": g for role, g in dp.items()}
        grads[slot.psi_name] = dpsi
        return [dx], grads
    if kind == "attn":
        if saved.get("override"):
            raise StateError("cannot backpropagate through an overridden attention module")
        mod = saved["module"]
        dx, dp = attention.attn_backward_raw(mod.kind, mod.channels,
                                             mod.gather(vals), saved["cache"], dy)
        return [dx], {f"{mod.module_id}.{role}": g for role, g in dp.items()}
    raise GraphError(f"unknown layer kind {kind!r} in node {node.name!r}")


def cross_entropy(logits, labels) -> tuple[float, Tensor]:
    """Softmax cross-entropy, mean over the batch; returns (loss, dloss/dlogits)."""
    la = as_array(logits)
    y = np.asarray(labels, dtype=np.int64)
    n, classes = la.shape
    if y.shape != (n,):
        raise InvariantError(f"labels shape {y.shape} does not match batch {n}")
    if (y < 0).any() or (y >= classes).any():
        bad = int(y[(y < 0) | (y >= classes)][0])
        raise InvariantError(f"label {bad} out of range [0, {classes})")
    # log-softmax computed directly for accuracy at extreme margins
    z = la - la.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -float(np.take_along_axis(logp, y[:, None], axis=1).mean())
    dlogits = kernels.softmax(la)
    np.subtract.at(dlogits, (np.arange(n), y), 1.0)
    dlogits /= n
    return loss, Tensor._wrap(dlogits)
