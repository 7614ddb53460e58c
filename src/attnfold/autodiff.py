"""Reverse-mode differentiation over the fixed layer-node set.

A forward pass in train mode records a tape of per-node backward rules;
backward walks it in reverse and accumulates gradients into the ParamSet.
In both modes a node's output is released once its last consumer has run.
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
    back: object                 # dy -> (input grads, param grads by name)


@dataclass
class Tape:
    """What a forward pass leaves behind.

    `values` holds the output node's value plus those of the nodes named in
    `forward(keep=...)`; every other activation was released after its last
    consumer ran. `entries` (train mode only) holds each node's backward
    rule, which is all `backward` reads besides the output's shape.
    """

    mode: str
    graph: ModelGraph
    params: ParamSet
    values: dict[str, np.ndarray]
    entries: list[TapeNode]


def forward(graph: ModelGraph, params: ParamSet, x, mode: str = "eval", *,
            keep=(), hook=None) -> tuple[Tensor, Tape]:
    """Evaluate the graph on a batch x of shape [N, *input_shape].

    In train mode BN uses batch statistics and updates the running state;
    eval mode uses the running state. Each node's value is dropped as soon
    as its last consumer has run, so the returned `tape.values` holds only
    the output and the nodes named in `keep`: a caller that reads an
    intermediate activation declares it there (an unknown name raises
    GraphError). `hook(node, m)` (eval mode only; train mode raises
    InvariantError) sees the modulation a node applies and returns the one
    to apply: an asr or attn node passes its vector v ([C] for a slot,
    [N, C] for a module) and a returned object other than v scales x in its
    place; a bn node passes None, and a returned (scale, shift) maps its
    normalized activation xhat to xhat * scale + shift.
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
    if train and hook is not None:
        raise InvariantError("a forward hook is eval-only; train mode takes none")
    for pos, node in enumerate(nodes[1:], 1):
        ins = [values[i] for i in node.inputs]
        try:
            values[node.name], back = _node_forward(graph, params, node, ins, train, hook)
        except GraphError:
            raise
        except ValueError as exc:
            raise GraphError(f"layer {node.name!r}: {exc}") from exc
        for name in release[pos]:
            values.pop(name, None)
        if train:
            entries.append(TapeNode(node=node, back=back))
        # Drop the locals too, so a released input or an eval-mode rule
        # does not live on through the next node.
        del ins, back
    logits = values[graph.output_name]
    return Tensor._wrap(logits), Tape(mode=mode, graph=graph, params=params,
                                      values=values, entries=entries)


def _node_forward(graph, params, node, ins, train, hook):
    """A node's output and its backward rule `back(dy) -> (input grads, param
    grads by name)`; eval-mode BN has no rule (None)."""
    kind, name, a = node.kind, node.name, node.attrs
    x = ins[0]
    vals = params.values
    if kind == "conv":
        k = vals[f"{name}.k"]
        y, cache = kernels.conv2d_forward(x, k, vals[f"{name}.b"], a["stride"], a["padding"])

        def back(dy):
            dx, dk, db = kernels.conv2d_backward(dy, k, cache)
            return [dx], {f"{name}.k": dk, f"{name}.b": db}
        return y, back
    if kind == "bn":
        gamma, beta = vals[f"{name}.gamma"], vals[f"{name}.beta"]
        rm, rv = f"{name}.running_mean", f"{name}.running_var"
        if not train:
            return kernels.batchnorm_eval_forward(
                x, vals[rm], vals[rv], gamma, beta, BN_EPS,
                noise=None if hook is None else hook(node, None)), None
        y, cache, mean, var = kernels.batchnorm_train_forward(x, gamma, beta, BN_EPS)
        m = x.size // x.shape[1]
        unbiased = var * (m / (m - 1)) if m > 1 else var
        vals[rm] = BN_MOMENTUM * vals[rm] + (1 - BN_MOMENTUM) * mean
        vals[rv] = BN_MOMENTUM * vals[rv] + (1 - BN_MOMENTUM) * unbiased

        def back(dy):
            dx, dgamma, dbeta = kernels.batchnorm_train_backward(dy, cache)
            return [dx], {f"{name}.gamma": dgamma, f"{name}.beta": dbeta}
        return y, back
    if kind == "relu":
        return kernels.relu(x), lambda dy: ([dy * kernels.relu_grad(x)], {})
    if kind == "linear":
        w = vals[f"{name}.w"]

        def back(dy):
            dx, dw, db = kernels.linear_backward(dy, x, w)
            return [dx], {f"{name}.w": dw, f"{name}.b": db}
        return kernels.linear_forward(x, w, vals[f"{name}.b"]), back
    if kind == "gap":
        x_shape = x.shape   # the rule keeps the shape only, not the activation
        return kernels.gap_forward(x), lambda dy: ([kernels.gap_backward(dy, x_shape)], {})
    if kind == "maxpool2":
        y, cache = kernels.maxpool2_forward(x)
        return y, lambda dy: ([kernels.maxpool2_backward(dy, cache)], {})
    if kind == "add":
        return ins[0] + ins[1], lambda dy: ([dy, dy], {})
    if kind == "asr":
        slot = graph.slots[a["slot"]]
        y, v, cache = attention.asr_apply_raw(slot, vals, x)

        def back(dy):
            dx, dpsi, dp = attention.asr_backward_raw(slot, vals, cache, dy)
            grads = {f"{slot.slot_id}.{role}": g for role, g in dp.items()}
            grads[slot.psi_name] = dpsi
            return [dx], grads
    elif kind == "attn":
        mod = graph.modules[a["module"]]
        p = mod.gather(vals)
        y, v, cache = attention.attn_forward_raw(mod.kind, mod.channels, p, x)

        def back(dy):
            dx, dp = attention.attn_backward_raw(mod.kind, mod.channels, p, cache, dy)
            return [dx], {f"{mod.module_id}.{role}": g for role, g in dp.items()}
    else:
        raise GraphError(f"unknown layer kind {kind!r} in node {name!r}")
    if hook is not None:
        w = hook(node, v)
        if w is not v:
            y = kernels.channel_scale(x, w)
    return y, back


def recorder(into: dict):
    """A hook that stores each asr or attn node's vector in `into` by node name."""
    def hook(node, m):
        if m is not None:
            into[node.name] = m
        return m
    return hook


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
        dins, dparams = entry.back(dy)
        for iname, dx in zip(node.inputs, dins):
            if iname in dvals:
                dvals[iname] = dvals[iname] + dx
            else:
                dvals[iname] = dx
        for pname, g in dparams.items():
            params.add_grad(pname, g)
    return params


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
