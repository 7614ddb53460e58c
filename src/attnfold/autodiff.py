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
from .tensor import Tensor, as_array, immutable_memo


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


@dataclass
class TapeNode:
    node: object                 # the LayerNode evaluated
    back: object                 # dy -> (input grads, param grads by name); a conv
                                 # on the graph input gives no input grad


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

    In eval mode a step may write its output into an input it owns: the
    value of an earlier node of this forward (never x, the caller's array)
    that is not named in `keep`, is not the output, and has this node as its
    last reader. BN, ReLU, `add` and slot and attention scaling do so, with
    the same bits as into a fresh array; conv, linear and pooling outputs are
    fresh. Train mode writes no input, since its backward rules hold them.

    Each call compiles one step per node (`_compile`) from the graph as it
    stands, so any rewrite is seen. A slot whose psi and body tensors are all
    held in immutable `bytes` (a loaded checkpoint) computes its eval-mode
    vector once (`tensor.immutable_memo`); the vector is read-only.
    """
    if mode not in ("train", "eval"):
        raise InvariantError(f"mode must be 'train' or 'eval', got {mode!r}")
    xa = as_array(x)
    if xa.shape[1:] != tuple(graph.input_shape):
        raise GraphError(f"input shape {xa.shape[1:]} does not match graph input "
                         f"{tuple(graph.input_shape)}")
    nodes = graph.nodes
    steps = [_compile(graph, node) for node in nodes[1:]]
    # Per node, the values it is the last consumer of, bar the kept ones.
    kept = {*keep, graph.output_name}
    last_use: dict[str, int] = {}
    for pos, node in enumerate(nodes):
        last_use[node.name] = pos
        last_use.update(dict.fromkeys(node.inputs, pos))
    unknown = sorted(kept - last_use.keys())
    if unknown:
        raise GraphError(f"keep names unknown node {unknown[0]!r}")
    train = mode == "train"
    if train and hook is not None:
        raise InvariantError("a forward hook is eval-only; train mode takes none")
    release: list[list[str]] = [[] for _ in nodes]
    # Per node, in eval mode, an input it owns (see above): one it releases
    # that is neither its own unread value nor the caller's x.
    owned: list[str | None] = [None] * len(nodes)
    for name, pos in last_use.items():
        if name not in kept:
            release[pos].append(name)
            if not train and name not in (nodes[pos].name, nodes[0].name):
                owned[pos] = name
    vals = params.values
    values: dict[str, np.ndarray] = {nodes[0].name: xa}
    entries: list[TapeNode] = []
    for node, step, dead, own in zip(nodes[1:], steps, release[1:], owned[1:]):
        ins = [values[i] for i in node.inputs]
        try:
            values[node.name], back = step(vals, ins, train, hook,
                                           None if own is None else values[own])
        except GraphError:
            raise
        except ValueError as exc:
            raise GraphError(f"layer {node.name!r}: {exc}") from exc
        for name in dead:
            values.pop(name, None)
        if train:
            entries.append(TapeNode(node=node, back=back))
        # Drop the local list too, so a released input does not live on
        # through the next node.
        del ins
    logits = values[graph.output_name]
    return Tensor._wrap(logits), Tape(mode=mode, graph=graph, params=params,
                                      values=values, entries=entries)


def _compile(graph: ModelGraph, node):
    """A node's step `step(vals, ins, train, hook, spare) -> (y, back)`: vals
    are the parameter values by name, ins the input values, spare the input
    array the step may write its output into (eval mode only; else None),
    and back the backward rule `back(dy) -> (input grads, param grads by
    name)` in train mode, None in eval mode, where no rule is built."""
    kind, name, a = node.kind, node.name, node.attrs
    if kind == "conv":
        k_name, b_name, stride, padding = f"{name}.k", f"{name}.b", a["stride"], a["padding"]
        # `backward` drops the gradient of the graph input: a conv fed by it
        # takes dk and db alone.
        need_dx = node.inputs[0] != graph.nodes[0].name

        def step(vals, ins, train, hook, spare):
            k = vals[k_name]
            y, cache = kernels.conv2d_forward(ins[0], k, vals[b_name], stride, padding, train)
            return y, _rule(_conv_back, k, cache, k_name, b_name, need_dx) if train else None
        return step
    if kind == "bn":
        g_name, b_name, rm, rv = (f"{name}.{t}" for t in
                                  ("gamma", "beta", "running_mean", "running_var"))

        def step(vals, ins, train, hook, spare):
            x, gamma, beta = ins[0], vals[g_name], vals[b_name]
            if not train:
                return kernels.batchnorm_eval_forward(
                    x, vals[rm], vals[rv], gamma, beta, BN_EPS,
                    noise=None if hook is None else hook(node, None), out=spare), None
            y, cache, mean, var = kernels.batchnorm_train_forward(x, gamma, beta, BN_EPS)
            m = x.size // x.shape[1]
            unbiased = var * (m / (m - 1)) if m > 1 else var
            vals[rm] = BN_MOMENTUM * vals[rm] + (1 - BN_MOMENTUM) * mean
            vals[rv] = BN_MOMENTUM * vals[rv] + (1 - BN_MOMENTUM) * unbiased
            return y, _rule(_bn_back, cache, g_name, b_name)
        return step
    if kind == "relu":
        return lambda vals, ins, train, hook, spare: (
            kernels.relu(ins[0], out=spare), _rule(_relu_back, ins[0]) if train else None)
    if kind == "linear":
        w_name, b_name = f"{name}.w", f"{name}.b"

        def step(vals, ins, train, hook, spare):
            x, w = ins[0], vals[w_name]
            return (kernels.linear_forward(x, w, vals[b_name]),
                    _rule(_linear_back, x, w, w_name, b_name) if train else None)
        return step
    if kind == "gap":
        # The rule keeps the shape only, not the activation.
        return lambda vals, ins, train, hook, spare: (
            kernels.gap_forward(ins[0]), _rule(_gap_back, ins[0].shape) if train else None)
    if kind == "maxpool2":
        def step(vals, ins, train, hook, spare):
            y, cache = kernels.maxpool2_forward(ins[0])
            return y, _rule(_maxpool2_back, cache) if train else None
        return step
    if kind == "add":
        return lambda vals, ins, train, hook, spare: (
            np.add(ins[0], ins[1], out=spare), _add_back if train else None)
    if kind == "asr":
        slot = graph.slots[a["slot"]]

        def step(vals, ins, train, hook, spare):
            x = ins[0]
            if train:
                y, _, cache = attention.asr_apply_raw(slot, vals, x)
                return y, _rule(_asr_back, slot, cache)
            v = _slot_vector(slot, vals)
            return kernels.channel_scale(x, v if hook is None else hook(node, v), out=spare), None
        return step
    if kind == "attn":
        mod = graph.modules[a["module"]]

        def step(vals, ins, train, hook, spare):
            y, _, cache = attention.attn_forward_raw(
                mod.kind, mod.channels, mod.gather(vals), ins[0],
                None if hook is None else lambda v: hook(node, v), out=spare)
            return y, _rule(_attn_back, mod, cache) if train else None
        return step
    raise GraphError(f"unknown layer kind {kind!r} in node {name!r}")


def _slot_vector(slot, vals) -> np.ndarray:
    """A slot's eval-mode vector, read-only; memoised for immutable tensors."""
    def compute():
        v = attention.asr_vector_raw(slot, vals)[0]
        v.flags.writeable = False
        return v
    arrays = (vals[slot.psi_name], *slot.gather(vals).values())
    return immutable_memo(("asr", slot.kind, slot.channels), arrays, compute)


def _rule(back, *state):
    """The backward rule `dy -> back(dy, *state)` of one node's forward
    state; a step builds it in train mode only."""
    return lambda dy: back(dy, *state)


def _conv_back(dy, k, cache, k_name, b_name, need_dx):
    dx, dk, db = kernels.conv2d_backward(dy, k, cache, need_dx)
    return [dx] if need_dx else [], {k_name: dk, b_name: db}


def _bn_back(dy, cache, g_name, b_name):
    dx, dgamma, dbeta = kernels.batchnorm_train_backward(dy, cache)
    return [dx], {g_name: dgamma, b_name: dbeta}


def _relu_back(dy, x):
    return [dy * kernels.relu_grad(x)], {}


def _linear_back(dy, x, w, w_name, b_name):
    dx, dw, db = kernels.linear_backward(dy, x, w)
    return [dx], {w_name: dw, b_name: db}


def _gap_back(dy, x_shape):
    return [kernels.gap_backward(dy, x_shape)], {}


def _maxpool2_back(dy, cache):
    return [kernels.maxpool2_backward(dy, cache)], {}


def _add_back(dy):
    return [dy, dy], {}


def _asr_back(dy, slot, cache):
    dx, dpsi, dp = attention.asr_backward_raw(cache, dy)
    names = slot.param_names
    grads = {names[role]: g for role, g in dp.items()}
    grads[slot.psi_name] = dpsi
    return [dx], grads


def _attn_back(dy, mod, cache):
    dx, dp = attention.attn_backward_raw(cache, dy)
    names = mod.param_names
    return [dx], {names[role]: g for role, g in dp.items()}


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
