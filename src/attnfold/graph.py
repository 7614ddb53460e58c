"""Ordered layer graphs with named parameter slots and attention attachment
points, plus shape validation and parameter initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attention import AsrSlot, AttnModule, init_tensor
from .errors import FormatError, GraphError, require_keys, require_types
from .kernels import conv_output_hw

# Layer kind -> the attrs its nodes must carry, with their JSON types.
LAYER_ATTRS = {"input": {}, "relu": {}, "gap": {}, "maxpool2": {}, "add": {},
               "conv": dict.fromkeys(("in_ch", "out_ch", "kh", "kw", "stride", "padding"), int),
               "bn": {"channels": int}, "linear": {"in_dim": int, "out_dim": int},
               "asr": {"slot": str}, "attn": {"module": str}}
LAYER_KINDS = tuple(LAYER_ATTRS)

BN_MOMENTUM = 0.9  # running <- momentum*running + (1-momentum)*batch
BN_EPS = 1e-5


@dataclass
class LayerNode:
    name: str
    kind: str
    inputs: list[str] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "inputs": list(self.inputs), "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, d: dict) -> "LayerNode":
        require_keys(d, ("name", "kind", "inputs", "attrs"), "graph node")
        require_types(d, {"name": str, "kind": str, "inputs": list, "attrs": dict},
                      "graph node")
        attrs = LAYER_ATTRS.get(d["kind"], {})
        what = f"attrs of {d['kind']} node {d['name']!r}"
        require_keys(d["attrs"], tuple(attrs), what)
        require_types(d["attrs"], attrs, what)
        require_types(d, {"inputs": list[str]}, f"graph node {d['name']!r}")
        return cls(name=d["name"], kind=d["kind"],
                   inputs=list(d["inputs"]), attrs=dict(d["attrs"]))


@dataclass
class ModelGraph:
    nodes: list[LayerNode]
    slots: dict[str, AsrSlot] = field(default_factory=dict)
    modules: dict[str, AttnModule] = field(default_factory=dict)
    input_shape: tuple[int, ...] = ()   # per-sample shape
    classes: int = 0
    meta: dict = field(default_factory=dict)

    def node(self, name: str) -> LayerNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise GraphError(f"no node named {name!r}")

    @property
    def output_name(self) -> str:
        return self.nodes[-1].name

    def to_dict(self) -> dict:
        return {
            "nodes": [n.to_dict() for n in self.nodes],
            "slots": {k: s.to_dict() for k, s in sorted(self.slots.items())},
            "modules": {k: m.to_dict() for k, m in sorted(self.modules.items())},
            "input_shape": list(self.input_shape),
            "classes": self.classes,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelGraph":
        return cls.from_dict_walk(d)[0]

    @classmethod
    def from_dict_walk(cls, d: dict) -> tuple["ModelGraph", dict]:
        """`from_dict`, plus the graph's `layer_walk`, which validation computes."""
        require_keys(d, ("nodes", "slots", "modules", "input_shape", "classes", "meta"),
                     "graph")
        require_types(d, {"nodes": list, "slots": dict, "modules": dict,
                          "input_shape": list[int], "classes": int, "meta": dict}, "graph")
        g = cls(nodes=[LayerNode.from_dict(n) for n in d["nodes"]],
                slots={k: AsrSlot.from_dict(s) for k, s in d["slots"].items()},
                modules={k: AttnModule.from_dict(m) for k, m in d["modules"].items()},
                input_shape=tuple(d["input_shape"]),
                classes=d["classes"], meta=dict(d["meta"]))
        walk = validate_graph(g)
        out = walk[g.output_name][0]
        if g.classes < 1 or out[-1:] != (g.classes,):
            raise FormatError(f"graph key 'classes' is {g.classes}, but it must be >= 1 "
                              f"and equal the last dimension of output node "
                              f"{g.output_name!r} of shape {out}")
        return g, walk


def layer_walk(graph: ModelGraph) -> dict[str, tuple[tuple[int, ...], dict, int]]:
    """Per node, in order: (per-sample output shape, {tensor name: shape} of
    the parameters and then the state it owns, MACs per sample). Raises
    GraphError on a mismatch."""
    if not graph.nodes or graph.nodes[0].kind != "input":
        raise GraphError("graph must start with an input node")
    walk = {graph.nodes[0].name: (tuple(graph.input_shape), {}, 0)}
    for node in graph.nodes[1:]:
        if node.name in walk:
            raise GraphError(f"duplicate node name {node.name!r}")
        for i in node.inputs:
            if i not in walk:
                raise GraphError(f"node {node.name!r} reads {i!r} before it is defined")
        walk[node.name] = _layer(graph, node, [walk[i][0] for i in node.inputs])
    return walk


def infer_shapes(graph: ModelGraph) -> dict[str, tuple[int, ...]]:
    """Per-sample output shape of every node; raises GraphError on mismatch."""
    return {name: shape for name, (shape, _, _) in layer_walk(graph).items()}


def _layer(graph: ModelGraph, node: LayerNode,
           ins: list[tuple[int, ...]]) -> tuple[tuple[int, ...], dict, int]:
    kind, a, name = node.kind, node.attrs, node.name
    if kind == "input":
        raise GraphError("only the first node may be an input node")
    if kind != "add" and len(ins) != 1:
        raise GraphError(f"node {name!r} expects one input, got {len(ins)}")
    s = ins[0]
    if kind == "conv":
        if len(s) != 3:
            raise GraphError(f"conv {name!r} needs a [C,H,W] input, got {s}")
        if s[0] != a["in_ch"]:
            raise GraphError(f"conv {name!r} expects {a['in_ch']} channels, got {s[0]}")
        for key, low in (("stride", 1), ("kh", 1), ("kw", 1), ("padding", 0)):
            if a[key] < low:
                raise GraphError(f"conv {name!r} attr {key!r} must be >= {low}, "
                                 f"got {a[key]}")
        oh, ow = conv_output_hw(s[1], s[2], a["kh"], a["kw"], a["stride"], a["padding"])
        if oh < 1 or ow < 1:
            raise GraphError(f"conv {name!r} output dims ({oh},{ow}) not positive")
        return ((a["out_ch"], oh, ow),
                {f"{name}.k": (a["out_ch"], a["in_ch"], a["kh"], a["kw"]),
                 f"{name}.b": (a["out_ch"],)},
                a["out_ch"] * a["in_ch"] * a["kh"] * a["kw"] * oh * ow)
    if kind == "bn":
        if s[0] != a["channels"]:
            raise GraphError(f"bn {name!r} expects {a['channels']} channels, got {s[0]}")
        return s, {f"{name}.{t}": (a["channels"],)
                   for t in ("gamma", "beta", "running_mean", "running_var")}, 0
    if kind == "relu":
        return s, {}, 0
    if kind == "linear":
        if len(s) != 1:
            raise GraphError(f"linear {name!r} needs a flat input, got {s}")
        if s[0] != a["in_dim"]:
            raise GraphError(f"linear {name!r} expects dim {a['in_dim']}, got {s[0]}")
        return ((a["out_dim"],),
                {f"{name}.w": (a["out_dim"], a["in_dim"]), f"{name}.b": (a["out_dim"],)},
                a["out_dim"] * a["in_dim"])
    if kind == "gap":
        if len(s) != 3:
            raise GraphError(f"gap {name!r} needs a [C,H,W] input, got {s}")
        return (s[0],), {}, 0
    if kind == "maxpool2":
        if len(s) != 3 or s[1] % 2 or s[2] % 2:
            raise GraphError(f"maxpool2 {name!r} needs even [C,H,W] dims, got {s}")
        return (s[0], s[1] // 2, s[2] // 2), {}, 0
    if kind == "add":
        if len(ins) != 2 or ins[0] != ins[1]:
            raise GraphError(f"add {name!r} needs two equal-shaped inputs, got {ins}")
        return s, {}, 0
    if kind in ("asr", "attn"):
        ref, table = ("slot", graph.slots) if kind == "asr" else ("module", graph.modules)
        att = table.get(a.get(ref))
        if att is None:
            raise GraphError(f"{kind} node {name!r} references unknown {ref} {a.get(ref)!r}")
        if kind == "attn" and len(s) != 3:
            raise GraphError(f"attn {name!r} needs a [C,H,W] input, got {s}")
        if s[0] != att.channels:
            raise GraphError(f"{ref} {att.ident} covers {att.channels} channels, "
                             f"input has {s[0]}")
        shapes = att.kind.param_shapes(att.channels)
        tensors = {tensor: shapes[role] for role, tensor in att.param_names.items()}
        if kind == "asr":
            tensors[att.psi_name] = (att.psi_dim,)
        return s, tensors, 0
    raise GraphError(f"unknown layer kind {kind!r} in node {name!r}")


def validate_graph(graph: ModelGraph) -> dict[str, tuple[tuple[int, ...], dict, int]]:
    """Check the graph; returns its `layer_walk`, so a caller walks it once."""
    for node in graph.nodes:
        if node.kind not in LAYER_KINDS:
            raise GraphError(f"unknown layer kind {node.kind!r} in node {node.name!r}")
        for ch in node.name:
            if ch.isspace():
                raise GraphError(f"node name {node.name!r} contains whitespace")
    walk = layer_walk(graph)
    for kind, ref, table in (("asr", "slot", graph.slots), ("attn", "module", graph.modules)):
        referenced = {n.attrs[ref] for n in graph.nodes if n.kind == kind}
        if referenced != set(table):
            raise GraphError(f"{ref} references {sorted(referenced)} do not match "
                             f"declared {ref}s {sorted(table)}")
    # Tensor names derive from the ids, so an id must be its key and unique.
    for key, att in [*graph.slots.items(), *graph.modules.items()]:
        if key != att.ident:
            raise GraphError(f"attention entry {key!r} declares id {att.ident!r}; they must match")
    if set(graph.slots) & set(graph.modules):
        raise GraphError(f"ids {sorted(set(graph.slots) & set(graph.modules))} name both "
                         f"a slot and a module")
    return walk


def all_param_shapes(graph: ModelGraph, walk: dict | None = None
                     ) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
    """(trainable, state) shape maps for the whole graph, in node order; BN
    running statistics are the state. `walk` is the graph's `layer_walk`,
    computed here when not given."""
    trainable: dict[str, tuple[int, ...]] = {}
    state: dict[str, tuple[int, ...]] = {}
    for _, tensors, _ in (walk or layer_walk(graph)).values():
        for name, shape in tensors.items():
            into = state if name.endswith((".running_mean", ".running_var")) else trainable
            into[name] = shape
    return trainable, state


def count_params(graph: ModelGraph) -> int:
    """Total trainable parameter elements (BN running stats excluded)."""
    trainable, _ = all_param_shapes(graph)
    return sum(int(np.prod(s)) for s in trainable.values())


def count_flops_conv(graph: ModelGraph, input_shape: tuple[int, ...] | None = None) -> int:
    """Multiply-accumulate count of conv and linear layer nodes per sample.

    Attention-body arithmetic is not included; it is O(C^2) against the
    convolutions' O(C^2 * H * W * K^2).
    """
    g = graph if input_shape is None else replace(graph, input_shape=tuple(input_shape))
    return sum(macs for _, _, macs in layer_walk(g).values())


def init_params(graph: ModelGraph, seed: int):
    """Seeded initialization of every tensor the graph declares, in node order.

    Each tensor's value follows from its role (`attention.init_tensor`); a
    slot's psi follows its psi mode. Returns a ParamSet (imported lazily to
    keep module layering acyclic).
    """
    from .autodiff import ParamSet

    walk = validate_graph(graph)
    rng = np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    for _, tensors, _ in walk.values():
        for name, shape in tensors.items():
            owner, _, role = name.rpartition(".")
            values[name] = (graph.slots[owner].init_psi() if role == "psi"
                            else init_tensor(role, shape, rng))
    return ParamSet(values=values, trainable=trainable_names(graph, walk))


def remove_node(graph: ModelGraph, params, name: str) -> None:
    """Delete a single-input node in place: its consumers read its input
    instead, and the tensors it owns and its slot or module go with it."""
    node = graph.node(name)
    if len(node.inputs) != 1:
        raise GraphError(f"node {name!r} has {len(node.inputs)} inputs; only a "
                         f"single-input node can be removed")
    for tensor in layer_walk(graph)[name][1]:
        params.values.pop(tensor, None)
        params.trainable.discard(tensor)
    graph.slots.pop(node.attrs.get("slot"), None)
    graph.modules.pop(node.attrs.get("module"), None)
    graph.nodes = [n for n in graph.nodes if n is not node]
    for n in graph.nodes:
        n.inputs = [node.inputs[0] if i == name else i for i in n.inputs]


def trainable_names(graph: ModelGraph, walk: dict | None = None) -> set[str]:
    """The parameter names a fresh init would mark trainable (`walk` as in
    `all_param_shapes`)."""
    frozen = {s.psi_name for s in graph.slots.values() if not s.psi_trainable}
    return set(all_param_shapes(graph, walk)[0]) - frozen
