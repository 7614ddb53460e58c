"""Ordered layer graphs with named parameter slots and attention attachment
points, plus shape validation and parameter initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AsrSlot, AttnModule, init_attention_params
from .errors import FormatError, GraphError, require_keys, require_types

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
        inputs = {f"inputs[{i}]": v for i, v in enumerate(d["inputs"])}
        require_types(inputs, dict.fromkeys(inputs, str), f"graph node {d['name']!r}")
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
        require_keys(d, ("nodes", "slots", "modules", "input_shape", "classes", "meta"),
                     "graph")
        require_types(d, {"nodes": list, "slots": dict, "modules": dict,
                          "input_shape": list, "classes": int, "meta": dict}, "graph")
        dims = {f"input_shape[{i}]": v for i, v in enumerate(d["input_shape"])}
        require_types(dims, dict.fromkeys(dims, int), "graph")
        g = cls(nodes=[LayerNode.from_dict(n) for n in d["nodes"]],
                slots={k: AsrSlot.from_dict(s) for k, s in d["slots"].items()},
                modules={k: AttnModule.from_dict(m) for k, m in d["modules"].items()},
                input_shape=tuple(d["input_shape"]),
                classes=d["classes"], meta=dict(d["meta"]))
        validate_graph(g)
        out = infer_shapes(g)[g.output_name]
        if g.classes < 1 or out[-1:] != (g.classes,):
            raise FormatError(f"graph key 'classes' is {g.classes}, but it must be >= 1 "
                              f"and equal the last dimension of output node "
                              f"{g.output_name!r} of shape {out}")
        return g


def node_param_shapes(graph: ModelGraph, node: LayerNode) -> dict[str, tuple[int, ...]]:
    """Trainable parameter names and shapes owned by a layer node."""
    a = node.attrs
    if node.kind == "conv":
        return {f"{node.name}.k": (a["out_ch"], a["in_ch"], a["kh"], a["kw"]),
                f"{node.name}.b": (a["out_ch"],)}
    if node.kind == "bn":
        return {f"{node.name}.gamma": (a["channels"],),
                f"{node.name}.beta": (a["channels"],)}
    if node.kind == "linear":
        return {f"{node.name}.w": (a["out_dim"], a["in_dim"]),
                f"{node.name}.b": (a["out_dim"],)}
    if node.kind == "asr":
        slot = graph.slots[a["slot"]]
        shapes = {f"{slot.slot_id}.{role}": shape
                  for role, shape in slot.kind.param_shapes(slot.channels).items()}
        shapes[slot.psi_name] = (slot.psi_dim,)
        return shapes
    if node.kind == "attn":
        mod = graph.modules[a["module"]]
        return {f"{mod.module_id}.{role}": shape
                for role, shape in mod.kind.param_shapes(mod.channels).items()}
    return {}


def node_state_shapes(node: LayerNode) -> dict[str, tuple[int, ...]]:
    """Non-trainable state (BN running statistics)."""
    if node.kind == "bn":
        c = node.attrs["channels"]
        return {f"{node.name}.running_mean": (c,), f"{node.name}.running_var": (c,)}
    return {}


def infer_shapes(graph: ModelGraph) -> dict[str, tuple[int, ...]]:
    """Per-sample output shape of every node; raises GraphError on mismatch."""
    shapes: dict[str, tuple[int, ...]] = {}
    if not graph.nodes or graph.nodes[0].kind != "input":
        raise GraphError("graph must start with an input node")
    shapes[graph.nodes[0].name] = tuple(graph.input_shape)
    seen = {graph.nodes[0].name}
    for node in graph.nodes[1:]:
        if node.name in seen:
            raise GraphError(f"duplicate node name {node.name!r}")
        for i in node.inputs:
            if i not in seen:
                raise GraphError(f"node {node.name!r} reads {i!r} before it is defined")
        ins = [shapes[i] for i in node.inputs]
        shapes[node.name] = _node_output_shape(graph, node, ins)
        seen.add(node.name)
    return shapes


def _node_output_shape(graph: ModelGraph, node: LayerNode,
                       ins: list[tuple[int, ...]]) -> tuple[int, ...]:
    kind, a = node.kind, node.attrs
    if kind == "input":
        raise GraphError("only the first node may be an input node")
    if kind != "add" and len(ins) != 1:
        raise GraphError(f"node {node.name!r} expects one input, got {len(ins)}")
    s = ins[0]
    if kind == "conv":
        if len(s) != 3:
            raise GraphError(f"conv {node.name!r} needs a [C,H,W] input, got {s}")
        if s[0] != a["in_ch"]:
            raise GraphError(f"conv {node.name!r} expects {a['in_ch']} channels, got {s[0]}")
        for key, low in (("stride", 1), ("kh", 1), ("kw", 1), ("padding", 0)):
            if a[key] < low:
                raise GraphError(f"conv {node.name!r} attr {key!r} must be >= {low}, "
                                 f"got {a[key]}")
        oh = (s[1] + 2 * a["padding"] - a["kh"]) // a["stride"] + 1
        ow = (s[2] + 2 * a["padding"] - a["kw"]) // a["stride"] + 1
        if oh < 1 or ow < 1:
            raise GraphError(f"conv {node.name!r} output dims ({oh},{ow}) not positive")
        return (a["out_ch"], oh, ow)
    if kind == "bn":
        if s[0] != a["channels"]:
            raise GraphError(f"bn {node.name!r} expects {a['channels']} channels, got {s[0]}")
        return s
    if kind == "relu":
        return s
    if kind == "linear":
        if len(s) != 1:
            raise GraphError(f"linear {node.name!r} needs a flat input, got {s}")
        if s[0] != a["in_dim"]:
            raise GraphError(f"linear {node.name!r} expects dim {a['in_dim']}, got {s[0]}")
        return (a["out_dim"],)
    if kind == "gap":
        if len(s) != 3:
            raise GraphError(f"gap {node.name!r} needs a [C,H,W] input, got {s}")
        return (s[0],)
    if kind == "maxpool2":
        if len(s) != 3 or s[1] % 2 or s[2] % 2:
            raise GraphError(f"maxpool2 {node.name!r} needs even [C,H,W] dims, got {s}")
        return (s[0], s[1] // 2, s[2] // 2)
    if kind == "add":
        if len(ins) != 2 or ins[0] != ins[1]:
            raise GraphError(f"add {node.name!r} needs two equal-shaped inputs, got {ins}")
        return s
    if kind == "asr":
        slot = graph.slots.get(a.get("slot"))
        if slot is None:
            raise GraphError(f"asr node {node.name!r} references unknown slot {a.get('slot')!r}")
        if s[0] != slot.channels:
            raise GraphError(f"slot {slot.slot_id} covers {slot.channels} channels, "
                             f"input has {s[0]}")
        return s
    if kind == "attn":
        mod = graph.modules.get(a.get("module"))
        if mod is None:
            raise GraphError(f"attn node {node.name!r} references unknown module "
                             f"{a.get('module')!r}")
        if len(s) != 3:
            raise GraphError(f"attn {node.name!r} needs a [C,H,W] input, got {s}")
        if s[0] != mod.channels:
            raise GraphError(f"module {mod.module_id} covers {mod.channels} channels, "
                             f"input has {s[0]}")
        return s
    raise GraphError(f"unknown layer kind {kind!r} in node {node.name!r}")


def validate_graph(graph: ModelGraph) -> None:
    for node in graph.nodes:
        if node.kind not in LAYER_KINDS:
            raise GraphError(f"unknown layer kind {node.kind!r} in node {node.name!r}")
        for ch in node.name:
            if ch.isspace():
                raise GraphError(f"node name {node.name!r} contains whitespace")
    infer_shapes(graph)
    referenced = {n.attrs["slot"] for n in graph.nodes if n.kind == "asr"}
    if referenced != set(graph.slots):
        raise GraphError(f"slot references {sorted(referenced)} do not match "
                         f"declared slots {sorted(graph.slots)}")
    refmods = {n.attrs["module"] for n in graph.nodes if n.kind == "attn"}
    if refmods != set(graph.modules):
        raise GraphError(f"module references {sorted(refmods)} do not match "
                         f"declared modules {sorted(graph.modules)}")


def all_param_shapes(graph: ModelGraph) -> tuple[dict[str, tuple[int, ...]],
                                                 dict[str, tuple[int, ...]]]:
    """(trainable, state) shape maps for the whole graph, in node order."""
    trainable: dict[str, tuple[int, ...]] = {}
    state: dict[str, tuple[int, ...]] = {}
    for node in graph.nodes:
        trainable.update(node_param_shapes(graph, node))
        state.update(node_state_shapes(node))
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
    if input_shape is not None and tuple(input_shape) != tuple(graph.input_shape):
        g = ModelGraph(nodes=graph.nodes, slots=graph.slots, modules=graph.modules,
                       input_shape=tuple(input_shape), classes=graph.classes,
                       meta=graph.meta)
    else:
        g = graph
    shapes = infer_shapes(g)
    macs = 0
    for node in g.nodes:
        a = node.attrs
        if node.kind == "conv":
            _, oh, ow = shapes[node.name]
            macs += a["out_ch"] * a["in_ch"] * a["kh"] * a["kw"] * oh * ow
        elif node.kind == "linear":
            macs += a["out_dim"] * a["in_dim"]
    return macs


def init_params(graph: ModelGraph, seed: int):
    """Seeded He-style initialization for every parameter the graph declares.

    Returns a ParamSet (imported lazily to keep module layering acyclic).
    """
    from .autodiff import ParamSet

    validate_graph(graph)
    rng = np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    trainable: set[str] = set()
    for node in graph.nodes:
        a = node.attrs
        if node.kind == "conv":
            fan_in = a["in_ch"] * a["kh"] * a["kw"]
            values[f"{node.name}.k"] = rng.standard_normal(
                (a["out_ch"], a["in_ch"], a["kh"], a["kw"])) * np.sqrt(2.0 / fan_in)
            values[f"{node.name}.b"] = np.zeros(a["out_ch"])
            trainable |= {f"{node.name}.k", f"{node.name}.b"}
        elif node.kind == "bn":
            c = a["channels"]
            values[f"{node.name}.gamma"] = np.ones(c)
            values[f"{node.name}.beta"] = np.zeros(c)
            values[f"{node.name}.running_mean"] = np.zeros(c)
            values[f"{node.name}.running_var"] = np.ones(c)
            trainable |= {f"{node.name}.gamma", f"{node.name}.beta"}
        elif node.kind == "linear":
            values[f"{node.name}.w"] = rng.standard_normal(
                (a["out_dim"], a["in_dim"])) * np.sqrt(2.0 / a["in_dim"])
            values[f"{node.name}.b"] = np.zeros(a["out_dim"])
            trainable |= {f"{node.name}.w", f"{node.name}.b"}
        elif node.kind == "asr":
            slot = graph.slots[a["slot"]]
            for role, arr in init_attention_params(slot.kind, slot.channels, rng).items():
                name = f"{slot.slot_id}.{role}"
                values[name] = arr
                trainable.add(name)
            values[slot.psi_name] = slot.init_psi()
            if slot.psi_trainable:
                trainable.add(slot.psi_name)
        elif node.kind == "attn":
            mod = graph.modules[a["module"]]
            for role, arr in init_attention_params(mod.kind, mod.channels, rng).items():
                name = f"{mod.module_id}.{role}"
                values[name] = arr
                trainable.add(name)
    return ParamSet(values=values, trainable=trainable)


def trainable_names(graph: ModelGraph) -> set[str]:
    """The parameter names a fresh init would mark trainable."""
    names: set[str] = set()
    for node in graph.nodes:
        names |= set(node_param_shapes(graph, node))
    for slot in graph.slots.values():
        if not slot.psi_trainable:
            names.discard(slot.psi_name)
    return names
