"""Toy backbone constructors with attention attachment points.

ResNet-style blocks: conv-bn-relu-conv-bn-[slot]-add-relu, slots foldable
at four positions. VGG-style stages: conv-bn-[slot]-relu-pool. Residual
chains x_{t+1} = x_t + relu(W_t x_t) * v_t feed the perturbation tracer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .attention import AsrSlot, AttentionKind, AttnModule, POSITIONS
from .errors import GraphError, InvariantError
from .graph import LayerNode, ModelGraph, count_flops_conv, count_params, init_params, validate_graph

__all__ = ["AttachSpec", "build_toy_resnet", "build_toy_vgg", "build_residual_chain",
           "count_params", "count_flops_conv", "init_params", "POSITIONS"]


@dataclass(frozen=True)
class AttachSpec:
    """How attention attaches to a backbone; kind None means no attention."""

    kind: AttentionKind | None = None
    mode: str = "asr"            # "asr" (constant input) | "standard"
    position: str = "after_last_bn"
    delta: int = 1
    psi_mode: str = "learnable"
    psi_init: float = 0.1
    psi_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("asr", "standard"):
            raise InvariantError(f"unknown attachment mode {self.mode!r}")
        if self.position not in POSITIONS:
            raise InvariantError(f"unknown position tag {self.position!r}")
        if self.delta < 1:
            raise InvariantError(f"delta must be >= 1, got {self.delta}")
        if self.kind is not None and self.mode == "standard" and self.kind.variant == "no_body":
            raise InvariantError("the body-less variant exists only on the constant-input path")


def _append(graph: ModelGraph, spec: AttachSpec | None, block: str, name: str,
            kind: str, inputs: list[str], attrs: dict | None = None,
            tags: tuple[str, ...] = ()) -> str:
    """Append node `block.name`; if `spec` attaches a kind at one of `tags`,
    insert spec.delta slots (asr) or modules (standard) over the graph's width
    after it. Returns the new tail's name."""
    tail = f"{block}.{name}"
    graph.nodes.append(LayerNode(tail, kind, inputs, attrs or {}))
    if spec is None or spec.kind is None or spec.position not in tags:
        return tail
    channels = graph.meta["width"]
    for d in range(spec.delta):
        if spec.mode == "asr":
            sid = f"{block}.asr{d}"
            graph.slots[sid] = AsrSlot(slot_id=sid, kind=spec.kind, channels=channels,
                                       position=spec.position, delta_index=d,
                                       psi_mode=spec.psi_mode, psi_init=spec.psi_init,
                                       psi_seed=spec.psi_seed + d)
            graph.nodes.append(LayerNode(sid, "asr", [tail], {"slot": sid}))
        else:
            mid = f"{block}.attn{d}"
            graph.modules[mid] = AttnModule(module_id=mid, kind=spec.kind,
                                            channels=channels, position=spec.position,
                                            delta_index=d)
            graph.nodes.append(LayerNode(mid, "attn", [tail], {"module": mid}))
        tail = graph.nodes[-1].name
    return tail


def _conv_attrs(in_ch: int, out_ch: int) -> dict:
    return {"in_ch": in_ch, "out_ch": out_ch, "kh": 3, "kw": 3, "stride": 1, "padding": 1}


def build_toy_resnet(depth_blocks: int, width: int, classes: int,
                     asr: AttachSpec | None = None, *, in_channels: int = 3,
                     image_size: int = 16) -> ModelGraph:
    """Stem conv + basic residual blocks + GAP + linear head."""
    if depth_blocks < 1:
        raise InvariantError(f"depth_blocks must be >= 1, got {depth_blocks}")
    if width < 1 or classes < 1:
        raise InvariantError("width and classes must be positive")
    graph = ModelGraph(nodes=[], input_shape=(in_channels, image_size, image_size),
                       classes=classes, meta={"arch": "resnet", "width": width,
                                              "blocks": depth_blocks})
    add = functools.partial(_append, graph, asr)
    graph.nodes.append(LayerNode("input", "input"))
    tail = add("stem", "conv", "conv", ["input"], _conv_attrs(in_channels, width))
    tail = add("stem", "bn", "bn", [tail], {"channels": width})
    tail = add("stem", "relu", "relu", [tail])
    for t in range(depth_blocks):
        blk, skip = f"block{t}", tail
        tail = add(blk, "conv1", "conv", [tail], _conv_attrs(width, width), ("after_conv1",))
        tail = add(blk, "bn1", "bn", [tail], {"channels": width}, ("after_bn1",))
        tail = add(blk, "relu1", "relu", [tail], tags=("after_relu",))
        tail = add(blk, "conv2", "conv", [tail], _conv_attrs(width, width))
        tail = add(blk, "bn2", "bn", [tail], {"channels": width}, ("after_last_bn",))
        tail = add(blk, "add", "add", [skip, tail])
        tail = add(blk, "relu2", "relu", [tail])
    graph.nodes.append(LayerNode("gap", "gap", [tail]))
    graph.nodes.append(LayerNode("head", "linear", ["gap"],
                                 {"in_dim": width, "out_dim": classes}))
    validate_graph(graph)
    return graph


def build_toy_vgg(stages: int, width: int, classes: int,
                  asr: AttachSpec | None = None, *, in_channels: int = 3,
                  image_size: int = 16) -> ModelGraph:
    """conv-bn-relu stages with 2x2 max pooling, then GAP + linear head.

    A stage has a single BN, so the after_bn1 and after_last_bn tags
    resolve to the same insertion point (the canonical BN-to-ReLU slot).
    """
    if stages < 1:
        raise InvariantError(f"stages must be >= 1, got {stages}")
    if image_size % (2 ** stages) != 0:
        raise InvariantError(f"image size {image_size} not divisible by 2^{stages}")
    graph = ModelGraph(nodes=[], input_shape=(in_channels, image_size, image_size),
                       classes=classes, meta={"arch": "vgg", "width": width,
                                              "stages": stages})
    add = functools.partial(_append, graph, asr)
    graph.nodes.append(LayerNode("input", "input"))
    tail, ch = "input", in_channels
    for s in range(stages):
        stg = f"stage{s}"
        tail = add(stg, "conv", "conv", [tail], _conv_attrs(ch, width), ("after_conv1",))
        tail = add(stg, "bn", "bn", [tail], {"channels": width},
                   ("after_bn1", "after_last_bn"))
        tail = add(stg, "relu", "relu", [tail], tags=("after_relu",))
        tail = add(stg, "pool", "maxpool2", [tail])
        ch = width
    graph.nodes.append(LayerNode("gap", "gap", [tail]))
    graph.nodes.append(LayerNode("head", "linear", ["gap"],
                                 {"in_dim": width, "out_dim": classes}))
    validate_graph(graph)
    return graph


def build_residual_chain(depth: int, width: int, *, with_slots: bool = True,
                         psi_std: float = 2.0, psi_seed: int = 0) -> ModelGraph:
    """Residual chain x_{t+1} = x_t + relu(W_t x_t) * v_t on flat inputs.

    Each block's constant vector comes from a body-less slot with frozen
    Gaussian psi, so v_t = sigmoid(psi_t) is strictly inside (0,1). Without
    slots the chain is the plain x + relu(Wx) form.
    """
    if depth < 1 or width < 1:
        raise InvariantError("depth and width must be positive")
    graph = ModelGraph(nodes=[], input_shape=(width,), classes=width,
                       meta={"arch": "residual_chain", "depth": depth, "width": width})
    nodes = graph.nodes
    nodes.append(LayerNode("input", "input"))
    tail = "input"
    for t in range(depth):
        blk = f"block{t}"
        skip = tail
        nodes.append(LayerNode(f"{blk}.lin", "linear", [tail],
                               {"in_dim": width, "out_dim": width}))
        nodes.append(LayerNode(f"{blk}.relu", "relu", [f"{blk}.lin"]))
        tail = f"{blk}.relu"
        if with_slots:
            sid = f"{blk}.asr0"
            graph.slots[sid] = AsrSlot(slot_id=sid, kind=AttentionKind("no_body"),
                                       channels=width, position="after_relu",
                                       delta_index=0, psi_mode="frozen_gaussian",
                                       psi_init=psi_std, psi_seed=psi_seed + t)
            nodes.append(LayerNode(sid, "asr", [tail], {"slot": sid}))
            tail = sid
        nodes.append(LayerNode(f"{blk}.add", "add", [skip, tail]))
        tail = f"{blk}.add"
    validate_graph(graph)
    return graph


def chain_blocks(graph: ModelGraph) -> list[dict]:
    """Decompose a proof-conforming residual chain into per-block pieces.

    Returns rows with the linear weight name, the slot (or None), and the
    block boundary node; raises GraphError for non-conforming graphs.
    """
    if graph.meta.get("arch") != "residual_chain":
        raise GraphError("graph is not a residual chain")
    blocks = []
    t = 0
    by_name = {n.name: n for n in graph.nodes}
    prev_boundary = graph.nodes[0].name
    while f"block{t}.add" in by_name:
        blk = f"block{t}"
        lin = by_name.get(f"{blk}.lin")
        rel = by_name.get(f"{blk}.relu")
        add = by_name[f"{blk}.add"]
        sid = f"{blk}.asr0"
        slot = graph.slots.get(sid)
        main_tail = sid if slot is not None else f"{blk}.relu"
        if (lin is None or rel is None or lin.kind != "linear" or rel.kind != "relu"
                or lin.inputs != [prev_boundary] or rel.inputs != [lin.name]
                or add.inputs != [prev_boundary, main_tail]):
            raise GraphError(f"block {t} does not match the residual-chain form")
        if slot is not None and by_name[sid].inputs != [rel.name]:
            raise GraphError(f"block {t} slot is not applied to the relu output")
        blocks.append({"index": t, "weight": f"{blk}.lin.w", "slot": slot,
                       "boundary": add.name})
        prev_boundary = add.name
        t += 1
    if not blocks or graph.nodes[-1].name != blocks[-1]["boundary"]:
        raise GraphError("graph does not end at the last block boundary")
    return blocks
