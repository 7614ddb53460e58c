"""Versioned checkpoint container: text manifest + little-endian float64 payload.

Layout:
    attnfold-checkpoint 1
    graph <canonical single-line JSON of the graph>
    tensor <name> <d0>x<d1>x... <byte offset>
    payload <total bytes>
    <raw little-endian float64 bytes>

Tensor entries are sorted by name and offsets are contiguous, so
save -> load -> save round-trips byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import ParamSet
from .errors import FormatError
from .graph import ModelGraph, all_param_shapes, trainable_names

FORMAT_TAG = "attnfold-checkpoint"
VERSION = 1


def _graph_json(graph: ModelGraph) -> str:
    return json.dumps(graph.to_dict(), sort_keys=True, separators=(",", ":"))


def save_checkpoint(path, graph: ModelGraph, params: ParamSet) -> None:
    names = sorted(params.values)
    for name in names:
        if any(ch.isspace() for ch in name):
            raise FormatError(f"tensor name {name!r} contains whitespace")
    lines = [f"{FORMAT_TAG} {VERSION}", f"graph {_graph_json(graph)}"]
    offset = 0
    payload = bytearray()
    for name in names:
        arr = np.ascontiguousarray(params.values[name], dtype="<f8")
        dims = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        if arr.ndim == 0:
            raise FormatError(f"tensor {name!r} is a scalar; checkpoints hold arrays")
        lines.append(f"tensor {name} {dims} {offset}")
        payload.extend(arr.tobytes())
        offset += arr.nbytes
    lines.append(f"payload {offset}")
    blob = ("\n".join(lines) + "\n").encode("ascii") + bytes(payload)
    Path(path).write_bytes(blob)


def load_checkpoint(path) -> tuple[ModelGraph, ParamSet]:
    """Read a checkpoint; every check the kernels rely on happens here.

    Raises FormatError for a malformed container, a graph JSON with a missing
    key or a `classes` other than the output node's last dimension, tensors
    that do not match the graph, a non-finite tensor or a negative BN running
    variance, naming the offending key or tensor.
    """
    blob = Path(path).read_bytes()
    graph_dict, entries, payload = _split(blob, str(path))
    graph = ModelGraph.from_dict(graph_dict)
    expected_trainable, expected_state = all_param_shapes(graph)
    expected = dict(expected_trainable)
    expected.update(expected_state)
    values: dict[str, np.ndarray] = {}
    spans = []
    for name, shape, off in entries:
        if name in values:
            raise FormatError(f"{path}: duplicate tensor entry {name!r}")
        nbytes = int(np.prod(shape)) * 8
        if off < 0 or off + nbytes > len(payload):
            raise FormatError(f"{path}: tensor {name!r} spans [{off}, {off + nbytes}) "
                              f"outside payload of {len(payload)} bytes")
        spans.append((off, off + nbytes, name))
        arr = np.frombuffer(payload, dtype="<f8", count=int(np.prod(shape)),
                            offset=off).reshape(shape)
        values[name] = arr.astype(np.float64, copy=True)
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise FormatError(f"{path}: tensor entries {n0!r} and {n1!r} overlap")
    if set(values) != set(expected):
        missing = sorted(set(expected) - set(values))
        extra = sorted(set(values) - set(expected))
        raise FormatError(f"{path}: tensors do not match the graph "
                          f"(missing {missing}, unexpected {extra})")
    for name, arr in values.items():
        if arr.shape != tuple(expected[name]):
            raise FormatError(f"{path}: tensor {name!r} has shape {arr.shape}, "
                              f"graph expects {tuple(expected[name])}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} has non-finite elements")
        if name.endswith(".running_var") and (arr < 0).any():
            raise FormatError(f"{path}: tensor {name!r} has negative elements")
    params = ParamSet(values=values, trainable=trainable_names(graph))
    return graph, params


def _split(blob: bytes, path: str):
    pos = 0
    lines = []
    while True:
        nl = blob.find(b"\n", pos)
        if nl < 0:
            raise FormatError(f"{path}: unterminated manifest")
        line = blob[pos:nl].decode("ascii", errors="replace")
        pos = nl + 1
        lines.append(line)
        if line.startswith("payload "):
            break
    if not lines or not lines[0].startswith(f"{FORMAT_TAG} "):
        raise FormatError(f"{path}: missing format tag")
    version = lines[0].split(" ", 1)[1]
    if version != str(VERSION):
        raise FormatError(f"{path}: unsupported version {version!r}")
    if len(lines) < 3 or not lines[1].startswith("graph "):
        raise FormatError(f"{path}: missing graph line")
    try:
        graph_dict = json.loads(lines[1][len("graph "):])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: graph JSON is invalid: {exc}") from exc
    entries = []
    for line in lines[2:-1]:
        parts = line.split(" ")
        if len(parts) != 4 or parts[0] != "tensor":
            raise FormatError(f"{path}: malformed manifest line {line!r}")
        try:
            shape = tuple(int(d) for d in parts[2].split("x"))
            off = int(parts[3])
        except ValueError as exc:
            raise FormatError(f"{path}: malformed manifest line {line!r}") from exc
        entries.append((parts[1], shape, off))
    try:
        declared = int(lines[-1].split(" ", 1)[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed payload line") from exc
    payload = blob[pos:]
    if len(payload) != declared:
        raise FormatError(f"{path}: payload has {len(payload)} bytes, manifest "
                          f"declares {declared}")
    return graph_dict, entries, payload
