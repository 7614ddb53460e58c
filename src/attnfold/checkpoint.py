"""Versioned checkpoint container: text manifest + little-endian float64 payload.

Layout:
    attnfold-checkpoint 1
    graph <canonical single-line JSON of the graph>
    tensor <name> <d0>x<d1>x... <byte offset>
    payload <total bytes>
    <raw little-endian float64 bytes>

The manifest follows from the graph alone: one tensor line per parameter
and state tensor the graph declares, sorted by name, with offsets
contiguous from 0. `_manifest` writes it for both directions, and a file
loads only if it is the canonical serialisation of what it decodes to, so
load -> save returns the bytes read.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .autodiff import ParamSet
from .errors import FormatError
from .graph import ModelGraph, all_param_shapes, trainable_names
from .tensor import all_finite

FORMAT_TAG = "attnfold-checkpoint"
VERSION = 1


def _graph_json(graph: ModelGraph) -> str:
    return json.dumps(graph.to_dict(), sort_keys=True, separators=(",", ":"))


def _manifest(graph: ModelGraph, shapes: dict) -> tuple[bytes, int]:
    """The manifest of `graph` holding tensors of `shapes` ({name: shape}),
    and the payload size it declares in bytes."""
    lines = [f"{FORMAT_TAG} {VERSION}", f"graph {_graph_json(graph)}"]
    offset = 0
    for name in sorted(shapes):
        if any(ch.isspace() or not ch.isascii() for ch in name):
            raise FormatError(f"tensor name {name!r} contains whitespace or non-ASCII")
        if not shapes[name]:
            raise FormatError(f"tensor {name!r} is a scalar; checkpoints hold arrays")
        lines.append(f"tensor {name} {'x'.join(map(str, shapes[name]))} {offset}")
        offset += 8 * math.prod(shapes[name])  # Python ints: no int64 wrap
    lines.append(f"payload {offset}")
    return ("\n".join(lines) + "\n").encode("ascii"), offset


def save_checkpoint(path, graph: ModelGraph, params: ParamSet) -> None:
    Path(path).write_bytes(checkpoint_bytes(graph, params))


def checkpoint_bytes(graph: ModelGraph, params: ParamSet) -> bytes:
    """The checkpoint container holding `graph` and `params`."""
    values = params.values
    # Shapes before the conversion, which turns a 0-d array into shape (1,).
    manifest, _ = _manifest(graph, {name: np.shape(arr) for name, arr in values.items()})
    return b"".join([manifest] + [np.ascontiguousarray(values[name], dtype="<f8").tobytes()
                                  for name in sorted(values)])


# A manifest line longer than this many characters is shown in an error as
# an excerpt of this length around its first difference.
_EXCERPT = 80


def _shown(line: bytes, start: int) -> str:
    text = line.decode("ascii", errors="replace")
    shown = repr(text.removesuffix("\n")[start:start + _EXCERPT])
    return shown if text.endswith("\n") else f"{shown} at the end of the file"


def load_checkpoint(path) -> tuple[ModelGraph, ParamSet]:
    """Read a checkpoint; every check the kernels rely on happens here.

    A file loads only if it is the canonical serialisation of its graph and
    tensors: its manifest must equal, byte for byte, the one `_manifest`
    writes for the graph's tensors, and the payload must fill the rest.

    On a little-endian host each returned tensor is a read-only view into
    one immutable `bytes` holding the payload, not a copy, so the checks
    below hold for as long as the `ParamSet` lives (numpy refuses in-place
    writes and `flags.writeable = True`); `ParamSet.copy()` is writable.

    Raises FormatError for a bad tag, version or graph JSON (naming the
    key), a manifest line other than the canonical one (naming both, or for
    a long line its first differing column and an excerpt of both), a
    payload of the wrong size, a non-finite tensor or a negative BN running
    variance.
    """
    with open(path, "rb") as f:
        tag, line = f.readline(), f.readline()
        if not tag.startswith(f"{FORMAT_TAG} ".encode()):
            raise FormatError(f"{path}: missing format tag")
        version = tag[len(FORMAT_TAG) + 1:].decode("ascii", errors="replace").rstrip("\n")
        if version != str(VERSION):
            raise FormatError(f"{path}: unsupported version {version!r}")
        if not line.startswith(b"graph "):
            raise FormatError(f"{path}: missing graph line")
        try:
            graph_dict = json.loads(line[len(b"graph "):].decode("ascii", errors="replace"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: graph JSON is invalid: {exc}") from exc
        graph, walk = ModelGraph.from_dict_walk(graph_dict)
        trainable, state = all_param_shapes(graph, walk)
        shapes = {**trainable, **state}
        manifest, size = _manifest(graph, shapes)
        want = manifest.splitlines(keepends=True)
        got = [tag, line] + [f.readline() for _ in want[2:]]
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                col = len(os.path.commonprefix([g, w]))
                long = max(len(g), len(w)) > _EXCERPT
                start = max(0, col - _EXCERPT // 2) if long else 0
                where = f" differs at column {col + 1}; from column {start + 1} it" if long else ""
                raise FormatError(f"{path}: manifest line {i + 1}{where} reads "
                                  f"{_shown(g, start)}, but this graph's checkpoint has "
                                  f"{_shown(w, start)}")
        # Bound the read by the file before allocating anything for it.
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left != size or len(payload := f.read(size)) != size:
            raise FormatError(f"{path}: payload has {left} bytes, manifest declares {size}")
    # A fresh `bytes` starts on an aligned address, so every view is aligned.
    values: dict[str, np.ndarray] = {}
    offset = 0
    for name in sorted(shapes):
        count = math.prod(shapes[name])
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        # A no-op on little-endian hosts; a big-endian one gets a native copy.
        values[name] = arr.reshape(shapes[name]).astype(np.float64, copy=False)
        if not all_finite(values[name]):
            raise FormatError(f"{path}: tensor {name!r} has non-finite elements")
        if name.endswith(".running_var") and (values[name] < 0).any():
            raise FormatError(f"{path}: tensor {name!r} has negative elements")
    return graph, ParamSet(values=values, trainable=trainable_names(graph, walk))
