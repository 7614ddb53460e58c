"""checkpoint container: bitwise round-trips, manifest validation."""

import hashlib
import json
import re

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, FormatError, GraphError, InvariantError,
                      LayerNode, ModelGraph, ShapeError, build_residual_chain,
                      build_toy_resnet, build_toy_vgg, init_params, load_checkpoint,
                      save_checkpoint)
from attnfold.attention import VARIANTS
from attnfold.checkpoint import _manifest, checkpoint_bytes
from attnfold.graph import all_param_shapes


NODE_ATTRS = [
    ("conv", {"in_ch": 1, "out_ch": 1, "kh": 1, "kw": 1, "stride": 1, "padding": 0}),
    ("bn", {"channels": 1}), ("linear", {"in_dim": 1, "out_dim": 1}),
    ("asr", {"slot": "s"}), ("attn", {"module": "m"})]


@pytest.fixture
def model():
    spec = AttachSpec(kind=AttentionKind("se", reduction=2))
    g = build_toy_resnet(1, 4, 3, spec, image_size=6)
    return g, init_params(g, seed=0)


class TestRoundTrip:
    def test_tensors_bitwise_identical(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        g2, p2 = load_checkpoint(f)
        assert set(p2.values) == set(p.values)
        for name in p.values:
            assert p2.values[name].tobytes() == p.values[name].tobytes()
        assert p2.trainable == p.trainable

    def test_save_load_save_same_bytes(self, model, tmp_path):
        g, p = model
        f1, f2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(f1, g, p)
        g2, p2 = load_checkpoint(f1)
        save_checkpoint(f2, g2, p2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_graph_survives(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        g2, _ = load_checkpoint(f)
        assert [n.name for n in g2.nodes] == [n.name for n in g.nodes]
        assert g2.input_shape == g.input_shape
        assert g2.classes == g.classes
        assert set(g2.slots) == set(g.slots)
        s = g2.slots["block0.asr0"]
        assert s.kind.variant == "se" and s.psi_mode == "learnable"

    def test_frozen_psi_not_trainable_after_load(self, tmp_path):
        spec = AttachSpec(kind=AttentionKind("ie"), psi_mode="frozen_constant",
                          psi_init=0.3)
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=1)
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        _, p2 = load_checkpoint(f)
        assert "block0.asr0.psi" not in p2.trainable
        assert "block0.asr0.gamma" in p2.trainable

    def test_parameterless_graph(self, tmp_path):
        from attnfold import LayerNode, ModelGraph, init_params
        g = ModelGraph(nodes=[LayerNode("input", "input")], input_shape=(4,),
                       classes=4)
        p = init_params(g, seed=0)
        f = tmp_path / "e.ckpt"
        save_checkpoint(f, g, p)
        g2, p2 = load_checkpoint(f)
        assert p2.values == {} and g2.input_shape == (4,)

    def test_negative_zero_and_subnormals_survive(self, model, tmp_path):
        g, p = model
        p.values["head.b"] = np.array([-0.0, 5e-324, 1.0])
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        _, p2 = load_checkpoint(f)
        assert p2.values["head.b"].tobytes() == p.values["head.b"].tobytes()


class TestContainerBytes:
    def test_container_is_pinned(self):
        """The bytes `checkpoint_bytes` writes for a seeded init, pinned by
        digest: both toy builders x every variant x both modes (the body-less
        variant has no standard module), then a depth-8 width-128 chain."""
        digest = hashlib.sha256()
        for builder in (build_toy_resnet, build_toy_vgg):
            for variant in VARIANTS:
                for mode in ("asr", "standard")[:1 if variant == "no_body" else 2]:
                    spec = AttachSpec(kind=AttentionKind(variant), mode=mode)
                    g = builder(1, 4, 3, spec, image_size=8)
                    digest.update(checkpoint_bytes(g, init_params(g, seed=0)))
        g = build_residual_chain(8, 128)
        digest.update(checkpoint_bytes(g, init_params(g, seed=0)))
        assert digest.hexdigest() == (
            "90ded30527f3f880ece0d00ec3da8e303f10078b4506a096480fe2f91e5f824b")


class TestLoadedTensorsAreImmutable:
    """The load-time checks hold for the life of the loaded ParamSet."""

    @pytest.fixture
    def saved_and_loaded(self, model, tmp_path):
        g, p = model
        save_checkpoint(tmp_path / "m.ckpt", g, p)
        return p, load_checkpoint(tmp_path / "m.ckpt")[1]

    def test_in_place_write_and_writeable_flag_rejected(self, saved_and_loaded):
        p, p2 = saved_and_loaded
        for name, arr in p2.values.items():
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = np.nan
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            assert arr.tobytes() == p.values[name].tobytes()

    def test_views_are_aligned(self, saved_and_loaded):
        # Unaligned operands would change numpy's rounding of every kernel.
        _, p2 = saved_and_loaded
        assert all(arr.flags.aligned for arr in p2.values.values())

    def test_copy_is_writable(self, saved_and_loaded):
        p, p2 = saved_and_loaded
        for name, arr in p2.copy().values.items():
            arr[(0,) * arr.ndim] = 1.5
            assert arr[(0,) * arr.ndim] == 1.5
            assert not p2.values[name].flags.writeable
            assert p2.values[name].tobytes() == p.values[name].tobytes()


def manifest_line(f, number, reads, has):
    """The pattern of load_checkpoint's message for a non-canonical manifest
    line of `f`; `reads` and `has` are regexes."""
    return (re.escape(f"{f}: manifest line {number} reads ") + f"'{reads}'"
            + re.escape(", but this graph's checkpoint has ") + f"'{has}'$")


class TestManifestValidation:
    def test_bad_tag(self, tmp_path):
        f = tmp_path / "bad.ckpt"
        f.write_bytes(b"not-a-checkpoint 1\npayload 0\n")
        with pytest.raises(FormatError, match="format tag"):
            load_checkpoint(f)

    def test_truncated_payload(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        blob = f.read_bytes()
        f.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match=re.escape(f"{f}: payload has ")):
            load_checkpoint(f)

    def test_overlapping_offsets(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        blob = f.read_bytes()
        head, _, payload = blob.partition(b"payload ")
        lines = head.decode().splitlines()
        tensor_lines = [i for i, l in enumerate(lines) if l.startswith("tensor ")]
        # force the second tensor to overlap the first
        canonical = lines[tensor_lines[1]]
        parts = canonical.split(" ")
        parts[3] = "0"
        lines[tensor_lines[1]] = " ".join(parts)
        f.write_bytes(("\n".join(lines) + "\n").encode() + b"payload " + payload)
        with pytest.raises(FormatError, match=manifest_line(
                f, tensor_lines[1] + 1, re.escape(lines[tensor_lines[1]]),
                re.escape(canonical))):
            load_checkpoint(f)

    def test_unaligned_offset(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        head, _, payload = f.read_bytes().partition(b"payload ")
        lines = head.decode().splitlines()
        last = max(i for i, l in enumerate(lines) if l.startswith("tensor "))
        canonical = lines[last]
        parts = canonical.split(" ")
        parts[3] = str(int(parts[3]) + 4)   # still inside the payload, overlapping nothing
        lines[last] = " ".join(parts)
        size, _, data = payload.partition(b"\n")
        f.write_bytes(("\n".join(lines) + "\n").encode() + b"payload "
                      + str(int(size) + 4).encode() + b"\n" + data + bytes(4))
        with pytest.raises(FormatError, match=manifest_line(
                f, last + 1, re.escape(lines[last]), re.escape(canonical))):
            load_checkpoint(f)

    def test_missing_tensor(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        del p.values["head.b"]
        p.trainable.discard("head.b")
        save_checkpoint(f, g, p)
        with pytest.raises(FormatError, match=manifest_line(
                f, 18, r"tensor head\.w 3x4 2784", r"tensor head\.b 3 2784")):
            load_checkpoint(f)

    @pytest.mark.parametrize("dims", ["4611686018427387904x4", "-2x-1"],
                             ids=["product-overflows-int64", "negative"])
    def test_bad_dimensions(self, model, tmp_path, dims):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        blob = f.read_bytes()
        line = re.search(rb"tensor head\.b \S+ ", blob).group()
        f.write_bytes(blob.replace(line, f"tensor head.b {dims} ".encode(), 1))
        with pytest.raises(FormatError, match=manifest_line(
                f, 18, rf"tensor head\.b {dims} 2784", r"tensor head\.b 3 2784")):
            load_checkpoint(f)

    @pytest.mark.parametrize("mode,owner", [("asr", "block0.asr0"),
                                            ("standard", "block0.attn0")])
    def test_attention_tensor_of_wrong_shape(self, tmp_path, mode, owner):
        spec = AttachSpec(kind=AttentionKind("se", reduction=2), mode=mode)
        g = build_toy_resnet(1, 8, 3, spec, image_size=6)
        p = init_params(g, seed=0)
        p.values[f"{owner}.w1"] = np.zeros((3, 8))
        p.values[f"{owner}.w2"] = np.zeros((8, 3))
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        name, number = re.escape(f"{owner}.w1"), 4 if mode == "asr" else 3
        with pytest.raises(FormatError, match=manifest_line(
                f, number, rf"tensor {name} 3x8 \d+", rf"tensor {name} 4x8 \d+")):
            load_checkpoint(f)

    def test_unexpected_attention_tensor(self, tmp_path):
        spec = AttachSpec(kind=AttentionKind("ie"), mode="standard")
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=0)
        p.values["block0.attn0.w"] = np.ones(3)
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        with pytest.raises(FormatError, match=manifest_line(
                f, 5, r"tensor block0\.attn0\.w 3 64", r"tensor block0\.bn1\.beta 4 64")):
            load_checkpoint(f)

    def test_version_check(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        blob = f.read_bytes().replace(b"attnfold-checkpoint 1", b"attnfold-checkpoint 9", 1)
        f.write_bytes(blob)
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(f)


def split_manifest(blob):
    """A checkpoint's manifest lines (each with its newline) and its payload."""
    end = blob.index(b"\n", blob.index(b"\npayload ") + 1) + 1
    return blob[:end].splitlines(keepends=True), blob[end:]


def spaced_graph(line):
    return b"graph " + json.dumps(json.loads(line[len(b"graph "):]), sort_keys=True).encode()


# Non-canonical forms the reader once accepted; each edits lines of the
# `model` fixture's manifest: 17 and 18 are `tensor head.b 3 2784` and
# `tensor head.w 3x4 2808`, 25 is `payload 3928`.
NON_CANONICAL = {
    "plus-sign": lambda lines: {17: b"tensor head.b +3 2784\n"},
    "underscore": lambda lines: {17: b"tensor head.b 3 2_784\n"},
    "leading-zero-offset": lambda lines: {17: b"tensor head.b 3 02784\n"},
    "spaced-graph-json": lambda lines: {1: spaced_graph(lines[1][:-1]) + b"\n"},
    "swapped-tensor-lines": lambda lines: {17: lines[18], 18: lines[17]},
    "unused-payload-bytes": lambda lines: {25: b"payload 3936\n"},
}


def manifest_mutants(blob):
    """Edited copies of `blob`, each with the line index it edits: per line,
    each digit run with its last digit changed, a '+' before it, a '_' after
    its first digit and a leading '0'; each pair of adjacent lines swapped;
    the file cut at the start and the middle of each line; bytes appended."""
    lines, payload = split_manifest(blob)
    for i, line in enumerate(lines):
        for m in re.finditer(rb"\d+", line):
            (a, b), d = m.span(), m.group()
            for new in (d[:-1] + str((int(d[-1:]) + 1) % 10).encode(), b"+" + d,
                        d[:1] + b"_" + d[1:], b"0" + d):
                edited = lines[:i] + [line[:a] + new + line[b:]] + lines[i + 1:]
                yield i, b"".join(edited) + payload
        start = len(b"".join(lines[:i]))
        yield i, blob[:start]
        yield i, blob[:start + len(line) // 2]
    for i in range(len(lines) - 1):
        yield i, b"".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]) + payload
    yield len(lines), blob + bytes(8)
    yield len(lines), blob + b"\n"


class TestCanonicalOnly:
    """A file loads only if it is the exact bytes `checkpoint_bytes` writes
    for what it decodes to."""

    @pytest.mark.parametrize("form", sorted(NON_CANONICAL))
    def test_non_canonical_form_rejected(self, model, tmp_path, form):
        g, p = model
        lines, payload = split_manifest(checkpoint_bytes(g, p))
        assert lines[17:19] + lines[25:] == [b"tensor head.b 3 2784\n",
                                             b"tensor head.w 3x4 2808\n", b"payload 3928\n"]
        for i, line in NON_CANONICAL[form](lines).items():
            lines[i] = line
        f = tmp_path / "m.ckpt"
        f.write_bytes(b"".join(lines) + payload + bytes(8 * (form == "unused-payload-bytes")))
        with pytest.raises(FormatError, match=re.escape(f"{f}: manifest line ")):
            load_checkpoint(f)

    @pytest.mark.parametrize("builder,variant,mode", [
        (build_toy_resnet, "se", "asr"), (build_toy_vgg, "cbam", "standard")])
    def test_manifest_mutants_rejected_or_canonical(self, tmp_path, builder, variant, mode):
        """A graph-line edit that still parses may fail graph validation, which
        runs first, or be another canonical graph (`"blocks":2` in `meta`);
        every other mutant must be a FormatError."""
        g = builder(1, 4, 3, AttachSpec(kind=AttentionKind(variant), mode=mode),
                    image_size=6)
        blob = checkpoint_bytes(g, init_params(g, seed=0))
        f = tmp_path / "mutant.ckpt"
        outcomes = set()
        for i, mutant in manifest_mutants(blob):
            f.write_bytes(mutant)
            try:
                g2, p2 = load_checkpoint(f)
            except FormatError:
                outcomes.add("rejected")
                continue
            except (GraphError, InvariantError, ShapeError):
                assert i == 1, mutant
                outcomes.add("rejected")
                continue
            assert checkpoint_bytes(g2, p2) == mutant
            outcomes.add("canonical")
        assert "rejected" in outcomes

    def test_non_ascii_tensor_name_is_a_format_error(self, tmp_path):
        # The graph JSON escapes a non-ASCII node name; a manifest line cannot.
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("f\u00e9", "linear", ["input"],
                                        {"in_dim": 2, "out_dim": 2})],
                       input_shape=(2,), classes=2)
        message = "tensor name 'f\u00e9.b' contains whitespace or non-ASCII"
        with pytest.raises(FormatError, match=message):
            checkpoint_bytes(g, init_params(g, seed=0))
        f = tmp_path / "m.ckpt"
        f.write_bytes(b"attnfold-checkpoint 1\ngraph "
                      + json.dumps(g.to_dict(), sort_keys=True, separators=(",", ":")).encode()
                      + b"\npayload 0\n")
        with pytest.raises(FormatError, match=message):
            load_checkpoint(f)

    def test_declared_size_bounded_by_the_file(self, tmp_path):
        """A graph and manifest that agree on a 2**40-element tensor are
        refused from the file size, before anything is allocated for it."""
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("fc", "linear", ["input"],
                                        {"in_dim": 2 ** 40, "out_dim": 2})],
                       input_shape=(2 ** 40,), classes=2)
        trainable, state = all_param_shapes(g)
        manifest, size = _manifest(g, {**trainable, **state})
        assert size == 8 * (2 ** 41 + 2)
        f = tmp_path / "huge.ckpt"
        f.write_bytes(manifest + bytes(16))
        with pytest.raises(FormatError, match=re.escape(
                f"{f}: payload has 16 bytes, manifest declares {size}")):
            load_checkpoint(f)

    def test_scalar_parameter_is_a_format_error(self, model):
        g, p = model
        p.values["head.b"] = np.array(0.5)
        with pytest.raises(FormatError, match="tensor 'head.b' is a scalar"):
            checkpoint_bytes(g, p)

    @pytest.mark.parametrize("edit", ["spaced", "deep"])
    def test_long_graph_line_error_is_an_excerpt(self, tmp_path, edit):
        """A non-canonical graph line of the 2-block width-16 SE ResNet
        (3,140 characters) is named by its first differing column, with an
        excerpt of at most 80 characters of each line around it."""
        spec = AttachSpec(kind=AttentionKind("se", reduction=4), mode="asr", delta=2)
        g = build_toy_resnet(2, 16, 10, spec, image_size=16)
        lines, payload = split_manifest(checkpoint_bytes(g, init_params(g, seed=0)))
        graph = lines[1][:-1]
        assert len(graph) == 3140
        if edit == "spaced":
            lines[1], col = spaced_graph(graph) + b"\n", len(b'graph {"classes":') + 1
        else:
            at = graph.rindex(b":") + 1
            lines[1], col = graph[:at] + b" " + graph[at:] + b"\n", at + 1
        f = tmp_path / "m.ckpt"
        f.write_bytes(b"".join(lines) + payload)
        with pytest.raises(FormatError) as info:
            load_checkpoint(f)
        message = str(info.value)
        start = max(1, col - 40)
        head = f"{f}: manifest line 2 differs at column {col}; from column {start} it reads '"
        assert message.startswith(head)
        reads, has = message[len(head):].split("', but this graph's checkpoint has '")
        assert has.endswith("'")
        assert reads == lines[1][:-1][start - 1:start + 79].decode()
        assert has[:-1] == graph[start - 1:start + 79].decode()
        assert len(message) <= len(str(f)) + 300


def rewrite_graph(path, edit):
    """Replace the checkpoint's graph JSON by `edit(graph_dict)`."""
    head, _, rest = path.read_bytes().partition(b"\n")
    graph_line, _, rest = rest.partition(b"\n")
    d = json.loads(graph_line[len(b"graph "):])
    d = edit(d)
    line = b"graph " + json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(head + b"\n" + line + b"\n" + rest)


class TestValueValidation:
    @pytest.mark.parametrize("name,value", [("head.w", np.nan), ("head.b", np.inf),
                                            ("stem.bn.running_mean", -np.inf)])
    def test_non_finite_tensor_rejected(self, model, tmp_path, name, value):
        g, p = model
        p.values[name] = p.values[name].copy()
        p.values[name].flat[0] = value
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        with pytest.raises(FormatError, match=f"{name!r}.*non-finite"):
            load_checkpoint(f)

    def test_negative_running_var_rejected(self, model, tmp_path):
        g, p = model
        p.values["block0.bn1.running_var"] = np.array([1.0, -1e-3, 0.5, 2.0])
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        with pytest.raises(FormatError, match="'block0.bn1.running_var'.*negative"):
            load_checkpoint(f)

    @pytest.mark.parametrize("builder,value", [
        (lambda: build_toy_resnet(1, 4, 3, AttachSpec(kind=AttentionKind("ie")),
                                  image_size=6), float("nan")),
        (lambda: build_residual_chain(2, 4), -1.0)], ids=["nan-constant", "negative-std"])
    def test_bad_psi_init_rejected(self, tmp_path, builder, value):
        g = builder()
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, init_params(g, seed=0))

        def edit(d):
            for slot in d["slots"].values():
                slot["psi_init"] = value
            return d

        rewrite_graph(f, edit)
        with pytest.raises(InvariantError, match="psi_init"):
            load_checkpoint(f)

    def test_zero_running_var_and_huge_weights_accepted(self, model, tmp_path):
        g, p = model
        p.values["block0.bn1.running_var"] = np.zeros(4)
        p.values["head.w"] = np.full_like(p.values["head.w"], -1e300)
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        _, p2 = load_checkpoint(f)
        assert p2.values["head.w"].tobytes() == p.values["head.w"].tobytes()


class TestGraphSchema:
    def test_empty_graph_json(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        rewrite_graph(f, lambda d: {})
        with pytest.raises(FormatError, match="'nodes'"):
            load_checkpoint(f)

    def test_conv_missing_in_ch(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)

        def drop(d):
            conv = next(n for n in d["nodes"] if n["name"] == "stem.conv")
            del conv["attrs"]["in_ch"]
            return d

        rewrite_graph(f, drop)
        with pytest.raises(FormatError, match="'stem.conv'.*'in_ch'"):
            load_checkpoint(f)

    @pytest.mark.parametrize("key", ["nodes", "slots", "modules", "input_shape",
                                     "classes", "meta"])
    def test_model_graph_missing_key(self, model, key):
        g, _ = model
        d = g.to_dict()
        del d[key]
        with pytest.raises(FormatError, match=repr(key)):
            ModelGraph.from_dict(d)

    @pytest.mark.parametrize("key", ["name", "kind", "inputs", "attrs"])
    def test_layer_node_missing_key(self, key):
        d = LayerNode("c", "conv", ["input"], {"in_ch": 1, "out_ch": 1, "kh": 1,
                                               "kw": 1, "stride": 1, "padding": 0}).to_dict()
        del d[key]
        with pytest.raises(FormatError, match=repr(key)):
            LayerNode.from_dict(d)

    @pytest.mark.parametrize("kind,attrs", [
        ("conv", {"in_ch": 1, "out_ch": 1, "kh": 1, "kw": 1, "stride": 1, "padding": 0}),
        ("bn", {"channels": 1}), ("linear", {"in_dim": 1, "out_dim": 1}),
        ("asr", {"slot": "s"}), ("attn", {"module": "m"})])
    def test_layer_node_missing_attr(self, kind, attrs):
        for missing in attrs:
            d = LayerNode("x", kind, ["input"],
                          {k: v for k, v in attrs.items() if k != missing}).to_dict()
            with pytest.raises(FormatError, match=f"'x'.*{missing!r}"):
                LayerNode.from_dict(d)

    @pytest.mark.parametrize("mode,table,key", [
        ("asr", "slots", "psi_seed"), ("asr", "slots", "kind"),
        ("standard", "modules", "channels"), ("standard", "modules", "kind")])
    def test_attention_entry_missing_key(self, mode, table, key):
        g = build_toy_resnet(1, 4, 3, AttachSpec(kind=AttentionKind("se", reduction=2),
                                                 mode=mode), image_size=6)
        d = g.to_dict()
        del next(iter(d[table].values()))[key]
        with pytest.raises(FormatError, match=repr(key)):
            ModelGraph.from_dict(d)

    def test_attention_kind_missing_key(self, model):
        g, _ = model
        d = g.to_dict()
        del next(iter(d["slots"].values()))["kind"]["reduction"]
        with pytest.raises(FormatError, match="attention kind.*'reduction'"):
            ModelGraph.from_dict(d)

    @pytest.mark.parametrize("key,value", [("nodes", 5), ("slots", []), ("modules", 3),
                                           ("input_shape", 7), ("meta", 1)])
    def test_model_graph_wrong_type(self, model, key, value):
        g, _ = model
        d = g.to_dict()
        d[key] = value
        with pytest.raises(FormatError, match=f"graph key {key!r}"):
            ModelGraph.from_dict(d)

    @pytest.mark.parametrize("key,value", [("name", 3), ("kind", ["conv"]),
                                           ("inputs", "input"), ("attrs", [])])
    def test_layer_node_wrong_type(self, key, value):
        d = LayerNode("c", "conv", ["input"], {"in_ch": 1, "out_ch": 1, "kh": 1,
                                               "kw": 1, "stride": 1, "padding": 0}).to_dict()
        d[key] = value
        with pytest.raises(FormatError, match=f"graph node key {key!r}"):
            LayerNode.from_dict(d)

    @pytest.mark.parametrize("classes", [7, 2, 0, -1])
    def test_classes_must_match_head(self, model, tmp_path, classes):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)

        def set_classes(d):
            d["classes"] = classes
            return d

        rewrite_graph(f, set_classes)
        with pytest.raises(FormatError, match="'classes'"):
            load_checkpoint(f)

    @pytest.mark.parametrize("key,value", [
        ("classes", "x"), ("classes", 3.5), ("classes", True), ("classes", None),
        ("input_shape", "6"), ("input_shape", 6.0), ("input_shape", False)])
    def test_model_graph_scalar_of_wrong_type(self, model, key, value):
        g, _ = model
        d = g.to_dict()
        if key == "classes":
            d[key] = value
        else:
            d[key][1] = value
            key = "input_shape[1]"
        with pytest.raises(FormatError, match=re.escape(f"graph key {key!r}")):
            ModelGraph.from_dict(d)

    @pytest.mark.parametrize("kind,attrs", NODE_ATTRS)
    def test_layer_node_attr_of_wrong_type(self, kind, attrs):
        for key, good in attrs.items():
            bad_values = ("1", 1.0, True, None) if isinstance(good, int) else (1, ["s"], None)
            for bad in bad_values:
                d = LayerNode("x", kind, ["input"], {**attrs, key: bad}).to_dict()
                with pytest.raises(FormatError, match=f"'x'.*{key!r}"):
                    LayerNode.from_dict(d)

    def test_conv_in_ch_string_at_load(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)

        def stringify(d):
            conv = next(n for n in d["nodes"] if n["name"] == "stem.conv")
            conv["attrs"]["in_ch"] = str(conv["attrs"]["in_ch"])
            return d

        rewrite_graph(f, stringify)
        with pytest.raises(FormatError, match="'stem.conv'.*'in_ch'.*integer"):
            load_checkpoint(f)

    @pytest.mark.parametrize("bad", [[1], {}, 3, None])
    def test_layer_node_non_string_input(self, bad):
        d = LayerNode("x", "add", ["a", "b"]).to_dict()
        d["inputs"][1] = bad
        with pytest.raises(FormatError,
                           match=r"'x' key 'inputs\[1\]' must be a JSON string"):
            LayerNode.from_dict(d)

    @pytest.mark.parametrize("bad", [[1], {}])
    def test_non_string_input_at_load(self, model, tmp_path, bad):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)

        def set_input(d):
            next(n for n in d["nodes"] if n["name"] == "stem.conv")["inputs"] = [bad]
            return d

        rewrite_graph(f, set_input)
        with pytest.raises(FormatError, match=r"'stem.conv' key 'inputs\[0\]'"):
            load_checkpoint(f)

    @pytest.mark.parametrize("key,value,low", [
        ("stride", 0, 1), ("stride", -2, 1), ("kh", 0, 1), ("kw", -1, 1),
        ("padding", -1, 0)])
    def test_conv_geometry_out_of_range(self, model, key, value, low):
        g, _ = model
        d = g.to_dict()
        next(n for n in d["nodes"] if n["name"] == "stem.conv")["attrs"][key] = value
        with pytest.raises(GraphError, match=f"conv 'stem.conv' attr {key!r} must be "
                                             f">= {low}, got {value}"):
            ModelGraph.from_dict(d)

    def test_conv_geometry_at_bounds_accepted(self, model):
        g, _ = model
        d = g.to_dict()
        conv = next(n for n in d["nodes"] if n["name"] == "stem.conv")
        conv["attrs"].update(kh=1, kw=1, padding=0)
        ModelGraph.from_dict(d)

    # Slot, module and attention-kind fields: (mode, field path, bad value).
    WRONG_TYPE = [
        ("asr", ("channels",), "4"), ("asr", ("channels",), True),
        ("asr", ("delta_index",), None), ("asr", ("slot_id",), 3),
        ("asr", ("position",), []), ("asr", ("psi_mode",), 1),
        ("asr", ("psi_init",), "0.1"), ("asr", ("psi_init",), False),
        ("asr", ("psi_seed",), 1.5), ("asr", ("kind",), []),
        ("asr", ("kind", "variant"), 1), ("asr", ("kind", "reduction"), "x"),
        ("asr", ("kind", "kernel"), {}), ("asr", ("kind", "levels"), 2),
        ("asr", ("kind", "levels", 0), "x"), ("asr", ("kind", "levels", 1), [1, 2]),
        ("standard", ("channels",), [1, 2]), ("standard", ("channels",), 4.0),
        ("standard", ("delta_index",), "0"), ("standard", ("module_id",), None),
        ("standard", ("kind", "reduction"), None)]

    @staticmethod
    def attention_entry(mode):
        spec = AttachSpec(kind=AttentionKind("se", reduction=2), mode=mode)
        d = build_toy_resnet(1, 4, 3, spec, image_size=6).to_dict()
        return d, next(iter(d["slots" if mode == "asr" else "modules"].values()))

    @pytest.mark.parametrize("mode,path,value", WRONG_TYPE)
    def test_attention_field_of_wrong_type(self, mode, path, value):
        d, entry = self.attention_entry(mode)
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        key = path[-1] if len(path) < 3 else f"levels[{path[-1]}]"
        with pytest.raises(FormatError, match=re.escape(f"key {key!r} must be a JSON")):
            ModelGraph.from_dict(d)

    @pytest.mark.parametrize("mode,path,value,message", [
        ("asr", ("channels",), 0, "channels must be >= 1, got 0"),
        ("standard", ("channels",), -4, "channels must be >= 1, got -4"),
        ("standard", ("delta_index",), -1, "delta_index must be >= 0"),
        ("standard", ("position",), "x", "unknown position tag 'x'"),
        ("asr", ("kind", "reduction"), 0, "reduction must be >= 1, got 0"),
        ("asr", ("kind", "kernel"), 4, "kernel must be odd and >= 1, got 4"),
        ("asr", ("kind", "kernel"), -1, "kernel must be odd and >= 1, got -1"),
        ("standard", ("kind", "levels"), [], "levels must be non-empty"),
        ("asr", ("kind", "levels"), [1, 0], "levels must be non-empty and positive")])
    def test_attention_field_out_of_range(self, mode, path, value, message):
        d, entry = self.attention_entry(mode)
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        with pytest.raises(InvariantError, match=re.escape(message)):
            ModelGraph.from_dict(d)

    def test_attention_fields_at_bounds_accepted(self):
        for mode in ("asr", "standard"):
            d, entry = self.attention_entry(mode)
            entry["delta_index"] = 0
            entry["kind"].update(kernel=1, levels=[1])
            if mode == "asr":
                entry["psi_init"] = 1  # an integer is a JSON number
            ModelGraph.from_dict(d)

    @pytest.mark.parametrize("mode", ["asr", "standard"])
    def test_attention_id_must_equal_key(self, mode):
        d, entry = self.attention_entry(mode)
        entry["slot_id" if mode == "asr" else "module_id"] = "other"
        with pytest.raises(GraphError, match="declares id 'other'; they must match"):
            ModelGraph.from_dict(d)

    def test_slot_and_module_sharing_an_id(self):
        d, slot = self.attention_entry("asr")
        std, module = self.attention_entry("standard")
        attn = next(n for n in std["nodes"] if n["kind"] == "attn")
        attn.update(name="extra.attn", inputs=["block0.asr0"])
        add = next(n for n in d["nodes"] if n["kind"] == "add")
        add["inputs"][1] = "extra.attn"
        d["nodes"].insert(d["nodes"].index(add), attn)
        d["modules"] = {slot["slot_id"]: {**module, "module_id": slot["slot_id"]}}
        attn["attrs"]["module"] = slot["slot_id"]
        with pytest.raises(GraphError, match="name both a slot and a module"):
            ModelGraph.from_dict(d)
