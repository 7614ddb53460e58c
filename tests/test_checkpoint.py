"""checkpoint container: bitwise round-trips, manifest validation."""

import json

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, FormatError, LayerNode, ModelGraph,
                      build_toy_resnet, init_params, load_checkpoint, save_checkpoint)


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
        with pytest.raises(FormatError, match="payload"):
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
        parts = lines[tensor_lines[1]].split(" ")
        parts[3] = "0"
        lines[tensor_lines[1]] = " ".join(parts)
        f.write_bytes(("\n".join(lines) + "\n").encode() + b"payload " + payload)
        with pytest.raises(FormatError, match="overlap"):
            load_checkpoint(f)

    def test_missing_tensor(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        del p.values["head.b"]
        p.trainable.discard("head.b")
        save_checkpoint(f, g, p)
        with pytest.raises(FormatError, match="missing"):
            load_checkpoint(f)

    def test_version_check(self, model, tmp_path):
        g, p = model
        f = tmp_path / "m.ckpt"
        save_checkpoint(f, g, p)
        blob = f.read_bytes().replace(b"attnfold-checkpoint 1", b"attnfold-checkpoint 9", 1)
        f.write_bytes(blob)
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(f)


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
