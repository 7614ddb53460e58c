"""graph: the remove_node rewrite, byte-stable initialization and the
shapes, tensors and MACs the layer walk yields."""

import hashlib

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, GraphError, build_residual_chain,
                      build_toy_resnet, build_toy_vgg, init_params)
from attnfold.graph import (all_param_shapes, count_flops_conv, count_params,
                            infer_shapes, remove_node, validate_graph)


def se_resnet(mode="asr", delta=1):
    spec = AttachSpec(kind=AttentionKind("se", reduction=2), mode=mode, delta=delta)
    g = build_toy_resnet(1, 4, 3, spec, image_size=6)
    return g, init_params(g, seed=0)


def consumers_of(graph, name):
    return [n.name for n in graph.nodes if name in n.inputs]


class TestRemoveNode:
    def test_asr_node(self):
        g, p = se_resnet()
        before = set(p.values)
        remove_node(g, p, "block0.asr0")
        gone = {"block0.asr0.w1", "block0.asr0.w2", "block0.asr0.psi"}
        assert set(p.values) == before - gone
        assert not gone & p.trainable
        assert g.slots == {}
        assert "block0.asr0" not in [n.name for n in g.nodes]
        assert g.node("block0.add").inputs == ["stem.relu", "block0.bn2"]
        validate_graph(g)

    def test_attn_node(self):
        g, p = se_resnet("standard")
        remove_node(g, p, "block0.attn0")
        assert g.modules == {}
        assert not [n for n in p.values if n.startswith("block0.attn0.")]
        assert not [n for n in p.trainable if n.startswith("block0.attn0.")]
        validate_graph(g)

    def test_bn_node_drops_running_statistics(self):
        g, p = se_resnet()
        remove_node(g, p, "stem.bn")
        assert not [n for n in p.values if n.startswith("stem.bn.")]
        assert p.trainable.isdisjoint({"stem.bn.gamma", "stem.bn.beta"})
        assert g.node("stem.relu").inputs == ["stem.conv"]
        validate_graph(g)

    def test_every_consumer_rewired(self):
        g, p = se_resnet()
        # stem.relu feeds block0.conv1 and the skip input of block0.add
        assert consumers_of(g, "stem.relu") == ["block0.conv1", "block0.add"]
        remove_node(g, p, "stem.relu")
        assert consumers_of(g, "stem.bn") == ["block0.conv1", "block0.add"]
        assert g.node("block0.add").inputs == ["stem.bn", "block0.asr0"]
        validate_graph(g)

    def test_stacked_slots(self):
        g, p = se_resnet(delta=2)
        remove_node(g, p, "block0.asr0")
        assert g.node("block0.asr1").inputs == ["block0.bn2"]
        remove_node(g, p, "block0.asr1")
        assert g.node("block0.add").inputs == ["stem.relu", "block0.bn2"]
        validate_graph(g)

    def test_unknown_name(self):
        g, p = se_resnet()
        with pytest.raises(GraphError, match="'nope'"):
            remove_node(g, p, "nope")

    def test_multi_input_node_rejected(self):
        g, p = se_resnet()
        with pytest.raises(GraphError, match="'block0.add' has 2 inputs"):
            remove_node(g, p, "block0.add")


# sha256 of init_params(graph, seed=0) over sorted tensor names, shapes,
# trainable flags and bytes, recorded before the initializer was rewritten
# as one rule keyed on the tensor's role.
INIT_DIGESTS = {
    "se_asr_resnet": (
        lambda: build_toy_resnet(2, 8, 4, AttachSpec(kind=AttentionKind("se", reduction=2),
                                                     delta=2), image_size=8),
        "0217ad5867de7c0d80a8012eecc0cdde375be718001103e7f285561a3cae8896"),
    "cbam_standard_resnet": (
        lambda: build_toy_resnet(1, 8, 3, AttachSpec(kind=AttentionKind("cbam", reduction=4),
                                                     mode="standard", position="after_bn1"),
                                 image_size=8),
        "90a66cc0336730e34b3baf355a05fc4a922180ea77a590a39e90d97ce1c8070d"),
    "spa_vgg": (
        lambda: build_toy_vgg(2, 4, 3, AttachSpec(kind=AttentionKind("spa", levels=(1, 2)),
                                                  psi_mode="frozen_gaussian", psi_init=0.5,
                                                  psi_seed=3), image_size=8),
        "1428ca4d38f069bb79cb0023936f64dea99edcbab7eea6bee7f7a4e07410acdc"),
    "eca_asr_resnet": (
        lambda: build_toy_resnet(1, 6, 3, AttachSpec(kind=AttentionKind("eca", kernel=3),
                                                     position="after_relu"), image_size=6),
        "bb25495b8b5bba3df6d4dd388f5c19d502bc464225251d49b3560c5da910b3ac"),
    "chain": (
        lambda: build_residual_chain(3, 6, psi_seed=7),
        "43924799eab19fa449afc18f01957ddd373a6e134c1c84561c2b316676389ba7"),
}


class TestInitBytes:
    @pytest.mark.parametrize("name", sorted(INIT_DIGESTS))
    def test_digest_pinned(self, name):
        build, want = INIT_DIGESTS[name]
        p = init_params(build(), seed=0)
        h = hashlib.sha256()
        for tensor in sorted(p.values):
            arr = p.values[tensor]
            h.update(f"{tensor} {arr.shape} {tensor in p.trainable}\n".encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == want

    def test_values_in_node_order(self):
        g, p = se_resnet()
        assert list(p.values)[:6] == ["stem.conv.k", "stem.conv.b", "stem.bn.gamma",
                                      "stem.bn.beta", "stem.bn.running_mean",
                                      "stem.bn.running_var"]

    def test_roles(self):
        g, p = se_resnet()
        v = p.values
        assert (v["stem.bn.gamma"] == 1).all() and (v["stem.bn.running_var"] == 1).all()
        assert (v["stem.bn.beta"] == 0).all() and (v["stem.bn.running_mean"] == 0).all()
        assert (v["stem.conv.b"] == 0).all() and (v["head.b"] == 0).all()
        assert np.array_equal(v["block0.asr0.psi"], g.slots["block0.asr0"].init_psi())
        assert "block0.asr0.psi" in p.trainable
        assert "stem.bn.running_mean" not in p.trainable


# sha256 of infer_shapes, both maps of all_param_shapes (in order), count_params
# and count_flops_conv of each INIT_DIGESTS graph, recorded before the
# per-kind shape, tensor and MAC chains became one layer walk.
WALK_DIGESTS = {
    "se_asr_resnet":
        "a7c77c6e58f166b65eacbc01c1acb73e0e8816e7284e66fc85828f9a3d6184e3",
    "cbam_standard_resnet":
        "9ad694d8f9f31d3dd3372342d6e31f25b45e9213ba86a5644ad003d75e3d0264",
    "spa_vgg":
        "403fb94f85037f083ce708ed89f089edfce937c56690fef1ce52ea679461e6de",
    "eca_asr_resnet":
        "188b1ef332559bfe09f1d342ee9d49bca95c3285b6fced6c73914533fb724153",
    "chain":
        "faae5ff76bb50530e110e390714b504a50b8680cffa7bcd9950a63cef9567aac",
}


def walk_digest(g):
    trainable, state = all_param_shapes(g)
    facts = [list(infer_shapes(g).items()), list(trainable.items()), list(state.items()),
             count_params(g), count_flops_conv(g)]
    return hashlib.sha256(repr(facts).encode()).hexdigest()


class TestLayerWalk:
    @pytest.mark.parametrize("name", sorted(WALK_DIGESTS))
    def test_digest_pinned(self, name):
        assert walk_digest(INIT_DIGESTS[name][0]()) == WALK_DIGESTS[name]


class TestOneWalk:
    """Loading and initializing a graph walk its layers once."""

    @pytest.fixture
    def layer_calls(self, monkeypatch):
        import attnfold.graph as graph_mod
        calls = []
        layer = graph_mod._layer

        def counting(graph, node, ins):
            calls.append(node.name)
            return layer(graph, node, ins)

        monkeypatch.setattr(graph_mod, "_layer", counting)
        return calls

    @staticmethod
    def model():
        spec = AttachSpec(kind=AttentionKind("se", reduction=2), delta=1)
        return build_toy_resnet(2, 4, 3, spec, image_size=6)

    def test_init_params_walks_once(self, layer_calls):
        g = self.model()
        layer_calls.clear()
        init_params(g, seed=0)
        assert sorted(layer_calls) == sorted(n.name for n in g.nodes[1:])

    def test_load_checkpoint_walks_once(self, layer_calls, tmp_path):
        from attnfold import load_checkpoint, save_checkpoint
        g = self.model()
        save_checkpoint(tmp_path / "m.ckpt", g, init_params(g, seed=0))
        layer_calls.clear()
        g2, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert sorted(layer_calls) == sorted(n.name for n in g2.nodes[1:])

    def test_validate_graph_returns_the_walk(self):
        from attnfold.graph import layer_walk
        g = self.model()
        assert validate_graph(g) == layer_walk(g)
