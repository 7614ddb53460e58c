"""backbones: parameter-count oracles, position/kind coverage, chains."""

import hashlib
import json

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, GraphError, InvariantError,
                      build_residual_chain, build_toy_resnet, build_toy_vgg,
                      count_flops_conv, count_params, forward, fuse_model,
                      init_params)
from attnfold.backbones import chain_blocks
from attnfold.graph import LayerNode, ModelGraph


def resnet_param_formula(blocks, width, classes, in_ch=3):
    """Hand-counted: stem conv+bn, per block 2x(conv+bn), head linear."""
    conv = lambda ci, co: co * ci * 9 + co
    bn = lambda c: 2 * c
    total = conv(in_ch, width) + bn(width)
    total += blocks * (2 * conv(width, width) + 2 * bn(width))
    total += classes * width + classes
    return total


def vgg_param_formula(stages, width, classes, in_ch=3):
    conv = lambda ci, co: co * ci * 9 + co
    bn = lambda c: 2 * c
    total = 0
    ch = in_ch
    for _ in range(stages):
        total += conv(ch, width) + bn(width)
        ch = width
    total += classes * width + classes
    return total


KINDS = [AttentionKind("se", reduction=2), AttentionKind("ie"),
         AttentionKind("srm"), AttentionKind("spa", levels=(1, 2)),
         AttentionKind("eca", kernel=3), AttentionKind("cbam", reduction=2)]

POSITIONS = ("after_conv1", "after_bn1", "after_last_bn", "after_relu")


class TestCounts:
    def test_single_conv_is_ten_params(self):
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("c", "conv", ["input"],
                                        {"in_ch": 1, "out_ch": 1, "kh": 3, "kw": 3,
                                         "stride": 1, "padding": 1})],
                       input_shape=(1, 4, 4), classes=1)
        assert count_params(g) == 10

    def test_linear_4_to_3(self):
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("l", "linear", ["input"],
                                        {"in_dim": 4, "out_dim": 3})],
                       input_shape=(4,), classes=3)
        assert count_params(g) == 15

    def test_resnet_matches_formula(self):
        for blocks, width, classes in [(1, 4, 3), (3, 8, 5), (2, 16, 10)]:
            g = build_toy_resnet(blocks, width, classes, None, image_size=8)
            assert count_params(g) == resnet_param_formula(blocks, width, classes)

    def test_vgg_matches_formula(self):
        g = build_toy_vgg(2, 8, 5, None, image_size=8)
        assert count_params(g) == vgg_param_formula(2, 8, 5)

    def test_resnet_recount_oracle(self):
        g = build_toy_resnet(2, 4, 3, AttachSpec(kind=AttentionKind("se", reduction=2)),
                             image_size=8)
        p = init_params(g, seed=0)
        assert count_params(g) == sum(p.values[n].size for n in p.values
                                      if not n.endswith("running_mean")
                                      and not n.endswith("running_var"))

    def test_conv_macs_closed_form(self):
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("c", "conv", ["input"],
                                        {"in_ch": 3, "out_ch": 4, "kh": 3, "kw": 3,
                                         "stride": 1, "padding": 1})],
                       input_shape=(3, 8, 8), classes=1)
        assert count_flops_conv(g) == 4 * 3 * 3 * 3 * 8 * 8

    def test_macs_include_linear(self):
        g = build_toy_vgg(1, 4, 3, None, image_size=4)
        convs = 4 * 3 * 9 * 4 * 4
        head = 3 * 4
        assert count_flops_conv(g) == convs + head


class TestBuilders:
    def test_depth_must_be_positive(self):
        with pytest.raises(InvariantError):
            build_toy_resnet(0, 4, 3)

    def test_vgg_size_divisibility(self):
        with pytest.raises(InvariantError):
            build_toy_vgg(3, 4, 3, image_size=12)

    def test_forward_on_zero_input_is_finite(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        p = init_params(g, seed=0)
        logits, _ = forward(g, p, np.zeros((1, 3, 6, 6)))
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.variant)
    @pytest.mark.parametrize("position", POSITIONS)
    def test_every_kind_and_position_builds_and_fuses(self, kind, position):
        spec = AttachSpec(kind=kind, position=position)
        for builder, size in ((build_toy_resnet, 8), (build_toy_vgg, 8)):
            g = builder(2, 4, 3, spec, image_size=size)
            p = init_params(g, seed=1)
            g2, p2, report = fuse_model(g, p, verify_samples=10, seed=2)
            assert report.max_deviation <= 1e-9
            baseline = builder(2, 4, 3, None, image_size=size)
            assert count_params(g2) == count_params(baseline)

    def test_asr_params_add_then_fuse_away(self):
        spec = AttachSpec(kind=AttentionKind("se", reduction=2))
        g = build_toy_resnet(2, 8, 3, spec, image_size=8)
        baseline = build_toy_resnet(2, 8, 3, None, image_size=8)
        assert count_params(g) > count_params(baseline)
        p = init_params(g, seed=3)
        g2, _, _ = fuse_model(g, p, verify_samples=0)
        assert count_params(g2) == count_params(baseline)

    def test_delta_stacks_slots(self):
        spec = AttachSpec(kind=AttentionKind("ie"), delta=3)
        g = build_toy_resnet(2, 4, 3, spec, image_size=6)
        assert len(g.slots) == 6
        deltas = sorted(s.delta_index for s in g.slots.values())
        assert deltas == [0, 0, 1, 1, 2, 2]

    def test_standard_mode_builds_modules(self):
        spec = AttachSpec(kind=AttentionKind("se", reduction=2), mode="standard")
        g = build_toy_resnet(2, 4, 3, spec, image_size=6)
        assert len(g.modules) == 2 and not g.slots

    def test_graph_json_is_pinned(self):
        """Node names and order, slot and module ids and psi seeds of every
        builder placement, pinned by digest: 2 builders x 1-3 blocks x (no
        attachment, kind None, 2 modes x 4 positions x delta 1-2)."""
        kind = AttentionKind("se", reduction=2)
        specs = [None, AttachSpec()] + [
            AttachSpec(kind=kind, mode=mode, position=pos, delta=d, psi_seed=5)
            for mode in ("asr", "standard") for pos in POSITIONS for d in (1, 2)]
        digest = hashlib.sha256()
        for builder in (build_toy_resnet, build_toy_vgg):
            for blocks in (1, 2, 3):
                for spec in specs:
                    g = builder(blocks, 4, 3, spec)
                    digest.update(json.dumps(g.to_dict(), sort_keys=True,
                                             separators=(",", ":")).encode())
        assert digest.hexdigest() == (
            "7ab04dfd61add972be42cb10b30df20af15cbbc6aa65b3222c8d0ce7571cd883")


class TestResidualChain:
    def test_blocks_decompose(self):
        g = build_residual_chain(4, 6, psi_seed=5)
        blocks = chain_blocks(g)
        assert [b["index"] for b in blocks] == [0, 1, 2, 3]
        assert all(b["slot"] is not None for b in blocks)

    def test_without_slots(self):
        g = build_residual_chain(3, 5, with_slots=False)
        blocks = chain_blocks(g)
        assert all(b["slot"] is None for b in blocks)

    def test_forward_matches_manual_recurrence(self):
        g = build_residual_chain(3, 5, psi_seed=7)
        p = init_params(g, seed=8)
        x = np.random.default_rng(9).standard_normal((2, 5))
        out, _ = forward(g, p, x)
        h = x.copy()
        from attnfold.attention import asr_vector_raw
        for t in range(3):
            w = p.values[f"block{t}.lin.w"]
            b = p.values[f"block{t}.lin.b"]
            v, _ = asr_vector_raw(g.slots[f"block{t}.asr0"], p.values)
            h = h + np.maximum(h @ w.T + b, 0.0) * v
        np.testing.assert_allclose(out.data, h, atol=1e-12)

    def test_non_chain_rejected(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        with pytest.raises(GraphError):
            chain_blocks(g)
