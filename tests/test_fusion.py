"""fusion-engine: per-kind fold soundness, ReLU pass-through, whole-model
fusion with parameter parity, equivalence verification."""

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, ConvSpec, FuncModel, FusionError,
                      ShapeError, batchnorm_infer, build_toy_resnet, build_toy_vgg,
                      channel_mul, conv2d, count_params, fold_into_attention_value,
                      fold_into_bn, fold_into_conv, fold_into_fc, forward, fuse_model,
                      init_params, linear, verify_equivalence)
from attnfold.fusion import attention_value_forward


class TestFoldIntoConv:
    def test_identity_vector(self):
        rng = np.random.default_rng(0)
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        k2, b2 = fold_into_conv(k, b, np.ones(3))
        np.testing.assert_array_equal(k2.data, k)
        np.testing.assert_array_equal(b2.data, b)

    def test_scalar_case(self):
        k2, b2 = fold_into_conv(np.full((1, 1, 1, 1), 2.0), [1.0], [0.5])
        assert k2.data[0, 0, 0, 0] == 1.0
        assert b2.data[0] == 0.5

    def test_forward_equality_randomized(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(50):
            k = rng.standard_normal((4, 3, 3, 3))
            b = rng.standard_normal(4)
            v = rng.uniform(0.0, 1.0, 4)
            k2, b2 = fold_into_conv(k, b, v)
            x = rng.standard_normal((2, 3, 5, 5))
            spec = ConvSpec(stride=1, padding=1)
            fused = conv2d(x, k2, b2, spec)
            unfused = channel_mul(conv2d(x, k, b, spec), v)
            worst = max(worst, np.abs(fused.data - unfused.data).max())
        assert worst <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fold_into_conv(np.zeros((3, 2, 1, 1)), np.zeros(3), np.zeros(4))


class TestFoldIntoBn:
    def test_identity(self):
        g, b = fold_into_bn(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.ones(2))
        np.testing.assert_array_equal(g.data, [1.0, 2.0])
        np.testing.assert_array_equal(b.data, [3.0, 4.0])

    def test_zero_bias_preserved(self):
        _, b = fold_into_bn(np.ones(3), np.zeros(3), np.random.default_rng(2).uniform(0, 1, 3))
        np.testing.assert_array_equal(b.data, np.zeros(3))

    def test_forward_equality_randomized(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            gamma = rng.standard_normal(4)
            beta = rng.standard_normal(4)
            mu = rng.standard_normal(4)
            var = rng.uniform(0.1, 2.0, 4)
            v = rng.uniform(0.0, 1.0, 4)
            g2, b2 = fold_into_bn(gamma, beta, v)
            x = rng.standard_normal((3, 4, 4, 4))
            fused = batchnorm_infer(x, mu, var, g2.data, b2.data)
            unfused = channel_mul(batchnorm_infer(x, mu, var, gamma, beta), v)
            worst = max(worst, np.abs(fused.data - unfused.data).max())
        assert worst <= 1e-12


class TestFoldIntoFc:
    def test_identity(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        w2, b2 = fold_into_fc(w, b, np.ones(3))
        np.testing.assert_array_equal(w2.data, w)
        np.testing.assert_array_equal(b2.data, b)

    def test_diag_example(self):
        w2, _ = fold_into_fc(np.eye(2), np.zeros(2), np.array([2.0, 3.0]))
        np.testing.assert_array_equal(w2.data, np.diag([2.0, 3.0]))

    def test_forward_equality_randomized(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(50):
            w = rng.standard_normal((4, 6))
            b = rng.standard_normal(4)
            v = rng.uniform(0.0, 1.0, 4)
            w2, b2 = fold_into_fc(w, b, v)
            x = rng.standard_normal((3, 6))
            fused = linear(x, w2, b2)
            unfused = channel_mul(linear(x, w, b), v)
            worst = max(worst, np.abs(fused.data - unfused.data).max())
        assert worst <= 1e-12


class TestFoldIntoAttentionValue:
    def test_identity(self):
        w = np.random.default_rng(6).standard_normal((4, 4))
        np.testing.assert_array_equal(fold_into_attention_value(w, np.ones(4)).data, w)

    def test_scalar_case(self):
        got = fold_into_attention_value(np.full((1, 1), 2.0), [3.0])
        assert got.data[0, 0] == 6.0

    def test_forward_equality_randomized(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            d, dk, n = 5, 4, 6
            wq = rng.standard_normal((dk, d))
            wk = rng.standard_normal((dk, d))
            wv = rng.standard_normal((dk, d))
            v = rng.uniform(0.0, 1.0, dk)
            x = rng.standard_normal((n, d))
            unfused = attention_value_forward(wq, wk, wv, x).data * v
            fused = attention_value_forward(wq, wk, fold_into_attention_value(wv, v).data, x).data
            worst = max(worst, np.abs(fused - unfused).max())
        assert worst <= 1e-12


def _train_a_little(graph, params, steps=3, seed=0):
    """A few SGD steps so BN running stats and weights move off init."""
    from attnfold import backward, cross_entropy, forward as fwd, sgd_step
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = rng.standard_normal((8, *graph.input_shape))
        y = rng.integers(0, graph.classes, 8)
        logits, tape = fwd(graph, params, x, mode="train")
        loss, dlog = cross_entropy(logits, y)
        params.zero_grads()
        backward(tape, dlog)
        for name in sorted(params.trainable):
            params.values[name], _ = sgd_step(
                params.values[name], params.grads[name],
                np.zeros_like(params.values[name]), 0.05)
    return graph, params


POSITIONS = ("after_conv1", "after_bn1", "after_last_bn", "after_relu")


class TestFuseModel:
    def test_no_slots_is_identity(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        p = init_params(g, seed=0)
        g2, p2, report = fuse_model(g, p, verify_samples=10)
        assert [n.name for n in g2.nodes] == [n.name for n in g.nodes]
        assert report.rows == []
        assert report.max_deviation == 0.0

    def test_v_near_one_keeps_params(self):
        spec = AttachSpec(kind=AttentionKind("no_body"), psi_mode="frozen_constant",
                          psi_init=45.0)
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=1)
        g2, p2, _ = fuse_model(g, p, verify_samples=5)
        np.testing.assert_allclose(p2.values["block0.bn2.gamma"],
                                   p.values["block0.bn2.gamma"], atol=1e-12)

    @pytest.mark.parametrize("position", POSITIONS)
    def test_resnet_se_positions(self, position):
        spec = AttachSpec(kind=AttentionKind("se", reduction=2), position=position)
        g = build_toy_resnet(2, 4, 3, spec, image_size=6)
        p = init_params(g, seed=2)
        _train_a_little(g, p, seed=3)
        g2, p2, report = fuse_model(g, p, verify_samples=50, seed=4)
        assert report.max_deviation <= 1e-9
        baseline = build_toy_resnet(2, 4, 3, None, image_size=6)
        assert count_params(g2) == count_params(baseline)
        assert not g2.slots
        expected_kind = {"after_conv1": "into_conv", "after_bn1": "into_bn",
                         "after_last_bn": "into_bn", "after_relu": "into_bn"}[position]
        assert {r.fold_kind for r in report.rows} == {expected_kind}
        assert all(r.through_relu == (position == "after_relu") for r in report.rows)

    @pytest.mark.parametrize("position", POSITIONS)
    def test_vgg_positions(self, position):
        spec = AttachSpec(kind=AttentionKind("ie"), position=position)
        g = build_toy_vgg(2, 4, 3, spec, image_size=8)
        p = init_params(g, seed=5)
        _train_a_little(g, p, seed=6)
        g2, p2, report = fuse_model(g, p, verify_samples=50, seed=7)
        assert report.max_deviation <= 1e-9
        baseline = build_toy_vgg(2, 4, 3, None, image_size=8)
        assert count_params(g2) == count_params(baseline)

    def test_delta_sequential_equals_product_fold(self):
        spec = AttachSpec(kind=AttentionKind("ie"), delta=3)
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=8)
        from attnfold.attention import asr_vector_raw
        prod = np.ones(4)
        for sid in sorted(g.slots):
            v, _ = asr_vector_raw(g.slots[sid], p.values)
            prod = prod * v
        g2, p2, report = fuse_model(g, p, verify_samples=20, seed=9)
        expected_gamma = p.values["block0.bn2.gamma"] * prod
        np.testing.assert_allclose(p2.values["block0.bn2.gamma"], expected_gamma,
                                   atol=1e-12)
        assert report.max_deviation <= 1e-9

    def test_unfoldable_slot_names_it(self):
        from attnfold import LayerNode, ModelGraph
        from attnfold.attention import AsrSlot
        slot = AsrSlot(slot_id="s0", kind=AttentionKind("ie"), channels=3)
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("s0", "asr", ["input"], {"slot": "s0"})],
                       slots={"s0": slot}, input_shape=(3, 4, 4), classes=3)
        p = init_params(g, seed=10)
        with pytest.raises(FusionError, match="s0"):
            fuse_model(g, p, verify_samples=0)

    def test_shared_target_rejected(self):
        # the fold target also feeds a second consumer: folding would leak
        from attnfold import LayerNode, ModelGraph
        from attnfold.attention import AsrSlot
        slot = AsrSlot(slot_id="s0", kind=AttentionKind("ie"), channels=3)
        nodes = [LayerNode("input", "input"),
                 LayerNode("bn", "bn", ["input"], {"channels": 3}),
                 LayerNode("s0", "asr", ["bn"], {"slot": "s0"}),
                 LayerNode("sum", "add", ["bn", "s0"])]
        g = ModelGraph(nodes=nodes, slots={"s0": slot}, input_shape=(3, 4, 4),
                       classes=3)
        p = init_params(g, seed=11)
        with pytest.raises(FusionError, match="leak"):
            fuse_model(g, p, verify_samples=0)

    def test_through_relu_fuse_within_1e12(self):
        # the pass-through is algebraically exact; only rounding remains
        spec = AttachSpec(kind=AttentionKind("se", reduction=2),
                          position="after_relu")
        g = build_toy_resnet(2, 4, 3, spec, image_size=6)
        p = init_params(g, seed=20)
        _train_a_little(g, p, seed=21)
        g2, p2, _ = fuse_model(g, p, verify_samples=0)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((8, 3, 6, 6))
        a, _ = forward(g, p, x, mode="eval")
        b, _ = forward(g2, p2, x, mode="eval")
        assert np.abs(a.data - b.data).max() <= 1e-12

    def test_fused_graph_has_baseline_param_names(self):
        spec = AttachSpec(kind=AttentionKind("srm"))
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=11)
        g2, p2, _ = fuse_model(g, p, verify_samples=0)
        baseline = build_toy_resnet(1, 4, 3, None, image_size=6)
        pb = init_params(baseline, seed=11)
        assert set(p2.values) == set(pb.values)


class TestVerifyEquivalence:
    def test_model_vs_itself_is_zero(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        p = init_params(g, seed=12)
        assert verify_equivalence((g, p), (g, p), n=10, seed=0) == 0.0

    def test_perturbed_weight_detected(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        p = init_params(g, seed=13)
        p2 = p.copy()
        p2.values["head.w"] = p2.values["head.w"].copy()
        p2.values["head.w"][0, 0] += 1.0
        dev = verify_equivalence((g, p), (g, p2), n=10, seed=1)
        assert dev > 1e-9

    def test_signature_mismatch(self):
        g1 = build_toy_resnet(1, 4, 3, None, image_size=6)
        g2 = build_toy_resnet(1, 4, 3, None, image_size=8)
        with pytest.raises(ShapeError, match="signature"):
            verify_equivalence((g1, init_params(g1, 0)), (g2, init_params(g2, 0)), n=2)

    def test_func_model_adapter(self):
        m1 = FuncModel(fn=lambda x: 2.0 * x, input_shape=(3,))
        m2 = FuncModel(fn=lambda x: 2.0 * x + 1e-6, input_shape=(3,))
        dev = verify_equivalence(m1, m2, n=5, seed=2)
        # absolute gap 1e-6 scaled by the per-input 1 + |a|_inf denominator
        assert 1e-7 < dev < 1e-6

    def test_tol_raises(self):
        from attnfold import InvariantError
        m1 = FuncModel(fn=lambda x: x, input_shape=(2,))
        m2 = FuncModel(fn=lambda x: x + 1.0, input_shape=(2,))
        with pytest.raises(InvariantError, match="deviation"):
            verify_equivalence(m1, m2, n=3, seed=3, tol=1e-9)

    def test_tol_fails_closed_on_nan(self):
        from attnfold import InvariantError
        m1 = FuncModel(fn=lambda x: x, input_shape=(2,))
        m2 = FuncModel(fn=lambda x: np.full_like(x, np.nan), input_shape=(2,))
        with pytest.raises(InvariantError, match="deviation"):
            verify_equivalence(m1, m2, n=3, seed=3, tol=1e-9)


class TestFusionReportCsv:
    def test_columns(self):
        spec = AttachSpec(kind=AttentionKind("ie"))
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=14)
        _, _, report = fuse_model(g, p, verify_samples=5)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "slot_id,fold_kind,target_layer,through_relu,max_dev"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "block0.asr0"
        assert cells[1] == "into_bn"
        assert cells[2] == "block0.bn2"
