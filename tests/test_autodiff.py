"""autodiff: forward wiring oracles, finite-difference gradient checks,
cross-entropy against the scalar formula."""

import tracemalloc

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, GraphError, InvariantError,
                      LayerNode, ModelGraph, StateError, backward, batchnorm_infer,
                      build_toy_resnet, conv2d, cross_entropy, forward,
                      global_avg_pool, init_params, linear, relu, ConvSpec)
from attnfold.attention import AsrSlot
from attnfold.graph import BN_EPS

from helpers import check_param_gradients


def tiny_graph(nodes, slots=None, input_shape=(4,), classes=4, modules=None):
    g = ModelGraph(nodes=[LayerNode("input", "input")] + nodes,
                   slots=slots or {}, modules=modules or {},
                   input_shape=input_shape, classes=classes)
    return g


class TestForward:
    def test_empty_graph_is_identity(self):
        g = tiny_graph([], input_shape=(5,), classes=5)
        params = init_params(g, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 5))
        logits, _ = forward(g, params, x)
        np.testing.assert_array_equal(logits.data, x)

    def test_identity_linear(self):
        g = tiny_graph([LayerNode("head", "linear", ["input"],
                                  {"in_dim": 4, "out_dim": 4})])
        params = init_params(g, seed=0)
        params.values["head.w"] = np.eye(4)
        params.values["head.b"] = np.zeros(4)
        x = np.random.default_rng(1).standard_normal((2, 4))
        logits, _ = forward(g, params, x)
        np.testing.assert_allclose(logits.data, x, atol=1e-15)

    def test_resnet_matches_manual_composition(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        params = init_params(g, seed=7)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 6, 6))
        logits, _ = forward(g, params, x, mode="eval")

        def bn(name, t):
            return batchnorm_infer(t, params.values[f"{name}.running_mean"],
                                   params.values[f"{name}.running_var"],
                                   params.values[f"{name}.gamma"],
                                   params.values[f"{name}.beta"], BN_EPS)

        def conv(name, t):
            return conv2d(t, params.values[f"{name}.k"], params.values[f"{name}.b"],
                          ConvSpec(stride=1, padding=1))

        h = relu(bn("stem.bn", conv("stem.conv", x)))
        skip = h.data
        h = relu(bn("block0.bn1", conv("block0.conv1", h)))
        h = bn("block0.bn2", conv("block0.conv2", h))
        h = relu(skip + h.data)
        out = linear(global_avg_pool(h), params.values["head.w"],
                     params.values["head.b"])
        np.testing.assert_allclose(logits.data, out.data, atol=1e-12)

    def test_shape_error_names_layer(self):
        g = tiny_graph([LayerNode("head", "linear", ["input"],
                                  {"in_dim": 4, "out_dim": 2})], classes=2)
        params = init_params(g, seed=0)
        with pytest.raises(GraphError, match="input shape"):
            forward(g, params, np.zeros((2, 5)))

    def test_train_bn_uses_batch_stats_and_updates_running(self):
        g = tiny_graph([LayerNode("bn", "bn", ["input"], {"channels": 3})],
                       input_shape=(3, 4, 4), classes=3)
        params = init_params(g, seed=0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3, 4, 4)) * 2.0 + 1.0
        out, _ = forward(g, params, x, mode="train")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        expected = (x - mean[None, :, None, None]) / np.sqrt(var + BN_EPS)[None, :, None, None]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        m = x.size // 3
        np.testing.assert_allclose(params.values["bn.running_mean"], 0.1 * mean,
                                   atol=1e-12)
        np.testing.assert_allclose(params.values["bn.running_var"],
                                   0.9 * 1.0 + 0.1 * var * m / (m - 1), atol=1e-12)


def se_resnet(blocks, width, image_size, delta=1):
    spec = AttachSpec(kind=AttentionKind("se", reduction=2), delta=delta)
    return build_toy_resnet(blocks, width, 3, spec, image_size=image_size)


class TestLiveness:
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_tape_holds_output_and_keep_only(self, mode):
        g = se_resnet(1, 4, 6)
        params = init_params(g, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 3, 6, 6))
        _, tape = forward(g, params, x, mode=mode)
        assert set(tape.values) == {g.output_name}
        keep = {"input", "stem.relu", "block0.asr0"}
        logits, tape = forward(g, params, x, mode=mode, keep=keep)
        assert set(tape.values) == keep | {g.output_name}
        np.testing.assert_array_equal(tape.values[g.output_name], logits.data)
        np.testing.assert_array_equal(tape.values["input"], x)

    def test_kept_value_is_the_nodes_output(self):
        g = se_resnet(1, 4, 6)
        params = init_params(g, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 3, 6, 6))
        _, tape = forward(g, params, x, keep=["gap"])
        head = LayerNode("head", "linear", ["input"], g.node("head").attrs)
        head_of_gap = forward(tiny_graph([head], input_shape=(4,), classes=3),
                              params, tape.values["gap"])[0]
        np.testing.assert_array_equal(head_of_gap.data, tape.values["head"])

    def test_unknown_keep_name(self):
        g = se_resnet(1, 4, 6)
        params = init_params(g, seed=0)
        with pytest.raises(GraphError, match="'no.such.node'"):
            forward(g, params, np.zeros((1, 3, 6, 6)), keep=["stem.conv", "no.such.node"])

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_add_reading_one_input_twice(self, mode):
        nodes = [LayerNode("twice", "add", ["input", "input"]),
                 LayerNode("head", "linear", ["twice"], {"in_dim": 4, "out_dim": 4})]
        g = tiny_graph(nodes)
        params = init_params(g, seed=0)
        params.values["head.w"] = np.eye(4)
        params.values["head.b"] = np.zeros(4)
        x = np.random.default_rng(2).standard_normal((3, 4))
        logits, tape = forward(g, params, x, mode=mode)
        np.testing.assert_array_equal(logits.data, 2 * x)
        assert set(tape.values) == {"head"}
        if mode == "train":
            params.zero_grads()
            backward(tape, np.ones((3, 4)))
            np.testing.assert_array_equal(params.grads["head.w"],
                                          np.ones((4, 1)) * (2 * x).sum(axis=0))

    def test_unconsumed_node_is_released(self):
        nodes = [LayerNode("dead", "relu", ["input"]),
                 LayerNode("head", "linear", ["input"], {"in_dim": 4, "out_dim": 4})]
        g = tiny_graph(nodes)
        _, tape = forward(g, init_params(g, seed=0), np.ones((1, 4)))
        assert set(tape.values) == {"head"}

    def test_release_changes_no_gradient_or_running_stat(self):
        g = se_resnet(1, 4, 6)
        x = np.random.default_rng(3).standard_normal((4, 3, 6, 6))
        y = np.array([0, 2, 1, 2])
        results = []
        for keep in ((), [n.name for n in g.nodes]):
            params = init_params(g, seed=4)
            logits, tape = forward(g, params, x, mode="train", keep=keep)
            _, dlogits = cross_entropy(logits, y)
            params.zero_grads()
            backward(tape, dlogits)
            results.append(({n: v.tobytes() for n, v in params.grads.items()},
                            {n: v.tobytes() for n, v in params.values.items()
                             if n.endswith((".running_mean", ".running_var"))},
                            logits.data.tobytes()))
        assert len(results[1][0]) == len(params.trainable)
        assert results[0] == results[1]

    def test_eval_peak_memory_does_not_grow_with_depth(self):
        # Width-16 SE ResNet with two slots per block, batch 64 at 16x16. When
        # every activation lived until forward returned, the tracemalloc peak
        # of one eval forward was 54.6 MB at 2 blocks and 73.5 MB at 3
        # (numpy 2.4, x allocated before tracing). Releasing each value after
        # its last consumer gives 27.3 MB at 2, 3 and 4 blocks: one conv's
        # 18.9 MB patch matrix plus four 2.1 MB activations.
        x = np.random.default_rng(5).standard_normal((64, 3, 16, 16))
        peaks = {}
        for blocks in (3, 4):
            g = se_resnet(blocks, 16, 16, delta=2)
            params = init_params(g, seed=6)
            forward(g, params, x)  # fill the patch-index cache outside the trace
            tracemalloc.start()
            try:
                forward(g, params, x)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] < 73_473_305 / 2
        activation = 64 * 16 * 16 * 16 * 8
        assert abs(peaks[4] - peaks[3]) < activation


class TestBackwardBasics:
    def test_sigmoid_derivative_at_zero(self):
        from attnfold.kernels import sigmoid, sigmoid_grad
        y = sigmoid(np.array([0.0]))
        assert sigmoid_grad(y)[0] == pytest.approx(0.25)

    def test_linear_sum_loss_gradient_is_outer(self):
        g = tiny_graph([LayerNode("head", "linear", ["input"],
                                  {"in_dim": 3, "out_dim": 2})], input_shape=(3,),
                       classes=2)
        params = init_params(g, seed=0)
        x = np.array([[1.0, -2.0, 0.5]])
        _, tape = forward(g, params, x, mode="train")
        params.zero_grads()
        backward(tape, np.ones((1, 2)))
        np.testing.assert_allclose(params.grads["head.w"],
                                   np.outer(np.ones(2), x[0]), atol=1e-15)
        np.testing.assert_allclose(params.grads["head.b"], np.ones(2), atol=1e-15)

    def test_backward_requires_train_tape(self):
        g = tiny_graph([], input_shape=(2,), classes=2)
        params = init_params(g, seed=0)
        _, tape = forward(g, params, np.zeros((1, 2)), mode="eval")
        with pytest.raises(StateError):
            backward(tape, np.zeros((1, 2)))


def layer_graph(kind, attrs, input_shape, extra=None):
    nodes = [LayerNode("layer", kind, ["input"], attrs)]
    return tiny_graph(nodes + (extra or []), input_shape=input_shape)


class TestGradientsPerLayer:
    def test_conv(self):
        g = layer_graph("conv", {"in_ch": 2, "out_ch": 3, "kh": 3, "kw": 3,
                                 "stride": 1, "padding": 1}, (2, 5, 5))
        params = init_params(g, seed=1)
        x = np.random.default_rng(10).standard_normal((2, 2, 5, 5))
        check_param_gradients(g, params, x, proj_seed=0)

    def test_conv_strided(self):
        g = layer_graph("conv", {"in_ch": 2, "out_ch": 2, "kh": 3, "kw": 3,
                                 "stride": 2, "padding": 1}, (2, 6, 6))
        params = init_params(g, seed=2)
        x = np.random.default_rng(11).standard_normal((2, 2, 6, 6))
        check_param_gradients(g, params, x, proj_seed=1)

    def test_conv_non_square_kernel(self):
        g = layer_graph("conv", {"in_ch": 2, "out_ch": 3, "kh": 3, "kw": 2,
                                 "stride": 2, "padding": 1}, (2, 7, 6))
        params = init_params(g, seed=21)
        x = np.random.default_rng(22).standard_normal((2, 2, 7, 6))
        check_param_gradients(g, params, x, proj_seed=23)

    def test_bn_train(self):
        g = layer_graph("bn", {"channels": 3}, (3, 4, 4))
        params = init_params(g, seed=3)
        params.values["layer.gamma"] = np.random.default_rng(4).uniform(0.5, 1.5, 3)
        x = np.random.default_rng(12).standard_normal((4, 3, 4, 4))
        check_param_gradients(g, params, x, proj_seed=2)

    def test_linear(self):
        g = layer_graph("linear", {"in_dim": 5, "out_dim": 3}, (5,))
        params = init_params(g, seed=4)
        x = np.random.default_rng(13).standard_normal((3, 5))
        check_param_gradients(g, params, x, proj_seed=3)

    def test_residual_block_with_relu_gap(self):
        nodes = [
            LayerNode("conv", "conv", ["input"],
                      {"in_ch": 2, "out_ch": 2, "kh": 3, "kw": 3, "stride": 1,
                       "padding": 1}),
            LayerNode("bn", "bn", ["conv"], {"channels": 2}),
            LayerNode("relu", "relu", ["bn"]),
            LayerNode("add", "add", ["input", "relu"]),
            LayerNode("gap", "gap", ["add"]),
            LayerNode("head", "linear", ["gap"], {"in_dim": 2, "out_dim": 2}),
        ]
        g = tiny_graph(nodes, input_shape=(2, 4, 4), classes=2)
        params = init_params(g, seed=5)
        x = np.random.default_rng(14).standard_normal((3, 2, 4, 4))
        check_param_gradients(g, params, x, proj_seed=4)

    def test_maxpool(self):
        nodes = [LayerNode("pool", "maxpool2", ["input"]),
                 LayerNode("gap", "gap", ["pool"]),
                 LayerNode("head", "linear", ["gap"], {"in_dim": 2, "out_dim": 2})]
        g = tiny_graph(nodes, input_shape=(2, 4, 4), classes=2)
        params = init_params(g, seed=6)
        x = np.random.default_rng(15).standard_normal((3, 2, 4, 4))
        check_param_gradients(g, params, x, proj_seed=5)


KINDS = [AttentionKind("se", reduction=2), AttentionKind("ie"),
         AttentionKind("srm"), AttentionKind("spa", levels=(1, 2)),
         AttentionKind("eca", kernel=3), AttentionKind("cbam", reduction=2),
         AttentionKind("no_body"), AttentionKind("eca", kernel=5),
         AttentionKind("spa", levels=(1, 3))]


class TestGradientsAttention:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.variant)
    def test_asr_slot(self, kind):
        slot = AsrSlot(slot_id="s0", kind=kind, channels=4)
        nodes = [LayerNode("s0", "asr", ["input"], {"slot": "s0"}),
                 LayerNode("gap", "gap", ["s0"]),
                 LayerNode("head", "linear", ["gap"], {"in_dim": 4, "out_dim": 3})]
        g = tiny_graph(nodes, slots={"s0": slot}, input_shape=(4, 4, 4), classes=3)
        params = init_params(g, seed=7)
        x = np.random.default_rng(16).standard_normal((2, 4, 4, 4))
        check_param_gradients(g, params, x, proj_seed=6)

    @pytest.mark.parametrize("kind",
                             [k for k in KINDS if k.variant != "no_body"],
                             ids=lambda k: k.variant)
    def test_standard_attention(self, kind):
        from attnfold.attention import AttnModule
        mod = AttnModule(module_id="m0", kind=kind, channels=4)
        nodes = [LayerNode("m0", "attn", ["input"], {"module": "m0"}),
                 LayerNode("gap", "gap", ["m0"]),
                 LayerNode("head", "linear", ["gap"], {"in_dim": 4, "out_dim": 3})]
        g = tiny_graph(nodes, modules={"m0": mod}, input_shape=(4, 4, 4), classes=3)
        params = init_params(g, seed=8)
        # non-trivial body weights so gradients are informative
        for name in list(params.trainable):
            if name.startswith("m0.") and params.values[name].ndim == 1:
                params.values[name] = np.random.default_rng(17).uniform(
                    0.5, 1.5, params.values[name].shape)
        x = np.random.default_rng(18).standard_normal((3, 4, 4, 4))
        check_param_gradients(g, params, x, proj_seed=7)


class TestFullNetGradients:
    def test_toy_resnet_with_se_asr(self):
        spec = AttachSpec(kind=AttentionKind("se", reduction=2))
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        params = init_params(g, seed=9)
        x = np.random.default_rng(19).standard_normal((2, 3, 6, 6))
        check_param_gradients(g, params, x, proj_seed=8, max_elems=4)

    def test_toy_resnet_cross_entropy_end_to_end(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        params = init_params(g, seed=10)
        rng = np.random.default_rng(20)
        x = rng.standard_normal((4, 3, 6, 6))
        y = rng.integers(0, 3, 4)

        def loss_of():
            logits, tape = forward(g, params, x, mode="train")
            loss, dlogits = cross_entropy(logits, y)
            return loss, tape, dlogits

        loss, tape, dlogits = loss_of()
        params.zero_grads()
        backward(tape, dlogits)
        grads = {n: params.grads[n].copy() for n in sorted(params.trainable)}
        step = 1e-5
        worst = 0.0
        sel = np.random.default_rng(21)
        for name in sorted(params.trainable):
            flat = params.values[name].reshape(-1)
            for i in sel.choice(flat.size, size=min(flat.size, 3), replace=False):
                orig = flat[i]
                flat[i] = orig + step
                lp, _, _ = loss_of()
                flat[i] = orig - step
                lm, _, _ = loss_of()
                flat[i] = orig
                fd = (lp - lm) / (2 * step)
                an = grads[name].reshape(-1)[i]
                denom = max(abs(an), abs(fd), 1e-8)
                worst = max(worst, abs(an - fd) / denom)
        assert worst < 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((2, 7))
        loss, _ = cross_entropy(logits, [3, 0])
        assert loss == pytest.approx(np.log(7), rel=1e-12)

    def test_large_margin(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 20.0
        loss, _ = cross_entropy(logits, [1])
        assert loss < 1e-8

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(22)
        logits = rng.standard_normal((5, 4)) * 3
        labels = rng.integers(0, 4, 5)
        loss, dlogits = cross_entropy(logits, labels)
        expected = 0.0
        for i in range(5):
            e = np.exp(logits[i] - logits[i].max())
            p = e / e.sum()
            expected += -np.log(p[labels[i]])
        expected /= 5
        assert loss == pytest.approx(expected, rel=1e-12)
        # gradient against finite differences
        step = 1e-6
        for i, j in [(0, 0), (2, 3), (4, 1)]:
            pert = logits.copy()
            pert[i, j] += step
            lp, _ = cross_entropy(pert, labels)
            pert[i, j] -= 2 * step
            lm, _ = cross_entropy(pert, labels)
            fd = (lp - lm) / (2 * step)
            assert dlogits.data[i, j] == pytest.approx(fd, abs=1e-8)

    def test_label_out_of_range(self):
        with pytest.raises(InvariantError, match="out of range"):
            cross_entropy(np.zeros((1, 3)), [3])
