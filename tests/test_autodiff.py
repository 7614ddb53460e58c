"""autodiff: forward wiring oracles, finite-difference gradient checks,
cross-entropy against the scalar formula."""

import copy
import gc
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

import attnfold.attention as attention_mod
import attnfold.autodiff as autodiff_mod
import attnfold.kernels as kernels_mod
import attnfold.tensor as tensor_mod
from attnfold import (AttachSpec, AttentionKind, GraphError, InvariantError,
                      LayerNode, MatrixOperator, ModelGraph, StateError, backward,
                      batchnorm_infer, build_residual_chain, build_toy_resnet, conv2d,
                      cross_entropy, forward, global_avg_pool, init_params, linear,
                      load_checkpoint, relu, save_checkpoint, spectral_norm, ConvSpec)
from attnfold.attention import AsrSlot, AttnModule
from attnfold.autodiff import recorder
from attnfold.graph import remove_node
from attnfold.kernels import channel_scale
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

    def test_train_tape_keeps_no_gap_activation(self):
        # Width-16 SE ResNet with two slots per block, batch 32 at 16x16: the
        # gap input is 1 MB. A train tape that kept per-node caches in dicts
        # retained 18_902_735 bytes under tracemalloc (numpy 2.4, x allocated
        # before tracing; 54_218_226 while each conv cached its patch
        # matrix); a gap rule that held its input instead of the input's
        # shape would add that 1 MB.
        g = se_resnet(2, 16, 16, delta=2)
        params = init_params(g, seed=6)
        x = np.random.default_rng(5).standard_normal((32, 3, 16, 16))
        forward(g, params, x, mode="train")
        tracemalloc.start()
        try:
            _, tape = forward(g, params, x, mode="train")
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        gap = [e for e in tape.entries if e.node.kind == "gap"]
        assert len(gap) == 1
        assert not [c for c in gap[0].back.__closure__
                    if isinstance(c.cell_contents, np.ndarray)]
        assert abs(retained - 18_902_735) < 500_000


def attention_graph():
    """One slot and one standard SE module on a [4, 4, 4] map, then a BN."""
    kind = AttentionKind("se", reduction=2)
    nodes = [LayerNode("s0", "asr", ["input"], {"slot": "s0"}),
             LayerNode("m0", "attn", ["s0"], {"module": "m0"}),
             LayerNode("bn", "bn", ["m0"], {"channels": 4}),
             LayerNode("gap", "gap", ["bn"]),
             LayerNode("head", "linear", ["gap"], {"in_dim": 4, "out_dim": 3})]
    g = tiny_graph(nodes, slots={"s0": AsrSlot(slot_id="s0", kind=kind, channels=4)},
                   modules={"m0": AttnModule(module_id="m0", kind=kind, channels=4)},
                   input_shape=(4, 4, 4), classes=3)
    return g, init_params(g, seed=9), np.random.default_rng(19).standard_normal((3, 4, 4, 4))


class TestHook:
    def test_train_mode_rejects_a_hook(self):
        g, params, x = attention_graph()
        with pytest.raises(InvariantError, match="eval-only"):
            forward(g, params, x, mode="train", hook=lambda node, m: m)

    def test_identity_hook_is_byte_equal(self):
        g, params, x = attention_graph()
        seen = []
        plain, _ = forward(g, params, x)
        hooked, _ = forward(g, params, x, hook=lambda node, m: seen.append(node.name) or m)
        assert plain.data.tobytes() == hooked.data.tobytes()
        assert seen == ["s0", "m0", "bn"]

    @pytest.mark.parametrize("name,shape", [("s0", (4,)), ("m0", (3, 4))])
    def test_substituted_vector_is_applied(self, name, shape):
        g, params, x = attention_graph()
        w = np.random.default_rng(20).uniform(0.1, 0.9, shape)
        _, tape = forward(g, params, x, keep=["s0", "m0"],
                          hook=lambda node, m: w if node.name == name else m)
        scaled_input = x if name == "s0" else tape.values["s0"]
        assert tape.values[name].tobytes() == channel_scale(scaled_input, w).tobytes()
        _, clean = forward(g, params, x, keep=["s0", "m0"])
        if name == "m0":
            assert tape.values["s0"].tobytes() == clean.values["s0"].tobytes()
        assert not np.array_equal(tape.values[name], clean.values[name])

    def test_substituting_hook_scales_each_attn_node_once(self, monkeypatch):
        # Fails at the parent, which scaled by v and then again by w.
        g, params = deploy_resnet("standard")
        x = np.random.default_rng(21).standard_normal((3, 3, 16, 16))
        calls = []
        original = kernels_mod.channel_scale

        def spy(x, v, out=None):
            calls.append(v)
            return original(x, v, out=out)
        monkeypatch.setattr(kernels_mod, "channel_scale", spy)
        applied = []

        def half(node, m):
            if node.kind != "attn":
                return m
            applied.append(m * 0.5)
            return applied[-1]
        forward(g, params, x, hook=half)
        assert len(applied) == 4 and len(calls) == 4
        assert all(v is w for v, w in zip(calls, applied))

    def test_recorder_stores_the_applied_vectors(self):
        g, params, x = attention_graph()
        vectors = {}
        logits, tape = forward(g, params, x, keep=["s0", "m0"], hook=recorder(vectors))
        assert sorted(vectors) == ["m0", "s0"]
        assert vectors["s0"].shape == (4,) and vectors["m0"].shape == (3, 4)
        assert tape.values["s0"].tobytes() == channel_scale(x, vectors["s0"]).tobytes()
        assert tape.values["m0"].tobytes() == \
            channel_scale(tape.values["s0"], vectors["m0"]).tobytes()
        assert logits.data.tobytes() == forward(g, params, x)[0].data.tobytes()


def logged_forward(log, keep_all):
    """`forward` that puts each call's logits bytes in `log`; with
    `keep_all` it keeps every node, which turns every in-place write off."""
    def run(graph, params, x, mode="eval", *, keep=(), hook=None):
        if keep_all:
            keep = [n.name for n in graph.nodes]
        logits, tape = forward(graph, params, x, mode, keep=keep, hook=hook)
        log.append(logits.data.tobytes())
        return logits, tape
    return run


def deploy_resnet(mode="asr", seed=6):
    """The benchmark's deploy model shape: 2 blocks, width 16, two SE slots
    (or modules) per block, with trained-looking BN statistics."""
    spec = AttachSpec(kind=AttentionKind("se", reduction=4), mode=mode, delta=2)
    g = build_toy_resnet(2, 16, 10, spec, image_size=16)
    params = init_params(g, seed=seed)
    rng = np.random.default_rng(seed)
    for name, arr in params.values.items():
        if name.endswith((".running_var", ".gamma")):
            params.values[name] = rng.uniform(0.5, 1.5, arr.shape)
        elif name.endswith((".running_mean", ".beta")):
            params.values[name] = rng.normal(0.0, 0.2, arr.shape)
    return g, params


class TestInPlaceEval:
    """Eval steps write into inputs they own and nowhere else."""

    @pytest.mark.parametrize("kind,attrs", [("relu", {}), ("bn", {"channels": 3})])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_caller_input_is_never_written(self, kind, attrs, writeable):
        # Passes at the parent, which writes no input in place.
        g = tiny_graph([LayerNode("first", kind, ["input"], attrs),
                        LayerNode("second", kind, ["first"], attrs)],
                       input_shape=(3, 4, 4), classes=3)
        params = init_params(g, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
        x.flags.writeable = writeable
        before = x.tobytes()
        logits, _ = forward(g, params, x)
        assert x.tobytes() == before
        assert not np.shares_memory(logits.data, x)

    def test_steps_write_into_the_inputs_they_own(self, monkeypatch):
        # Fails at the parent: no kernel is given an `out`.
        g, params = deploy_resnet()
        outs = []
        for name in ("batchnorm_eval_forward", "relu", "channel_scale"):
            original = getattr(kernels_mod, name)

            def spy(x, *args, _original=original, **kwargs):
                outs.append((kwargs.get("out") is x, x.shape))
                return _original(x, *args, **kwargs)
            monkeypatch.setattr(kernels_mod, name, spy)
        x = np.random.default_rng(1).standard_normal((4, 3, 16, 16))
        forward(g, params, x)
        # Every BN, graph ReLU and slot scaling writes into its input; the SE
        # body's hidden ReLU ([1, 4]) takes a fresh array.
        maps = [owned for owned, shape in outs if len(shape) == 4]
        assert len(maps) == 5 + 5 + 4 and all(maps)
        assert not any(owned for owned, shape in outs if len(shape) == 2)

    @pytest.mark.parametrize("mode", ["asr", "standard"])
    def test_logits_and_kept_values_equal_keeping_every_node(self, mode):
        # Passes at the parent. The stem's ReLU feeds block0's conv1 and its
        # skip `add`; conv1 is not its last reader, so only the add may write
        # into it, and a clobbered skip input would show in the logits.
        g, params = deploy_resnet(mode)
        x = np.random.default_rng(2).standard_normal((8, 3, 16, 16))
        _, every = forward(g, params, x, keep=[n.name for n in g.nodes])
        assert g.node("block0.add").inputs[0] == "stem.relu"
        logits, _ = forward(g, params, x)
        assert logits.data.tobytes() == every.values[g.output_name].tobytes()
        attention = next(n.name for n in g.nodes if n.kind in ("asr", "attn"))
        keep = ["stem.relu", "block0.bn1", attention, "block1.relu1"]
        _, tape = forward(g, params, x, keep=keep)
        for name in keep:
            assert tape.values[name].tobytes() == every.values[name].tobytes(), name

    def test_add_reading_one_owned_input_twice(self):
        # Passes at the parent. The add owns its one input, read twice.
        nodes = [LayerNode("r", "relu", ["input"]),
                 LayerNode("twice", "add", ["r", "r"]),
                 LayerNode("head", "linear", ["twice"], {"in_dim": 4, "out_dim": 4})]
        g = tiny_graph(nodes)
        params = init_params(g, seed=0)
        params.values["head.w"] = np.eye(4)
        params.values["head.b"] = np.zeros(4)
        x = np.random.default_rng(3).standard_normal((3, 4))
        logits, _ = forward(g, params, x)
        np.testing.assert_array_equal(logits.data, 2 * np.maximum(x, 0.0))

    def test_noise_csv_and_stripes_equal_keeping_every_node(self, tmp_path, monkeypatch):
        # Passes at the parent. The noise attack's hooked BN steps and the
        # stripe pass's kept slots run once in place and once with nothing
        # written in place; every forward's logits and both outputs agree.
        from attnfold import cli
        train_mod = importlib.import_module("attnfold.train")   # not the function
        g, params = deploy_resnet()
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, g, params)
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("[data]\nkind = synthetic\nclasses = 10\nsamples = 0\n"
                       "image_size = 16\nseed = 3\neval_samples = 24\n")
        probes = np.random.default_rng(5).standard_normal((3, 3, 16, 16))
        outputs = []
        for keep_all in (False, True):
            log = []
            monkeypatch.setattr(train_mod, "forward", logged_forward(log, keep_all))
            root = tmp_path / f"keep_all_{keep_all}"
            assert cli.main(["--out-root", str(root), "noise", str(ckpt), "--config",
                             str(cfg), "--spec", "random:0.3,0.3", "--repeats", "2"]) == 0
            csv = next(root.glob("*/noise_attack.csv")).read_bytes()
            stripes = train_mod.record_stripes(g, params, probes, 1)
            outputs.append((log, csv, [(r.module, r.probe, r.vector.tobytes(),
                                        r.post_mean.tobytes()) for r in stripes]))
        assert len(outputs[0][0]) == 3 and len(outputs[0][2]) == 4 * 3
        assert outputs[0] == outputs[1]


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

    def test_conv_on_the_graph_input_takes_no_dx(self, monkeypatch):
        # `backward` drops the graph input's gradient, so the stem conv asks
        # for dk and db alone; they keep the bytes of the full backward, and
        # every other conv still takes its dx.
        g = se_resnet(1, 4, 6)
        params = init_params(g, seed=3)
        x = np.random.default_rng(4).standard_normal((2, 3, 6, 6))
        logits, tape = forward(g, params, x, mode="train")
        original, calls = kernels_mod.conv2d_backward, []

        def recorded(dy, k, cache, need_dx=True):
            calls.append((dy, k, cache, need_dx, original(dy, k, cache, need_dx)))
            return calls[-1][-1]
        monkeypatch.setattr(kernels_mod, "conv2d_backward", recorded)
        params.zero_grads()
        backward(tape, np.ones(logits.shape))
        convs = [n for n in reversed(g.nodes) if n.kind == "conv"]
        stem = g.nodes[1]
        assert stem.kind == "conv" and stem.inputs == [g.nodes[0].name] and convs[-1] is stem
        assert [call[3] for call in calls] == [n is not stem for n in convs]
        dy, k, cache, _, (dx, dk, db) = calls[-1]
        assert dx is None
        full = original(dy, k, cache)
        assert full[0] is not None and full[0].shape == x.shape
        assert dk.tobytes() == full[1].tobytes() and db.tobytes() == full[2].tobytes()
        assert params.grads[f"{stem.name}.k"].tobytes() == full[1].tobytes()
        assert tape.entries[0].node is stem and tape.entries[0].back(dy)[0] == []

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

    @pytest.mark.parametrize("kind",
                             [k for k in KINDS if k.variant != "no_body"],
                             ids=lambda k: f"{k.variant}-k{k.kernel}-l{len(k.levels)}")
    def test_input_gradient_through_the_pool(self, kind):
        # A conv before the module: its kernel gradient reaches it only through
        # the module's dx, so the pool's backward (gap, spatial std, spatial
        # max, the pyramid) is checked, not discarded at the graph input.
        mod = AttnModule(module_id="m0", kind=kind, channels=4)
        nodes = [LayerNode("conv", "conv", ["input"],
                           {"in_ch": 2, "out_ch": 4, "kh": 3, "kw": 3, "stride": 1,
                            "padding": 1}),
                 LayerNode("m0", "attn", ["conv"], {"module": "m0"}),
                 LayerNode("gap", "gap", ["m0"]),
                 LayerNode("head", "linear", ["gap"], {"in_dim": 4, "out_dim": 3})]
        g = tiny_graph(nodes, modules={"m0": mod}, input_shape=(2, 4, 4), classes=3)
        params = init_params(g, seed=24)
        rng = np.random.default_rng(25)
        for name in sorted(params.trainable):
            if name.startswith("m0.") and params.values[name].ndim == 1:
                params.values[name] = rng.uniform(0.5, 1.5, params.values[name].shape)
        if "m0.w1" in params.values:
            # A positive w1 keeps the hidden units of cbam's max branch alive
            # (a dead branch passes no gradient to spatial_max_backward); a
            # small w2 keeps the sigmoid out of saturation.
            params.values["m0.w1"] = rng.uniform(0.2, 0.6, params.values["m0.w1"].shape)
            params.values["m0.w2"] = rng.uniform(-0.5, 0.5, params.values["m0.w2"].shape)
        x = np.random.default_rng(26).standard_normal((3, 2, 4, 4))
        check_param_gradients(g, params, x, proj_seed=27, max_elems=12)


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


class TestPlanCache:
    """forward sees any rewrite of the graph it runs; facts about loaded
    (immutable) tensors are computed once."""

    @staticmethod
    def outcome(g, params, x):
        """The logits' bytes, or the GraphError message."""
        try:
            return forward(g, params, x)[0].data.tobytes()
        except GraphError as exc:
            return f"GraphError: {exc}"

    def check_edit(self, g, params, x, edit):
        before = self.outcome(g, params, x)
        edit(g, params)
        after = self.outcome(g, params, x)
        assert after == self.outcome(copy.deepcopy(g), copy.deepcopy(params), x)
        assert after != before
        return after

    def test_remove_node(self):
        g = se_resnet(1, 4, 6)
        slot = next(n.name for n in g.nodes if n.kind == "asr")
        x = np.random.default_rng(30).standard_normal((2, 3, 6, 6))
        self.check_edit(g, init_params(g, seed=30), x,
                        lambda g, p: remove_node(g, p, slot))

    def test_in_place_inputs_edit(self):
        g = build_residual_chain(2, 6)
        x = np.random.default_rng(31).standard_normal((3, 6))
        # The first block's add now skips its slot: the list changes in place.
        self.check_edit(g, init_params(g, seed=31), x,
                        lambda g, p: g.node("block0.add").inputs.__setitem__(1, "block0.relu"))

    def test_conv_padding_edit(self):
        nodes = [LayerNode("conv", "conv", ["input"], dict(in_ch=2, out_ch=3, kh=3, kw=3,
                                                          stride=1, padding=1)),
                 LayerNode("gap", "gap", ["conv"]),
                 LayerNode("head", "linear", ["gap"], {"in_dim": 3, "out_dim": 2})]
        g = tiny_graph(nodes, input_shape=(2, 5, 5), classes=2)
        x = np.random.default_rng(32).standard_normal((2, 2, 5, 5))
        params = init_params(g, seed=32)
        params.values["conv.b"] = np.ones(3)   # a wider border changes the mean
        self.check_edit(g, params, x, lambda g, p: g.node("conv").attrs.update(padding=2))

    def test_padding_edit_raises_the_fresh_error(self):
        g = se_resnet(1, 4, 6)
        conv = next(n for n in g.nodes if n.kind == "conv" and n.name != "stem.conv")
        x = np.random.default_rng(33).standard_normal((2, 3, 6, 6))
        after = self.check_edit(g, init_params(g, seed=33), x,
                                lambda g, p: conv.attrs.update(padding=0))
        assert after.startswith("GraphError: ")

    @staticmethod
    def loaded_chain(path, depth=2, width=8, seed=0):
        g = build_residual_chain(depth, width, psi_seed=seed)
        save_checkpoint(path, g, init_params(g, seed=seed))
        return load_checkpoint(path)

    def test_dropping_a_loaded_model_frees_its_payload(self, tmp_path):
        g, params = self.loaded_chain(tmp_path / "c.ckpt")
        x = np.random.default_rng(34).standard_normal((2, 8))
        logits, tape = forward(g, params, x, hook=recorder({}))
        spectral_norm(MatrixOperator(params.values["block0.lin.w"]))
        owners = []
        for arr in params.values.values():
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            owners.append(weakref.ref(arr))
        del g, params, logits, tape, arr
        gc.collect()
        assert all(ref() is None for ref in owners)

    def test_memo_tables_stay_bounded(self, tmp_path):
        x = np.random.default_rng(35).standard_normal((2, 8))
        for cycle in range(300):
            g, params = self.loaded_chain(tmp_path / "c.ckpt", seed=cycle % 7)
            forward(g, params, x)
            spectral_norm(MatrixOperator(params.values["block1.lin.w"]))
            del g, params
        gc.collect()
        table = tensor_mod._IMMUTABLE_KEYS
        assert len(table) <= tensor_mod._IMMUTABLE_KEYS_MAX
        # Entries keyed by identity leave with the objects they describe.
        assert all(ref() is not None for refs, _ in table.values() for ref in refs)

    def test_in_place_psi_edit_changes_the_output(self, tmp_path):
        g, loaded = self.loaded_chain(tmp_path / "c.ckpt")
        x = np.random.default_rng(36).standard_normal((2, 8))
        first = forward(g, loaded, x)[0].data.tobytes()
        params = loaded.copy()
        assert forward(g, params, x)[0].data.tobytes() == first
        params.values["block0.asr0.psi"] += 1.0
        edited = forward(g, params, x)[0].data.tobytes()
        assert edited != first
        assert edited == forward(copy.deepcopy(g), params.copy(), x)[0].data.tobytes()
        assert forward(g, loaded, x)[0].data.tobytes() == first

    def test_loaded_slot_vector_is_computed_once_and_read_only(self, tmp_path, monkeypatch):
        g, params = self.loaded_chain(tmp_path / "c.ckpt")
        x = np.random.default_rng(37).standard_normal((2, 8))
        calls = []
        vector = attention_mod.asr_vector_raw
        monkeypatch.setattr(attention_mod, "asr_vector_raw",
                            lambda *a: calls.append(1) or vector(*a))
        seen = []
        for values in (params.values, params.values, params.copy().values):
            vectors = {}
            forward(g, autodiff_mod.ParamSet(values=values), x, hook=recorder(vectors))
            seen.append(vectors)
        assert len(calls) == 2 * len(g.slots)   # the loaded pass once, the copy once
        for name in g.slots:
            assert seen[1][name] is seen[0][name]
            assert not seen[0][name].flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                seen[0][name][0] = 0.5
            assert seen[2][name].tobytes() == seen[0][name].tobytes()

    def test_loaded_matrix_finite_check_runs_once(self, tmp_path, monkeypatch):
        _, params = self.loaded_chain(tmp_path / "c.ckpt")
        w = params.values["block0.lin.w"]
        checks = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: checks.append(a.shape) or isfinite(a))
        for _ in range(30):
            MatrixOperator(w)
        assert checks == []
        for _ in range(30):
            MatrixOperator(w.copy())
        assert len(checks) == 30
