"""analysis: stripe statistics, the perturbation bound, noise attacks,
frozen-attention baseline, bench counters."""

import warnings

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, GraphError, InvariantError,
                      NoiseSpec, bench, build_residual_chain, build_toy_resnet,
                      count_flops_conv, count_params, evaluate,
                      freeze_attention_eval, init_params, noise_attack_eval,
                      perturb_trace, stripe_channel_std, stripe_first_diff,
                      synth_dataset, train)
from attnfold.train import StripeRecord
from test_train import cfg_tiny


def rec(module, epoch, probe, vec):
    return StripeRecord(module=module, epoch=epoch, probe=probe,
                        vector=np.asarray(vec, dtype=np.float64))


class TestStripeStd:
    def test_identical_vectors_give_zero(self):
        records = [rec("m", 1, p, [0.3, 0.7]) for p in range(4)]
        stds = stripe_channel_std(records, epoch=1)
        np.testing.assert_array_equal(stds["m"], np.zeros(2))

    def test_two_point_std(self):
        records = [rec("m", 2, 0, [0.4]), rec("m", 2, 1, [0.6])]
        stds = stripe_channel_std(records, epoch=2)
        assert stds["m"][0] == pytest.approx(0.1)

    def test_single_probe_rejected(self):
        with pytest.raises(InvariantError, match="probe"):
            stripe_channel_std([rec("m", 1, 0, [0.5])], epoch=1)

    def test_asr_records_have_zero_std(self):
        cfg = cfg_tiny(model=dict(attention="ie", attention_mode="asr"),
                       train=dict(epochs=1, stripe_probes=4))
        result = train(cfg)
        stds = stripe_channel_std(result.stripes, epoch=1)
        for vec in stds.values():
            np.testing.assert_array_equal(vec, np.zeros_like(vec))


class TestStripeFirstDiff:
    def test_frozen_sequence_all_zero(self):
        records = [rec("m", e, 0, [0.5, 0.2]) for e in (1, 2, 3)]
        records += [rec("m", e, 1, [0.4, 0.3]) for e in (1, 2, 3)]
        fd = stripe_first_diff(records, threshold=1e-3)
        for d in fd.deltas.values():
            np.testing.assert_array_equal(d, np.zeros((2, 2)))
        for conv in fd.convergence.values():
            assert (conv == 1).all()

    def test_simple_sequence(self):
        records = [rec("m", 1, 0, [0.5]), rec("m", 2, 0, [0.6]), rec("m", 3, 0, [0.6])]
        records += [rec("m", e, 1, [0.1]) for e in (1, 2, 3)]
        fd = stripe_first_diff(records, threshold=1e-3)
        np.testing.assert_allclose(fd.deltas[("m", 0)][:, 0], [0.1, 0.0], atol=1e-15)
        assert fd.convergence[("m", 0)][0] == 2

    def test_never_converges(self):
        records = [rec("m", e, 0, [0.1 * e]) for e in (1, 2, 3)]
        records += [rec("m", e, 1, [0.0]) for e in (1, 2, 3)]
        fd = stripe_first_diff(records, threshold=1e-3)
        assert fd.convergence[("m", 0)][0] == -1
        assert fd.convergence[("m", 1)][0] == 1

    @pytest.mark.parametrize("threshold", [np.nan, -1.0, 0.0, np.inf, -np.inf])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # nan and -1 made every channel "never", inf every channel "at once".
        records = [rec("m", e, p, [0.5]) for e in (1, 2) for p in (0, 1)]
        with pytest.raises(InvariantError, match="threshold"):
            stripe_first_diff(records, threshold=threshold)

    def test_recompute_matches_training_records(self):
        cfg = cfg_tiny(model=dict(attention="se", attention_mode="standard",
                                  se_reduction=2),
                       train=dict(epochs=3, stripe_probes=3))
        result = train(cfg)
        fd = stripe_first_diff(result.stripes)
        by_key = {}
        for r in result.stripes:
            by_key.setdefault((r.module, r.probe), {})[r.epoch] = r.vector
        for key, series in by_key.items():
            stack = np.stack([series[e] for e in sorted(series)])
            np.testing.assert_allclose(fd.deltas[key], np.abs(np.diff(stack, axis=0)),
                                       atol=1e-15)


class TestPerturbTrace:
    def test_zero_weights_keep_eps(self):
        g = build_residual_chain(3, 6, psi_seed=0)
        p = init_params(g, seed=1)
        for t in range(3):
            p.values[f"block{t}.lin.w"] = np.zeros((6, 6))
        x0 = np.random.default_rng(2).standard_normal(6)
        trace = perturb_trace(g, p, x0, eps=1e-2, seed=3)
        for row in trace.rows:
            assert row.eps_t == pytest.approx(1e-2, rel=1e-12)

    def test_eps0_matches_request(self):
        g = build_residual_chain(2, 5, psi_seed=1)
        p = init_params(g, seed=2)
        trace = perturb_trace(g, p, np.zeros(5), eps=0.25, seed=4)
        assert abs(trace.eps - 0.25) < 1e-12

    def test_alpha_scales_bound_factor(self):
        g = build_residual_chain(1, 4, psi_seed=2)
        p = init_params(g, seed=3)
        x0 = np.random.default_rng(5).standard_normal(4)
        base = perturb_trace(g, p, x0, eps=1e-2, seed=6)
        # halve the vector by dropping psi strongly negative
        p2 = p.copy()
        p2.values["block0.asr0.psi"] = p.values["block0.asr0.psi"] - 3.0
        low = perturb_trace(g, p2, x0, eps=1e-2, seed=6)
        assert low.rows[0].alpha_t < base.rows[0].alpha_t
        assert low.rows[0].factor < base.rows[0].factor

    def test_bound_holds_on_random_chains(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            depth = int(rng.integers(1, 5))
            width = int(rng.integers(3, 12))
            g = build_residual_chain(depth, width, psi_seed=int(rng.integers(1 << 30)))
            p = init_params(g, seed=int(rng.integers(1 << 30)))
            x0 = rng.standard_normal(width)
            eps = float(rng.choice([1e-3, 1e-2, 1e-1]))
            trace = perturb_trace(g, p, x0, eps=eps, seed=int(rng.integers(1 << 30)))
            eps_in = [trace.eps] + [row.eps_t for row in trace.rows[:-1]]
            for row, eps_t in zip(trace.rows, eps_in):
                assert row.eps_t <= eps_t * row.factor * (1.0 + 1e-9)
            assert trace.product_holds()

    def test_no_asr_alpha_is_one_and_bound_larger(self):
        g_plain = build_residual_chain(3, 6, with_slots=False)
        g_asr = build_residual_chain(3, 6, with_slots=True, psi_seed=8)
        p_plain = init_params(g_plain, seed=9)
        p_asr = init_params(g_asr, seed=9)
        # identical weights: the asr graph adds only psi entries
        for t in range(3):
            p_asr.values[f"block{t}.lin.w"] = p_plain.values[f"block{t}.lin.w"].copy()
        x0 = np.random.default_rng(10).standard_normal(6)
        tr_plain = perturb_trace(g_plain, p_plain, x0, eps=1e-2, seed=11)
        tr_asr = perturb_trace(g_asr, p_asr, x0, eps=1e-2, seed=11)
        assert all(r.alpha_t == 1.0 for r in tr_plain.rows)
        assert all(0 < r.alpha_t < 1 for r in tr_asr.rows)
        assert tr_asr.bound_product < tr_plain.bound_product

    def test_w_norm_is_exact(self):
        # an iterative estimate under-estimated block0's norm here by
        # 6.7e-7, so the factor was not an upper bound
        g = build_residual_chain(8, 128, psi_seed=0)
        p = init_params(g, seed=100)
        x0 = np.random.default_rng(12).standard_normal(128)
        trace = perturb_trace(g, p, x0, eps=1e-2, seed=13)
        for row in trace.rows:
            w = p.values[f"block{row.t}.lin.w"]
            oracle = np.linalg.svd(w, compute_uv=False)[0]
            assert abs(row.w_norm - oracle) <= 1e-12 * oracle

    def test_non_conforming_graph_rejected(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        p = init_params(g, seed=0)
        with pytest.raises(GraphError):
            perturb_trace(g, p, np.zeros((3, 6, 6)), eps=1e-2, seed=0)

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
    def test_eps_must_be_positive_and_finite(self, eps):
        g = build_residual_chain(2, 8, psi_seed=0)
        p = init_params(g, seed=0)
        with pytest.raises(InvariantError, match="eps must be positive and finite"):
            perturb_trace(g, p, np.zeros(8), eps=eps, seed=0)


@pytest.fixture(scope="module")
def trained_bn_model():
    cfg = cfg_tiny(train=dict(epochs=2))
    result = train(cfg)
    ds = synth_dataset(2, 32, 6, seed=21)
    return result.graph, result.params, ds


class TestNoiseAttack:
    def test_identity_noise_equals_clean(self, trained_bn_model):
        g, p, ds = trained_bn_model
        clean, _ = evaluate(g, p, ds)
        res = noise_attack_eval(g, p, ds, NoiseSpec("constant", 1.0, 0.0))
        assert res.mean == clean
        assert res.std == 0.0

    def test_zero_scale_gives_beta_output(self):
        # gamma=1, beta per channel: BN output is constant beta when Na=Nb=0
        from attnfold import LayerNode, ModelGraph, forward
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("bn", "bn", ["input"], {"channels": 3})],
                       input_shape=(3, 2, 2), classes=3)
        p = init_params(g, seed=0)
        p.values["bn.beta"] = np.array([1.0, -2.0, 0.5])
        x = np.random.default_rng(1).standard_normal((2, 3, 2, 2))
        out, _ = forward(g, p, x, mode="eval", hook=lambda node, m: (0.0, 0.0))
        for c, b in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_allclose(out.data[:, c], np.full((2, 2, 2), b),
                                       atol=1e-12)

    def test_sigma_zero_equals_constant_identity(self, trained_bn_model):
        g, p, ds = trained_bn_model
        rand = noise_attack_eval(g, p, ds, NoiseSpec("random", 0.0, 0.0), repeats=3)
        const = noise_attack_eval(g, p, ds, NoiseSpec("constant", 1.0, 0.0))
        assert rand.mean == const.mean
        assert rand.std == 0.0

    def test_random_mode_reports_spread(self, trained_bn_model):
        g, p, ds = trained_bn_model
        res = noise_attack_eval(g, p, ds, NoiseSpec("random", 0.3, 0.3),
                                repeats=4, seed=5)
        assert len(res.runs) == 4
        assert res.mean == pytest.approx(np.mean(res.runs))
        assert res.std == pytest.approx(np.std(res.runs))

    def test_deterministic_given_seed(self, trained_bn_model):
        g, p, ds = trained_bn_model
        a = noise_attack_eval(g, p, ds, NoiseSpec("random", 0.2, 0.1), repeats=3, seed=7)
        b = noise_attack_eval(g, p, ds, NoiseSpec("random", 0.2, 0.1), repeats=3, seed=7)
        assert a.runs == b.runs

    @pytest.mark.parametrize("a,b", [(1e300, 1e300), (1e200, 0.0)])
    def test_non_finite_logits_raise(self, trained_bn_model, a, b):
        # Finite but huge noise overflows to inf/NaN logits, whose argmax
        # is no prediction to score.
        g, p, ds = trained_bn_model
        with pytest.raises(InvariantError, match="non-finite logits"):
            noise_attack_eval(g, p, ds, NoiseSpec("constant", a, b))
        with pytest.raises(InvariantError, match="non-finite logits"):
            noise_attack_eval(g, p, ds, NoiseSpec("random", a, b), repeats=1)

    def test_non_finite_logits_warn_nothing(self, trained_bn_model):
        g, p, ds = trained_bn_model
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvariantError, match="non-finite logits"):
                noise_attack_eval(g, p, ds, NoiseSpec("constant", 1e300, 1e300))

    @pytest.mark.parametrize("mode", ["constant", "random"])
    @pytest.mark.parametrize("a,b", [(float("nan"), 0.0), (0.1, float("nan")),
                                     (float("inf"), 0.0), (0.1, float("-inf"))])
    def test_spec_requires_finite_parameters(self, mode, a, b):
        with pytest.raises(InvariantError, match="finite"):
            NoiseSpec(mode, a, b)

    @pytest.mark.parametrize("mode", ["constant", "random"])
    def test_repeats_must_be_positive(self, trained_bn_model, mode):
        g, p, ds = trained_bn_model
        with pytest.raises(InvariantError, match="repeats"):
            noise_attack_eval(g, p, ds, NoiseSpec(mode, 0.1, 0.1), repeats=0)

    def test_no_bn_rejected(self):
        from attnfold import LayerNode, ModelGraph
        g = ModelGraph(nodes=[LayerNode("input", "input"),
                              LayerNode("l", "linear", ["input"],
                                        {"in_dim": 3, "out_dim": 2})],
                       input_shape=(3,), classes=2)
        p = init_params(g, seed=0)
        ds = synth_dataset(2, 4, 6, seed=0)
        from attnfold.data import Dataset
        flat = Dataset(images=ds.images[:, :, 0, 0][:, :3].reshape(4, 3),
                       labels=ds.labels[:4])
        with pytest.raises(GraphError, match="BN"):
            noise_attack_eval(g, p, flat, NoiseSpec("constant", 1.0, 0.0))


class TestFreezeAttention:
    def test_input_independent_module_unchanged(self):
        # An ASR-style constant module frozen to its mean leaves accuracy
        # untouched; emulate with standard attention on constant-v inputs:
        # use a single calibration sample so the constant equals its v.
        cfg = cfg_tiny(model=dict(attention="se", attention_mode="standard",
                                  se_reduction=2), train=dict(epochs=2))
        result = train(cfg)
        ds = synth_dataset(2, 16, 6, seed=31)
        from attnfold.data import Dataset
        one = Dataset(images=ds.images[:1], labels=ds.labels[:1])
        from attnfold.autodiff import forward as fwd, recorder
        vectors = {}
        fwd(result.graph, result.params, one.images, mode="eval",
            hook=recorder(vectors))
        frozen = freeze_attention_eval(result.graph, result.params, one, one)
        # frozen constant equals that sample's own vector, so its logits match
        live, _ = evaluate(result.graph, result.params, one)
        assert frozen == live

    def test_frozen_vs_live_reported(self):
        cfg = cfg_tiny(model=dict(attention="se", attention_mode="standard",
                                  se_reduction=2), train=dict(epochs=3))
        result = train(cfg)
        calib = synth_dataset(2, 24, 6, seed=32)
        eval_set = synth_dataset(2, 24, 6, seed=33)
        frozen = freeze_attention_eval(result.graph, result.params, calib, eval_set)
        live, _ = evaluate(result.graph, result.params, eval_set)
        assert 0.0 <= frozen <= 1.0 and 0.0 <= live <= 1.0

    def test_empty_eval_set_is_a_typed_error(self):
        cfg = cfg_tiny(model=dict(attention="se", attention_mode="standard",
                                  se_reduction=2), train=dict(epochs=1))
        result = train(cfg)
        calib = synth_dataset(2, 4, 6, seed=34)
        from attnfold.data import Dataset
        empty = Dataset(images=calib.images[:0], labels=calib.labels[:0])
        with pytest.raises(InvariantError, match="empty"):
            freeze_attention_eval(result.graph, result.params, calib, empty)

    def test_requires_attention(self):
        g = build_toy_resnet(1, 4, 2, None, image_size=6)
        p = init_params(g, seed=0)
        ds = synth_dataset(2, 4, 6, seed=0)
        with pytest.raises(GraphError, match="attention"):
            freeze_attention_eval(g, p, ds, ds)


class TestBench:
    def test_counts_match_graph(self):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        p = init_params(g, seed=0)
        res = bench(g, p, (2, 3, 6, 6), warmup=1, iters=3)
        assert res.param_count == count_params(g)
        assert res.macs == count_flops_conv(g, (3, 6, 6))
        assert res.samples_per_s > 0

    def test_fused_param_parity(self):
        from attnfold import fuse_model
        spec = AttachSpec(kind=AttentionKind("se", reduction=2))
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=1)
        g2, p2, _ = fuse_model(g, p, verify_samples=0)
        baseline = build_toy_resnet(1, 4, 3, None, image_size=6)
        r_fused = bench(g2, p2, (2, 3, 6, 6), warmup=0, iters=2)
        r_base = bench(baseline, init_params(baseline, 0), (2, 3, 6, 6),
                       warmup=0, iters=2)
        assert r_fused.param_count == r_base.param_count
        assert r_fused.macs == r_base.macs
