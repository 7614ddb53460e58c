"""train-harness: schedules, SGD recurrence oracle, training determinism."""

import numpy as np
import pytest

from attnfold import (InvariantError, RunConfig, evaluate, lr_at, sgd_step,
                      synth_dataset, train)
from attnfold.config import DataSpec, ModelSpec, TrainSpec


def cfg_tiny(**kw) -> RunConfig:
    model = kw.pop("model", {})
    tr = kw.pop("train", {})
    data = kw.pop("data", {})
    base_model = dict(backbone="resnet", blocks=1, width=4, attention="none")
    base_train = dict(epochs=2, batch_size=8, lr=0.05, weight_decay=1e-4,
                      milestones=(1,), seed=0)
    base_data = dict(kind="synthetic", classes=2, samples=16, image_size=6,
                     seed=3, eval_samples=16)
    base_model.update(model)
    base_train.update(tr)
    base_data.update(data)
    return RunConfig(model=ModelSpec(**base_model), train=TrainSpec(**base_train),
                     data=DataSpec(**base_data)).validate()


class TestLrAt:
    def test_step_epoch_zero(self):
        assert lr_at("step", 0, lr=0.1, milestones=(81, 122), gamma=0.1) == 0.1

    def test_step_at_first_milestone(self):
        got = lr_at("step", 81, lr=0.1, milestones=(81, 122), gamma=0.1)
        assert got == pytest.approx(0.01, rel=1e-12)

    def test_step_after_second_milestone(self):
        got = lr_at("step", 150, lr=0.1, milestones=(81, 122), gamma=0.1)
        assert got == pytest.approx(0.001, rel=1e-12)

    def test_cosine_final_epoch_zero(self):
        assert lr_at("cosine", 100, lr=0.1, epochs=100) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_start(self):
        assert lr_at("cosine", 0, lr=0.1, epochs=100) == pytest.approx(0.1)

    def test_negative_epoch(self):
        with pytest.raises(InvariantError):
            lr_at("step", -1, lr=0.1)


class TestSgdStep:
    def test_zero_grad_no_motion(self):
        p = np.array([1.0, -2.0])
        p2, v2 = sgd_step(p, np.zeros(2), np.zeros(2), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_array_equal(v2, np.zeros(2))

    def test_single_step_closed_form(self):
        p = np.array([2.0])
        g = np.array([0.5])
        p2, v2 = sgd_step(p, g, np.zeros(1), lr=0.1, momentum=0.9, weight_decay=0.01)
        expected_v = 0.5 + 0.01 * 2.0
        assert v2[0] == pytest.approx(expected_v)
        assert p2[0] == pytest.approx(2.0 - 0.1 * expected_v)

    def test_three_step_trajectory_matches_recurrence(self):
        lr, mom, wd = 0.05, 0.9, 0.02
        p = np.array([1.5])
        v = np.array([0.0])
        grads = [np.array([0.3]), np.array([-0.1]), np.array([0.7])]
        ps, vs = 1.5, 0.0
        for g in grads:
            p, v = sgd_step(p, g, v, lr=lr, momentum=mom, weight_decay=wd)
            vs = mom * vs + g[0] + wd * ps
            ps = ps - lr * vs
            assert p[0] == pytest.approx(ps, rel=1e-15)
            assert v[0] == pytest.approx(vs, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(InvariantError):
            sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), lr=0.1)


class TestTrain:
    def test_zero_epochs_keeps_init(self):
        from attnfold import init_params
        from attnfold.train import build_model
        cfg = cfg_tiny(train=dict(epochs=0, milestones=()))
        result = train(cfg)
        fresh = init_params(build_model(cfg), seed=cfg.train.seed)
        for name in fresh.values:
            assert result.params.values[name].tobytes() == fresh.values[name].tobytes()

    def test_separable_two_class_reaches_95(self):
        cfg = cfg_tiny(train=dict(epochs=30, milestones=(20,), lr=0.05,
                                  batch_size=16),
                       data=dict(classes=2, samples=32, image_size=6, seed=11,
                                 eval_samples=32))
        result = train(cfg)
        train_set, _ = __import__("attnfold.train", fromlist=["load_datasets"]) \
            .load_datasets(cfg)
        top1, _ = evaluate(result.graph, result.params, train_set)
        assert top1 > 0.95

    def test_deterministic_metrics(self):
        cfg = cfg_tiny()
        r1 = train(cfg)
        r2 = train(cfg)
        assert r1.metrics == r2.metrics
        for name in r1.params.values:
            assert r1.params.values[name].tobytes() == r2.params.values[name].tobytes()

    def test_lr_zero_keeps_loss_constant(self):
        # full-dataset batches so train-mode BN statistics cannot vary with
        # the shuffle; with the optimizer a no-op the loss must be flat
        cfg1 = cfg_tiny(train=dict(epochs=3, lr=1e-300, milestones=(),
                                   weight_decay=0.0, batch_size=16))
        result = train(cfg1)
        losses = [m["loss"] for m in result.metrics]
        assert max(losses) == min(losses)

    def test_empty_dataset_rejected(self):
        cfg = cfg_tiny(data=dict(samples=0))
        with pytest.raises(InvariantError, match="empty"):
            train(cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_naming_tensor(self):
        # the blow-up itself overflows (expected); the harness must catch it
        cfg = cfg_tiny(train=dict(epochs=3, lr=1e20, milestones=()))
        with pytest.raises(InvariantError, match="non-finite"):
            train(cfg)

    def test_metrics_rows_shape(self):
        cfg = cfg_tiny(train=dict(epochs=2))
        result = train(cfg)
        assert [m["epoch"] for m in result.metrics] == [1, 2]
        for m in result.metrics:
            assert set(m) == {"epoch", "lr", "loss", "top1", "top5"}

    def test_stripe_recording(self):
        cfg = cfg_tiny(model=dict(attention="se", attention_mode="standard",
                                  se_reduction=2),
                       train=dict(epochs=2, stripe_probes=4))
        result = train(cfg)
        modules = {r.module for r in result.stripes}
        assert modules == {"block0.attn0"}
        epochs = sorted({r.epoch for r in result.stripes})
        assert epochs == [1, 2]
        probes = sorted({r.probe for r in result.stripes})
        assert probes == [0, 1, 2, 3]

    def test_asr_psi_moves_during_training(self):
        cfg = cfg_tiny(model=dict(attention="ie", attention_mode="asr"),
                       train=dict(epochs=2))
        result = train(cfg)
        psi = result.params.values["block0.asr0.psi"]
        assert not np.allclose(psi, 0.1)

    def test_frozen_psi_stays(self):
        cfg = cfg_tiny(model=dict(attention="ie", attention_mode="asr",
                                  psi_mode="frozen_constant", psi_init=0.3),
                       train=dict(epochs=2))
        result = train(cfg)
        np.testing.assert_array_equal(result.params.values["block0.asr0.psi"],
                                      np.full(4, 0.3))


class TestEvaluate:
    def test_shuffle_invariant(self):
        cfg = cfg_tiny()
        result = train(cfg)
        ds = synth_dataset(2, 20, 6, seed=9)
        top1, top5 = evaluate(result.graph, result.params, ds)
        perm = np.random.default_rng(1).permutation(20)
        from attnfold.data import Dataset
        shuffled = Dataset(images=ds.images[perm], labels=ds.labels[perm])
        t1, t5 = evaluate(result.graph, result.params, shuffled)
        assert (top1, top5) == (t1, t5)

    def test_topk_clamped_to_classes(self):
        cfg = cfg_tiny()
        result = train(cfg)
        ds = synth_dataset(2, 8, 6, seed=10)
        _, top5 = evaluate(result.graph, result.params, ds, k=5)
        assert top5 == 1.0  # k clamps to 2 classes -> always a hit

    def test_non_finite_logits_raise(self):
        cfg = cfg_tiny()
        result = train(cfg)
        ds = synth_dataset(2, 8, 6, seed=11)
        params = result.params.copy()
        params.values["head.b"] = np.array([np.nan, 0.0])
        with pytest.raises(InvariantError, match="non-finite logits"):
            evaluate(result.graph, params, ds)

    def test_hook_reaches_every_batch(self):
        cfg = cfg_tiny()
        result = train(cfg)
        ds = synth_dataset(2, 10, 6, seed=12)
        calls = []
        top1, top5 = evaluate(result.graph, result.params, ds, batch_size=4,
                              hook=lambda node, m: calls.append(node.name) or m)
        hooked = sum(n.kind in ("bn", "asr", "attn") for n in result.graph.nodes)
        assert len(calls) == 3 * hooked
        assert (top1, top5) == evaluate(result.graph, result.params, ds, batch_size=4)


class TestTapeRelease:
    def test_two_steps_peak_like_one(self):
        # Width-16 2-block SE ResNet, batch 32 at 16x16: one train tape is
        # ~54 MB under tracemalloc. A loop that keeps the previous step's
        # tape while the next forward runs peaks at about two tapes
        # (60.0 MB for one step, 111.1 MB for two).
        import tracemalloc

        def peak(samples):
            cfg = cfg_tiny(model=dict(blocks=2, width=16, attention="se"),
                           train=dict(epochs=1, batch_size=32, milestones=()),
                           data=dict(classes=3, samples=samples, image_size=16,
                                     eval_samples=4))
            train_set = synth_dataset(3, samples, 16, seed=3)
            eval_set = synth_dataset(3, 4, 16, seed=4)
            train(cfg, train_set=train_set, eval_set=eval_set)  # warm the caches
            tracemalloc.start()
            try:
                train(cfg, train_set=train_set, eval_set=eval_set)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = peak(32), peak(64)
        assert two <= 1.1 * one, (one, two)
