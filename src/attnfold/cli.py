"""Batch command-line frontend for training, fusion, verification, and the
diagnostic analyses. Every command is deterministic given config + seed;
only the run-directory name carries a timestamp.
"""

from __future__ import annotations

import argparse
import copy
import functools
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (NoiseSpec, bench, noise_attack_eval, perturb_trace,
                       stripe_channel_std, stripe_first_diff)
from .attention import POSITIONS
from .backbones import build_residual_chain
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from .config import RunConfig, apply_overrides, format_config, parse_config
from .errors import ConfigError, FormatError, GraphError
from .fusion import fuse_model, verify_equivalence
from .graph import ModelGraph, count_params, init_params, remove_node
from .train import StripeRecord, train

DEFAULT_OUT = "runs"
OUT_ENV = "ATTNFOLD_RUNS"


def fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # plain shortest round-trip, also for np.float64
    return str(x)


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_run(out_root: str | None, seed: int, files: dict[str, str | bytes]) -> Path:
    """Make a new run directory, write `files` (name -> text or bytes) into it
    and print its path. Commands call it last, once everything is computed,
    so a command that fails leaves no run directory."""
    root = Path(out_root or os.environ.get(OUT_ENV, DEFAULT_OUT))
    root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    base = root / f"{stamp}-seed{seed}"
    run = base
    k = 2
    while run.exists():
        run = Path(f"{base}-{k}")
        k += 1
    run.mkdir()
    for name, data in files.items():
        (run / name).write_bytes(data.encode() if isinstance(data, str) else data)
    print(f"wrote {run}")
    return run


def load_config(path: str, overrides: list[str]) -> RunConfig:
    cfg = parse_config(Path(path).read_text())
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def stripe_files(stripes: list[StripeRecord]) -> dict[str, str]:
    rows = []
    post_rows = []
    for r in stripes:
        for c, val in enumerate(r.vector):
            rows.append([r.module, r.epoch, r.probe, c, float(val)])
        if r.post_mean is not None:
            for c, val in enumerate(r.post_mean):
                post_rows.append([r.module, r.epoch, r.probe, c, float(val)])
    files = {"stripe_records.csv":
             csv_text(["module", "epoch", "probe", "channel", "value"], rows)}
    if post_rows:
        files["stripe_post.csv"] = csv_text(
            ["module", "epoch", "probe", "channel", "mean_after"], post_rows)
    return files


def read_stripes(path: Path) -> list[StripeRecord]:
    if path.is_dir():
        path = path / "stripe_records.csv"
    if not path.exists():
        raise FormatError(f"no stripe records at {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "module,epoch,probe,channel,value":
        raise FormatError(f"{path}: unexpected stripe records header")
    tmp: dict[tuple[str, int, int], dict[int, tuple[float, int]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            module, epoch, probe, channel, value = line.split(",")
            key, c, v = (module, int(epoch), int(probe)), int(channel), float(value)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed stripe record {line!r}") from None
        if not np.isfinite(v):
            raise FormatError(f"{path}:{lineno}: non-finite stripe value {value!r}")
        by_ch = tmp.setdefault(key, {})
        if c in by_ch:
            raise FormatError(f"{path}:{lineno}: duplicate stripe record {line!r}, "
                              f"first at line {by_ch[c][1]}")
        by_ch[c] = (v, lineno)
    records = []
    for (module, epoch, probe), by_ch in sorted(tmp.items()):
        # Channels are 0..C-1, one row each: a gap would renumber the rest.
        for want, c in enumerate(sorted(by_ch)):
            if c != want:
                raise FormatError(f"{path}:{by_ch[c][1]}: stripe channel {c} of {module} "
                                  f"epoch {epoch} probe {probe} without channel {want}")
        vec = np.array([by_ch[c][0] for c in range(len(by_ch))])
        records.append(StripeRecord(module=module, epoch=epoch, probe=probe, vector=vec))
    return records


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set or [])
    result = train(cfg)
    files = {"config.resolved": format_config(cfg),
             "checkpoint.ckpt": checkpoint_bytes(result.graph, result.params),
             "metrics.csv": csv_text(["epoch", "lr", "loss", "top1", "top5"],
                                     [[m["epoch"], m["lr"], m["loss"], m["top1"], m["top5"]]
                                      for m in result.metrics])}
    if result.stripes:
        files.update(stripe_files(result.stripes))
    write_run(args.out_root, cfg.train.seed, files)
    return 0


def cmd_fuse(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    graph, params = load_checkpoint(args.checkpoint_in)
    fused_graph, fused_params, report = fuse_model(graph, params,
                                                   verify_samples=args.n,
                                                   seed=args.seed)
    if not report.max_deviation <= args.tol:
        print(f"error: fusion verification failed: deviation {report.max_deviation!r} "
              f"exceeds tolerance {args.tol!r}", file=sys.stderr)
        return 1
    out = Path(args.checkpoint_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, fused_graph, fused_params)
    report_path = out.with_name(out.stem + "_fusion_report.csv")
    report_path.write_text(report.to_csv())
    print(f"fused {len(report.rows)} slots, max deviation {report.max_deviation!r}; "
          f"wrote {out} and {report_path}")
    return 0


def cmd_verify(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    a = load_checkpoint(args.checkpoint_a)
    b = load_checkpoint(args.checkpoint_b)
    dev = verify_equivalence(a, b, n=args.n, seed=args.seed)
    print(f"max relative deviation {dev!r} over {args.n} inputs (tol {args.tol!r})")
    if not dev <= args.tol:
        print(f"error: verification failed: deviation {dev!r} exceeds tol {args.tol!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_stripe(args) -> int:
    records = read_stripes(Path(args.records))
    epochs = sorted({r.epoch for r in records})
    std_rows = []
    for epoch in epochs:
        for module, stds in stripe_channel_std(records, epoch).items():
            for c, s in enumerate(stds):
                std_rows.append([module, epoch, c, float(s)])
    fd = stripe_first_diff(records, threshold=args.threshold)
    diff_rows = []
    for (module, probe), deltas in sorted(fd.deltas.items()):
        for i in range(deltas.shape[0]):
            for c in range(deltas.shape[1]):
                diff_rows.append([module, probe, c, fd.epochs[i], fd.epochs[i + 1],
                                  float(deltas[i, c])])
    conv_rows = []
    for (module, probe), conv in sorted(fd.convergence.items()):
        for c, e in enumerate(conv):
            conv_rows.append([module, probe, c, int(e)])
    write_run(args.out_root, args.seed, {
        "stripe_std.csv": csv_text(["module", "epoch", "channel", "std"], std_rows),
        "stripe_first_diff.csv": csv_text(
            ["module", "probe", "channel", "epoch_from", "epoch_to", "delta"], diff_rows),
        "stripe_convergence.csv": csv_text(
            ["module", "probe", "channel", "convergence_epoch"], conv_rows)})
    return 0


def cmd_chain(args) -> int:
    graph = build_residual_chain(args.depth, args.width,
                                 with_slots=not args.no_slots,
                                 psi_std=args.psi_std, psi_seed=args.seed)
    params = init_params(graph, seed=args.seed)
    out = Path(args.checkpoint_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, graph, params)
    print(f"wrote {out}")
    return 0


def cmd_perturb(args) -> int:
    graph, params = load_checkpoint(args.checkpoint)
    eps_list = [float(e) for e in args.eps.split(",") if e]
    if not eps_list:
        raise ConfigError("at least one eps value is required")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    rows = []
    rng = np.random.default_rng(args.seed)
    for eps in eps_list:
        for trial in range(args.trials):
            x0 = rng.standard_normal(graph.input_shape)
            trace = perturb_trace(graph, params, x0, eps,
                                  seed=int(rng.integers(0, 2 ** 31)))
            prev = trace.eps
            for row in trace.rows:
                holds = row.eps_t <= prev * row.factor * (1 + 1e-9)
                rows.append([eps, trial, row.t, prev, row.eps_t, row.alpha_t,
                             row.w_norm, row.factor, int(holds)])
                prev = row.eps_t
            rows.append([eps, trial, -1, trace.eps, trace.eps_final, "", "",
                         trace.bound_product, int(trace.product_holds())])
    write_run(args.out_root, args.seed, {"perturbation_trace.csv": csv_text(
        ["eps", "trial", "block", "eps_in", "eps_out", "alpha", "w_norm", "factor",
         "holds"], rows)})
    return 0


def _parse_noise_spec(text: str) -> NoiseSpec:
    try:
        mode, rest = text.split(":", 1)
        a, b = (float(v) for v in rest.split(","))
    except ValueError:
        raise ConfigError(f"noise spec {text!r} must look like constant:1.0,0.0 "
                          f"or random:0.1,0.1") from None
    return NoiseSpec(mode=mode, a=a, b=b)


def cmd_noise(args) -> int:
    graph, params = load_checkpoint(args.checkpoint)
    cfg = load_config(args.config, args.set or [])
    from .train import load_datasets
    _, eval_set = load_datasets(cfg)
    specs = [_parse_noise_spec(s) for s in args.spec]
    if not specs:
        raise ConfigError("at least one --spec is required")
    rows = []
    for spec in specs:
        res = noise_attack_eval(graph, params, eval_set, spec,
                                repeats=args.repeats, seed=args.seed)
        rows.append([spec.mode, spec.a, spec.b, res.mean, res.std, len(res.runs)])
    write_run(args.out_root, args.seed, {
        "config.resolved": format_config(cfg),
        "noise_attack.csv": csv_text(["mode", "a", "b", "top1_mean", "top1_std",
                                      "repeats"], rows)})
    return 0


def strip_attention(graph: ModelGraph, params):
    """Remove every attention node (slot or standard) for a cost baseline."""
    g = copy.deepcopy(graph)
    p = params.copy()
    for node in [n for n in g.nodes if n.kind in ("asr", "attn")]:
        remove_node(g, p, node.name)
    return g, p


def cmd_bench(args) -> int:
    graph, params = load_checkpoint(args.checkpoint)
    shape = tuple(int(d) for d in args.input_shape.split(","))
    rows = []
    res = bench(graph, params, shape, warmup=args.warmup, iters=args.iters,
                seed=args.seed)
    rows.append(["model", res.param_count, res.macs, res.samples_per_s, res.median_s])
    if graph.slots:
        fused_graph, fused_params, _ = fuse_model(graph, params, verify_samples=0)
        fres = bench(fused_graph, fused_params, shape, warmup=args.warmup,
                     iters=args.iters, seed=args.seed)
        rows.append(["fused", fres.param_count, fres.macs, fres.samples_per_s,
                     fres.median_s])
    base_graph, base_params = strip_attention(graph, params)
    bres = bench(base_graph, base_params, shape, warmup=args.warmup,
                 iters=args.iters, seed=args.seed)
    rows.append(["baseline", bres.param_count, bres.macs, bres.samples_per_s,
                 bres.median_s])
    write_run(args.out_root, args.seed, {"bench.csv": csv_text(
        ["variant", "params", "macs", "samples_per_s", "median_s"], rows)})
    return 0


AXES = ("position", "delta", "init", "psi_mode", "no_body")


def _ablate_variants(axis: str, cfg: RunConfig) -> list[tuple[str, RunConfig]]:
    m = cfg.model
    if axis != "no_body" and m.attention in ("none",):
        raise ConfigError(f"axis {axis} needs a base config with attention enabled")
    if axis == "position":
        return [(pos, replace(cfg, model=replace(m, position=pos))) for pos in POSITIONS]
    if axis == "delta":
        return [(str(d), replace(cfg, model=replace(m, delta=d))) for d in (1, 2, 3, 4)]
    if axis == "init":
        return [(repr(v), replace(cfg, model=replace(m, psi_init=v)))
                for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
    if axis == "psi_mode":
        variants = [("learnable:0.1",
                     replace(cfg, model=replace(m, psi_mode="learnable", psi_init=0.1)))]
        for i in (0.1, 0.3, 0.5):
            variants.append((f"frozen_constant:{i!r}",
                             replace(cfg, model=replace(m, psi_mode="frozen_constant",
                                                        psi_init=i))))
        for i in (0.1, 0.3, 0.5):
            variants.append((f"frozen_gaussian:{i!r}",
                             replace(cfg, model=replace(m, psi_mode="frozen_gaussian",
                                                        psi_init=i))))
        return variants
    if axis == "no_body":
        body = m.attention if m.attention not in ("none", "no_body") else "se"
        return [("none", replace(cfg, model=replace(m, attention="none"))),
                ("no_body", replace(cfg, model=replace(m, attention="no_body",
                                                       attention_mode="asr"))),
                (body, replace(cfg, model=replace(m, attention=body,
                                                  attention_mode="asr")))]
    raise ConfigError(f"unknown ablation axis {axis!r}")


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set or [])
    variants = _ablate_variants(args.axis, cfg)
    rows = []
    for label, vcfg in variants:
        result = train(vcfg)
        last = result.metrics[-1] if result.metrics else {"loss": float("nan"),
                                                          "top1": 0.0, "top5": 0.0}
        params_train = count_params(result.graph)
        if result.graph.slots:
            fused_graph, _, report = fuse_model(result.graph, result.params,
                                                verify_samples=args.n,
                                                seed=vcfg.train.seed)
            params_fused = count_params(fused_graph)
            max_dev = report.max_deviation
        else:
            params_fused = params_train
            max_dev = 0.0
        rows.append([args.axis, label, last["top1"], last["top5"], last["loss"],
                     params_train, params_fused, max_dev])
    write_run(args.out_root, cfg.train.seed, {
        "config.resolved": format_config(cfg),
        f"ablate_{args.axis}.csv": csv_text(
            ["axis", "value", "top1", "top5", "loss", "params_train", "params_fused",
             "max_dev"], rows)})
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `attnfold` argument parser, built once per process: parsing does
    not change it, and each subcommand's handler is bound when it is built."""
    p = argparse.ArgumentParser(prog="attnfold",
                                description="train, fold, and analyze constant-input "
                                            "channel attention")
    p.add_argument("--out-root", default=None,
                   help=f"output root for run directories (or ${OUT_ENV})")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("config")
    t.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    t.set_defaults(fn=cmd_train)

    f = sub.add_parser("fuse", help="fold slots into backbone weights")
    f.add_argument("checkpoint_in")
    f.add_argument("checkpoint_out")
    f.add_argument("--n", type=int, default=100)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--tol", type=float, default=1e-9)
    f.set_defaults(fn=cmd_fuse)

    v = sub.add_parser("verify", help="compare two checkpoints on random inputs")
    v.add_argument("checkpoint_a")
    v.add_argument("checkpoint_b")
    v.add_argument("--n", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("stripe", help="summarize recorded attention vectors")
    s.add_argument("records", help="stripe_records.csv or the run directory")
    s.add_argument("--threshold", type=float, default=1e-3)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_stripe)

    c = sub.add_parser("chain", help="build a residual-chain checkpoint")
    c.add_argument("checkpoint_out")
    c.add_argument("--depth", type=int, default=3)
    c.add_argument("--width", type=int, default=16)
    c.add_argument("--psi-std", type=float, default=2.0)
    c.add_argument("--no-slots", action="store_true")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_chain)

    pe = sub.add_parser("perturb", help="trace the per-layer perturbation bound")
    pe.add_argument("checkpoint")
    pe.add_argument("--eps", default="0.001,0.01,0.1")
    pe.add_argument("--trials", type=int, default=3)
    pe.add_argument("--seed", type=int, default=0)
    pe.set_defaults(fn=cmd_perturb)

    n = sub.add_parser("noise", help="noise attack on BN layers")
    n.add_argument("checkpoint")
    n.add_argument("--config", required=True, help="config supplying the dataset")
    n.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    n.add_argument("--spec", action="append", default=[],
                   metavar="MODE:A,B", help="constant:1.0,0.0 or random:0.1,0.1")
    n.add_argument("--repeats", type=int, default=5)
    n.add_argument("--seed", type=int, default=0)
    n.set_defaults(fn=cmd_noise)

    b = sub.add_parser("bench", help="params, MACs, throughput")
    b.add_argument("checkpoint")
    b.add_argument("--input-shape", default="8,3,16,16")
    b.add_argument("--warmup", type=int, default=5)
    b.add_argument("--iters", type=int, default=30)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("ablate", help="sweep one ablation axis")
    a.add_argument("--axis", choices=AXES, required=True)
    a.add_argument("--config", required=True)
    a.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    a.add_argument("--n", type=int, default=50, help="fusion verification inputs")
    a.set_defaults(fn=cmd_ablate)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, GraphError, FileNotFoundError, ValueError,
            RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
