"""The three benchmark workloads: train, deploy and perturb.

A workload builds every input from its seed, then runs rounds. A round is
one pass through all of the workload's phases; each phase is timed on its
own through `rec.phase(name)`, and every output is checked through
`gates.check(name, ok)` outside the timed region. All program calls go
through module attributes at call time, so the outside-in tracer sees them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import re
import shutil
from pathlib import Path

import numpy as np

TOL = 1e-9


class Mods:
    """The attnfold modules, by short name (the package re-exports shadow some)."""

    def __init__(self):
        for name in ("analysis", "attention", "autodiff", "backbones", "checkpoint",
                     "cli", "config", "data", "fusion", "graph", "kernels", "tensor",
                     "train"):
            setattr(self, name, importlib.import_module(f"attnfold.{name}"))


class Gates:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}   # name -> [attempted, failed]

    def check(self, name: str, ok) -> None:
        entry = self.counts.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += 0 if ok else 1

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


def rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    """max over rows of |a-b|_inf / (1 + |a|_inf); NaN propagates."""
    a = a.reshape(a.shape[0], -1)
    b = b.reshape(b.shape[0], -1)
    return float((np.abs(a - b).max(axis=1) / (1.0 + np.abs(a).max(axis=1))).max())


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class Workload:
    name = ""
    primary = ""                 # phase reported as primary_op_ms
    per_round: dict[str, int] = {}

    def __init__(self, m: Mods, seed: int, work: Path, gates: Gates):
        self.m, self.seed, self.work, self.gates = m, seed, work, gates
        self.out_root = work / "runs"

    def cli(self, *argv) -> tuple[int, str, list[Path]]:
        """Run `attnfold <argv>` in-process; returns (exit code, stdout, run dirs)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.m.cli.main(["--out-root", str(self.out_root)]
                                 + [str(a) for a in argv])
        text = out.getvalue()
        runs = [Path(p) for p in re.findall(r"^wrote (\S+)$", text, re.M)]
        return rc, text + err.getvalue(), runs

    def drop_runs(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)

    # Subclasses define prepare(), round(r, rec), expected_calls() and named(),
    # which lists (metric, phase, units per phase) with units None for a time.

    def setup(self, rec) -> None:
        """Build every input from the seed, then one warm-up round."""
        self.prepare()
        self.round(0, rec)

    def values(self) -> list[tuple[str, float, str]]:
        """Reported values that are not timings."""
        return []


class TrainWorkload(Workload):
    """`train.train()` on a toy ResNet with one SE slot per block."""

    name = "train"
    primary = "train"
    per_round = {"train": 1}
    SAMPLES, EVAL, BATCH, PROBES = 32, 16, 32, 8

    def prepare(self):
        m = self.m
        self.cfg = m.config.RunConfig(
            model=m.config.ModelSpec(backbone="resnet", blocks=2, width=16,
                                     attention="se", attention_mode="asr",
                                     position="after_last_bn", delta=1,
                                     se_reduction=4, psi_seed=self.seed),
            train=m.config.TrainSpec(epochs=1, batch_size=self.BATCH, lr=0.05,
                                     seed=self.seed, flip=True, crop=True,
                                     stripe_probes=self.PROBES),
            data=m.config.DataSpec(kind="synthetic", classes=10, samples=self.SAMPLES,
                                   image_size=32, seed=self.seed,
                                   eval_samples=self.EVAL))
        self.train_set, self.eval_set = m.train.load_datasets(self.cfg)
        graph = m.train.build_model(self.cfg)
        self.convs = sum(n.kind == "conv" for n in graph.nodes)
        self.slots = len(graph.slots)
        self.trainable = len(m.graph.init_params(graph, seed=self.seed).trainable)
        self.loss = None

    def round(self, r, rec):
        with rec.phase("train"):
            result = self.m.train.train(self.cfg, train_set=self.train_set,
                                        eval_set=self.eval_set)
        loss = result.metrics[-1]["loss"]
        if self.loss is None:
            self.loss = loss
        g = self.gates
        g.check("train_loss_finite", math.isfinite(loss))
        g.check("train_loss_deterministic", loss == self.loss)
        g.check("stripe_records", len(result.stripes) == self.PROBES * self.slots)

    def expected_calls(self):
        steps = -(-self.SAMPLES // self.BATCH)
        forwards = steps + 1 + 1      # train steps, one eval batch, one stripe pass
        return {"autodiff.forward": forwards, "autodiff.backward": steps,
                "kernels.conv2d_forward": forwards * self.convs,
                "kernels.conv2d_backward": steps * self.convs,
                "train.sgd_step": steps * self.trainable,
                "attention.asr_backward_raw": steps * self.slots}

    def named(self):
        return [("train_samples_per_s", "train", self.SAMPLES)]

    def values(self):
        return [("train_loss_final", self.loss, "nats")]


class DeployWorkload(Workload):
    """Save, fuse, verify, evaluate three model forms, then a BN noise attack."""

    name = "deploy"
    primary = "eval_fused"
    EVALS = ("eval_unfused", "eval_fused", "eval_standard")
    per_round = {"fuse_verify": 1, "eval_unfused": 2, "eval_fused": 2,
                 "eval_standard": 2, "noise": 1}
    BATCH, SIZE, REPEATS = 64, 16, 5

    def _model(self, mode, seed):
        m = self.m
        rng = np.random.default_rng(seed)
        spec = m.backbones.AttachSpec(kind=m.attention.AttentionKind("se", reduction=4),
                                      mode=mode, delta=2)
        graph = m.backbones.build_toy_resnet(2, 16, 10, spec, image_size=self.SIZE)
        params = m.graph.init_params(graph, seed=seed)
        # Trained-looking state: nontrivial BN statistics and slot inputs.
        for name, arr in list(params.values.items()):
            if name.endswith(".running_var") or name.endswith(".gamma"):
                params.values[name] = rng.uniform(0.5, 1.5, arr.shape)
            elif name.endswith(".running_mean") or name.endswith(".beta"):
                params.values[name] = rng.normal(0.0, 0.2, arr.shape)
            elif name.endswith(".psi"):
                params.values[name] = rng.normal(0.0, 1.0, arr.shape)
        return graph, params

    def prepare(self):
        m = self.m
        seeds = np.random.default_rng(self.seed).integers(0, 2 ** 31, size=3)
        self.vseed = int(seeds[2])
        self.x = m.data.synth_dataset(10, self.BATCH, self.SIZE, int(seeds[0])).images
        self.unfused = self._model("asr", int(seeds[0]))
        self.standard = self._model("standard", int(seeds[1]))
        self.ckpt = self.work / "unfused.ckpt"
        self.fused_ckpt = self.work / "fused.ckpt"
        m.checkpoint.save_checkpoint(self.ckpt, *self.unfused)
        self.noise_cfg = self.work / "noise.cfg"
        self.noise_cfg.write_text(
            f"[data]\nkind = synthetic\nclasses = 10\nsamples = 0\n"
            f"image_size = {self.SIZE}\nseed = {int(seeds[1])}\n"
            f"eval_samples = {self.BATCH}\n")
        base = m.cli.strip_attention(*self.unfused)[0]
        self.base_size = (m.graph.count_params(base), m.graph.count_flops_conv(base))
        self.convs = sum(n.kind == "conv" for n in base.nodes)

    def round(self, r, rec):
        g, m = self.gates, self.m
        with rec.phase("fuse_verify"):
            rc_f, _, _ = self.cli("fuse", self.ckpt, self.fused_ckpt,
                                  "--n", 100, "--seed", self.vseed)
            rc_v, out_v, _ = self.cli("verify", self.ckpt, self.fused_ckpt,
                                      "--n", 100, "--seed", self.vseed)
        g.check("fuse_exit", rc_f == 0)
        found = re.search(r"max relative deviation (\S+) over", out_v)
        dev = float(found.group(1)) if found else float("nan")
        g.check("verify_dev", rc_v == 0 and dev <= TOL)   # NaN fails
        report = self.fused_ckpt.with_name(self.fused_ckpt.stem + "_fusion_report.csv")
        header, rows = read_csv(report)
        col = header.index("max_dev")
        g.check("fuse_report_dev", bool(rows) and all(float(r_[col]) <= TOL for r_ in rows))
        fused = m.checkpoint.load_checkpoint(self.fused_ckpt)
        g.check("fused_param_mac_parity",
                (m.graph.count_params(fused[0]), m.graph.count_flops_conv(fused[0]))
                == self.base_size)
        models = {"eval_unfused": self.unfused, "eval_fused": fused,
                  "eval_standard": self.standard}
        k = r % len(self.EVALS)
        order = (self.EVALS[k:] + self.EVALS[:k]) * 2
        logits = {}
        for name in order:
            with rec.phase(name):
                out, _ = m.autodiff.forward(*models[name], self.x, mode="eval")
            logits[name] = out.data
            g.check("eval_finite", np.isfinite(out.data).all())
        g.check("eval_fused_matches_unfused",
                rel_dev(logits["eval_unfused"], logits["eval_fused"]) <= TOL)
        with rec.phase("noise"):
            rc_n, _, runs = self.cli("noise", self.fused_ckpt, "--config", self.noise_cfg,
                                     "--spec", "random:0.1,0.1", "--seed", self.vseed,
                                     "--repeats", self.REPEATS)
        ok = rc_n == 0 and len(runs) == 1
        if ok:
            header, rows = read_csv(runs[0] / "noise_attack.csv")
            top1 = float(rows[0][header.index("top1_mean")]) if len(rows) == 1 else -1.0
            ok = len(rows) == 1 and 0.0 <= top1 <= 1.0
        g.check("noise_csv", ok)
        self.drop_runs()

    def expected_calls(self):
        # fuse verifies 2 models, verify runs 2, 6 timed evals, REPEATS noise passes
        forwards = 2 + 2 + 6 + self.REPEATS
        return {"autodiff.forward": forwards,
                "kernels.conv2d_forward": forwards * self.convs,
                "checkpoint.load_checkpoint": 5, "checkpoint.save_checkpoint": 1,
                "fusion.verify_equivalence": 2, "analysis.noise_attack_eval": 1,
                "cli.main": 3}

    def named(self):
        return [("fuse_verify_s", "fuse_verify", None),
                ("eval_unfused_samples_per_s", "eval_unfused", self.BATCH),
                ("eval_fused_samples_per_s", "eval_fused", self.BATCH),
                ("eval_standard_samples_per_s", "eval_standard", self.BATCH),
                ("noise_attack_s", "noise", None)]


class PerturbWorkload(Workload):
    """`attnfold chain` then `attnfold perturb`, on a new seeded chain each round.

    Power iteration runs until convergence, so the work depends on each
    chain's matrices; a fresh chain per round (from a stream fixed by the
    seed) averages that dependence out of the run's medians.
    """

    name = "perturb"
    primary = "perturb"
    per_round = {"chain": 1, "perturb": 1}
    DEPTH, WIDTH, EPS, TRIALS = 8, 128, "0.001,0.01,0.1", 10

    def prepare(self):
        self.stream = np.random.default_rng(self.seed)
        self.chain_seeds: list[int] = []
        self.traces = len(self.EPS.split(",")) * self.TRIALS

    def chain_seed(self, r: int) -> int:
        while len(self.chain_seeds) <= r:
            self.chain_seeds.append(int(self.stream.integers(0, 2 ** 31)))
        return self.chain_seeds[r]

    def round(self, r, rec):
        g = self.gates
        ckpt, cs = self.work / "chain.ckpt", self.chain_seed(r)
        with rec.phase("chain"):
            rc_c, _, _ = self.cli("chain", ckpt, "--depth", self.DEPTH,
                                  "--width", self.WIDTH, "--seed", cs)
        g.check("chain_exit", rc_c == 0)
        with rec.phase("perturb"):
            rc_p, _, runs = self.cli("perturb", ckpt, "--eps", self.EPS,
                                     "--trials", self.TRIALS, "--seed", cs)
        ok = rc_p == 0 and len(runs) == 1
        if ok:
            header, rows = read_csv(runs[0] / "perturbation_trace.csv")
            col = header.index("holds")
            ok = (len(rows) == self.traces * (self.DEPTH + 1)
                  and all(row[col] == "1" for row in rows))
        g.check("perturb_bound_holds", ok)
        self.drop_runs()

    def expected_calls(self):
        return {"analysis.perturb_trace": self.traces,
                "tensor.spectral_norm": self.traces * self.DEPTH,
                "cli.main": 2, "graph.init_params": 1}

    def named(self):
        return [("perturb_sweep_s", "perturb", None), ("chain_s", "chain", None)]


WORKLOADS = {w.name: w for w in (TrainWorkload, DeployWorkload, PerturbWorkload)}
