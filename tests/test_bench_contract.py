"""The names the benchmark binds to: every traced layer in
`perfbench/layers.py` is a callable of its attnfold module, and a train step,
a perturb sweep and a deploy eval forward make the traced calls the
workloads expect. The benchmark files are read, not changed; the one test
that runs the benchmark itself runs a copy."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attnfold.attention as attention_mod
from attnfold import cli
from attnfold.config import DataSpec, ModelSpec, RunConfig, TrainSpec
from attnfold.train import build_model, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_targets():
    return perfbench_module("layers").TARGETS


@pytest.mark.parametrize("target", bench_targets())
def test_target_is_a_callable_of_its_module(target):
    modname, fname = target.rsplit(".", 1)
    module = importlib.import_module(f"attnfold.{modname}")
    assert callable(getattr(module, fname, None)), target


def test_train_step_calls_each_slot_function_once_per_slot(monkeypatch):
    cfg = RunConfig(model=ModelSpec(blocks=1, width=4, attention="se", delta=2),
                    train=TrainSpec(epochs=1, batch_size=8),
                    data=DataSpec(classes=3, samples=8, image_size=6, eval_samples=4))
    assert len(build_model(cfg).slots) == 2
    calls = {"asr_apply_raw": 0, "asr_backward_raw": 0}
    for name in calls:
        original = getattr(attention_mod, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(attention_mod, name, counted)
    train(cfg)
    assert calls == {"asr_apply_raw": 2, "asr_backward_raw": 2}


def test_perturb_sweep_calls_one_norm_per_block_of_each_trace(tmp_path):
    # `PerturbWorkload.expected_calls`: one trace per eps x trial, and one
    # spectral norm per block of each trace, so hoisting the norms out of
    # `perturb_trace` fails here before it fails the benchmark's self-check.
    ckpt = tmp_path / "chain.ckpt"
    assert cli.main(["chain", str(ckpt), "--depth", "3", "--width", "8"]) == 0
    tracer = perfbench_module("tracer").Tracer(
        ["analysis.perturb_trace", "tensor.spectral_norm", "autodiff.forward"])
    tracer.install()
    try:
        rc = cli.main(["--out-root", str(tmp_path / "runs"), "perturb", str(ckpt),
                       "--eps", "0.01,0.1", "--trials", "2"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert {name: tracer.calls(name) for name in tracer.targets} == {
        "analysis.perturb_trace": 4, "tensor.spectral_norm": 12, "autodiff.forward": 4}


@pytest.mark.parametrize("mode", ["asr", "standard"])
def test_deploy_eval_forward_kernel_counts(mode):
    # One eval forward of the deploy workload's model shape, traced through
    # the module attributes the benchmark wraps: every in-place BN, ReLU and
    # scaling step still calls its kernel there. 5 convs and BNs, 5 graph
    # ReLUs plus one in each of the 4 SE bodies, 4 slot or module scalings.
    from attnfold import AttachSpec, AttentionKind, build_toy_resnet, forward, init_params
    spec = AttachSpec(kind=AttentionKind("se", reduction=4), mode=mode, delta=2)
    graph = build_toy_resnet(2, 16, 10, spec, image_size=16)
    params = init_params(graph, seed=0)
    x = np.random.default_rng(0).standard_normal((4, 3, 16, 16))
    tracer = perfbench_module("tracer").Tracer(
        ["kernels.batchnorm_eval_forward", "kernels.relu", "kernels.channel_scale",
         "kernels.conv2d_forward", "kernels.im2col"])
    tracer.install()
    try:
        forward(graph, params, x, mode="eval")
    finally:
        tracer.uninstall()
    assert {name: tracer.calls(name) for name in tracer.targets} == {
        "kernels.batchnorm_eval_forward": 5, "kernels.relu": 9,
        "kernels.channel_scale": 4, "kernels.conv2d_forward": 5, "kernels.im2col": 5}


def traced_train_step(width, image_size, batch):
    """One traced train step, forward and backward, of a one-block SE-ASR
    ResNet: the benchmark's self-check wants one `im2col` child per
    `conv2d_forward` span and one `col2im` child per `conv2d_backward` span,
    the train counterparts of the eval counts above."""
    from attnfold import (AttachSpec, AttentionKind, backward, build_toy_resnet, forward,
                          init_params)
    spec = AttachSpec(kind=AttentionKind("se", reduction=4), mode="asr", delta=2)
    graph = build_toy_resnet(1, width, 3, spec, image_size=image_size)
    params = init_params(graph, seed=0)
    x = np.random.default_rng(0).standard_normal((batch, 3, image_size, image_size))
    tracer = perfbench_module("tracer").Tracer(
        ["kernels.conv2d_forward", "kernels.im2col", "kernels.conv2d_backward",
         "kernels.col2im"])
    tracer.install()
    try:
        logits, tape = forward(graph, params, x, mode="train")
        backward(tape, np.ones(logits.shape))
    finally:
        tracer.uninstall()
    tracer.check_children("kernels.conv2d_forward", "kernels.im2col", lambda note: 1)
    tracer.check_children("kernels.conv2d_backward", "kernels.col2im", lambda note: 1)
    convs = sum(node.kind == "conv" for node in graph.nodes)
    assert convs == 3
    assert {name: tracer.calls(name) for name in tracer.targets} == dict.fromkeys(
        tracer.targets, convs)


def test_train_step_kernel_counts():
    traced_train_step(8, 8, 4)   # every conv one block


def test_train_step_kernel_counts_over_helper_threads(monkeypatch):
    # At width 16 and 32x32 each conv runs one-sample blocks (the stem three
    # blocks of three), and each BN tensor (9x16x32x32, over the 1 MiB
    # budget) its elementwise passes, spread over two threads: the tracer
    # keeps one span stack, so a helper that reached a traced function would
    # break the counts or the nesting here, not only in the benchmark.
    from attnfold import kernels
    monkeypatch.setattr(kernels, "_threads", 2)
    split, callers = kernels._split, set()

    def seen(count, run):
        callers.add(run.__qualname__.split(".")[0])
        return split(count, run)
    monkeypatch.setattr(kernels, "_split", seen)
    traced_train_step(16, 32, 9)
    assert kernels._helpers
    assert {"_tap_blocks", "batchnorm_train_forward", "batchnorm_train_backward"} <= callers


def test_traced_perturb_benchmark_passes_its_gates_and_self_check(tmp_path):
    # The benchmark's own probes (the `tensor.spectral_norm` one reads the
    # operator's matrix) and tracer self-check, run end to end on a copy of
    # the tree so that its `.perfbench_work/` stays out of the repository.
    root = PERFBENCH.parent
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("src", "perfbench"):
        shutil.copytree(root / name, tmp_path / name, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "perturb", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "trace self-check passed" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert "tensor.spectral_norm.useful_ratio" in result["metrics"]
