"""The names the benchmark binds to: every traced layer in
`perfbench/layers.py` is a callable of its attnfold module, and a train step
calls the traced slot functions once per slot (the train workload's
expected call counts). The benchmark files are read, not changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import attnfold.attention as attention_mod
from attnfold.config import DataSpec, ModelSpec, RunConfig, TrainSpec
from attnfold.train import build_model, train

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def bench_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


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
