"""config parsing: round-trips, unknown keys, overrides."""

import dataclasses
import typing

import pytest

from attnfold import ConfigError, RunConfig, parse_config
from attnfold.config import DataSpec, ModelSpec, TrainSpec, apply_overrides, format_config


BASE = """
[model]
backbone = resnet
width = 8
attention = se
se_reduction = 2

[train]
epochs = 3
lr = 0.05
milestones = 1,2

[data]
classes = 3
samples = 24
image_size = 6
"""


class TestParse:
    def test_basic(self):
        cfg = parse_config(BASE)
        assert cfg.model.width == 8
        assert cfg.model.attention == "se"
        assert cfg.train.milestones == (1, 2)
        assert cfg.data.classes == 3

    def test_defaults_fill_missing(self):
        cfg = parse_config("[model]\nwidth = 4\n")
        assert cfg.train.epochs == 5
        assert cfg.data.kind == "synthetic"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[model]\nwidht = 4\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[models]\nwidth = 4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[model]\nwidth = 4\nwidth = 5\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n[train]\nepochs = 2  # inline\n\n")
        assert cfg.train.epochs == 2

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("[train]\nepochs = many\n")

    def test_validation_lr(self):
        with pytest.raises(ConfigError, match="lr"):
            parse_config("[train]\nlr = 0\n")

    def test_validation_milestones_order(self):
        with pytest.raises(ConfigError, match="milestones"):
            parse_config("[train]\nmilestones = 5,3\n")


class TestEcho:
    def test_round_trip_identical(self):
        cfg = parse_config(BASE)
        echo = format_config(cfg)
        assert parse_config(echo) == cfg

    def test_round_trip_default(self):
        cfg = RunConfig().validate()
        assert parse_config(format_config(cfg)) == cfg

    def test_float_exactness(self):
        cfg = parse_config("[train]\nlr = 0.0001\nweight_decay = 1e-07\n")
        cfg2 = parse_config(format_config(cfg))
        assert cfg2.train.lr == cfg.train.lr
        assert cfg2.train.weight_decay == cfg.train.weight_decay


class TestOverrides:
    def test_apply(self):
        cfg = parse_config(BASE)
        cfg2 = apply_overrides(cfg, ["model.width=16", "train.epochs=1"])
        assert cfg2.model.width == 16
        assert cfg2.train.epochs == 1
        assert cfg2.data.classes == 3

    def test_unknown_override(self):
        cfg = parse_config(BASE)
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["model.depth=3"])

    def test_malformed_override(self):
        cfg = parse_config(BASE)
        with pytest.raises(ConfigError, match="section.key"):
            apply_overrides(cfg, ["width=3"])


def test_every_attention_variant_is_a_config_value():
    from attnfold.attention import VARIANTS
    for name in ("none", *VARIANTS):
        assert parse_config(f"[model]\nattention = {name}\n").model.attention == name
    with pytest.raises(ConfigError, match="unknown attention 'sk'"):
        parse_config("[model]\nattention = sk\n")


# One non-default value per field: (section, key) -> (text, parsed value).
NON_DEFAULT = {
    ("model", "backbone"): ("vgg", "vgg"), ("model", "blocks"): ("3", 3),
    ("model", "width"): ("6", 6), ("model", "attention"): ("cbam", "cbam"),
    ("model", "attention_mode"): ("standard", "standard"),
    ("model", "position"): ("after_relu", "after_relu"), ("model", "delta"): ("2", 2),
    ("model", "psi_mode"): ("frozen_constant", "frozen_constant"),
    ("model", "psi_init"): ("0.25", 0.25), ("model", "psi_seed"): ("7", 7),
    ("model", "se_reduction"): ("4", 4), ("model", "cbam_reduction"): ("8", 8),
    ("model", "eca_kernel"): ("5", 5), ("model", "spa_levels"): ("1,2,4", (1, 2, 4)),
    ("train", "epochs"): ("7", 7), ("train", "batch_size"): ("8", 8),
    ("train", "lr"): ("0.5", 0.5), ("train", "momentum"): ("0.8", 0.8),
    ("train", "weight_decay"): ("0.001", 0.001), ("train", "schedule"): ("cosine", "cosine"),
    ("train", "milestones"): ("2,5", (2, 5)), ("train", "gamma"): ("0.5", 0.5),
    ("train", "seed"): ("9", 9), ("train", "flip"): ("true", True),
    ("train", "crop"): ("true", True), ("train", "stripe_probes"): ("2", 2),
    ("train", "stripe_every"): ("3", 3),
    ("data", "kind"): ("cifar10_bin", "cifar10_bin"), ("data", "classes"): ("10", 10),
    ("data", "samples"): ("32", 32), ("data", "image_size"): ("32", 32),
    ("data", "seed"): ("4", 4), ("data", "eval_samples"): ("16", 16),
    ("data", "paths"): ("a.bin,b.bin", ("a.bin", "b.bin")),
    ("data", "eval_paths"): ("c.bin", ("c.bin",)),
    ("data", "norm_mean"): ("0.5,0.25,0.125", (0.5, 0.25, 0.125)),
    ("data", "norm_std"): ("2.0,0.5,1.0", (2.0, 0.5, 1.0)),
}


def has_type(value, hint) -> bool:
    if typing.get_origin(hint) is tuple:
        return (type(value) is tuple
                and all(type(v) is typing.get_args(hint)[0] for v in value))
    return type(value) is hint


def test_non_default_values_cover_every_field():
    specs = {"model": ModelSpec, "train": TrainSpec, "data": DataSpec}
    assert set(NON_DEFAULT) == {(s, f.name) for s, cls in specs.items()
                                for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("section, key", sorted(NON_DEFAULT), ids="{0[0]}.{0[1]}".format)
def test_every_field_overrides_to_its_annotated_type(section, key):
    text, expected = NON_DEFAULT[(section, key)]
    default = getattr(getattr(RunConfig(), section), key)
    assert expected != default
    cfg = apply_overrides(RunConfig(), [f"{section}.{key}={text}"])
    value = getattr(getattr(cfg, section), key)
    hint = typing.get_type_hints(type(getattr(cfg, section)))[key]
    assert value == expected and has_type(value, hint)
    assert parse_config(format_config(cfg)) == cfg
