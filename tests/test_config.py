"""config parsing: round-trips, unknown keys, overrides."""

import pytest

from attnfold import ConfigError, RunConfig, parse_config
from attnfold.config import apply_overrides, format_config


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
