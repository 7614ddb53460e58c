"""Plain-text run configuration: [section] headers with key = value lines.

Unknown sections or keys are rejected. `format_config` emits a canonical
echo that re-parses to an identical config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .attention import VARIANTS
from .errors import ConfigError

_ATTENTION = ("none", *VARIANTS)


@dataclass(frozen=True)
class ModelSpec:
    backbone: str = "resnet"          # resnet | vgg
    blocks: int = 2                   # residual blocks / vgg stages
    width: int = 8
    attention: str = "none"
    attention_mode: str = "asr"       # asr | standard
    position: str = "after_last_bn"
    delta: int = 1
    psi_mode: str = "learnable"
    psi_init: float = 0.1
    psi_seed: int = 0
    se_reduction: int = 2
    cbam_reduction: int = 2
    eca_kernel: int = 3
    spa_levels: tuple[int, ...] = (1, 2)


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 5
    batch_size: int = 16
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: str = "step"            # step | cosine
    milestones: tuple[int, ...] = (3, 4)
    gamma: float = 0.1
    seed: int = 0
    flip: bool = False
    crop: bool = False
    stripe_probes: int = 0
    stripe_every: int = 1


@dataclass(frozen=True)
class DataSpec:
    kind: str = "synthetic"           # synthetic | cifar10_bin
    classes: int = 4
    samples: int = 64
    image_size: int = 16
    seed: int = 123
    eval_samples: int = 64
    paths: tuple[str, ...] = ()
    eval_paths: tuple[str, ...] = ()
    norm_mean: tuple[float, ...] = (0.0, 0.0, 0.0)
    norm_std: tuple[float, ...] = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec = ModelSpec()
    train: TrainSpec = TrainSpec()
    data: DataSpec = DataSpec()

    def validate(self) -> "RunConfig":
        m, t, d = self.model, self.train, self.data
        if m.backbone not in ("resnet", "vgg"):
            raise ConfigError(f"unknown backbone {m.backbone!r}")
        if m.attention not in _ATTENTION:
            raise ConfigError(f"unknown attention {m.attention!r}")
        if m.attention_mode not in ("asr", "standard"):
            raise ConfigError(f"unknown attention_mode {m.attention_mode!r}")
        if t.lr <= 0:
            raise ConfigError(f"lr must be positive, got {t.lr}")
        if not 0.0 < t.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0,1], got {t.gamma}")
        if any(m2 <= m1 for m1, m2 in zip(t.milestones, t.milestones[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {t.milestones}")
        if t.schedule not in ("step", "cosine"):
            raise ConfigError(f"unknown schedule {t.schedule!r}")
        if d.kind not in ("synthetic", "cifar10_bin"):
            raise ConfigError(f"unknown dataset kind {d.kind!r}")
        if t.epochs < 0 or t.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        return self


_SECTIONS = {"model": ModelSpec, "train": TrainSpec, "data": DataSpec}


def _parse_value(raw: str, kind, key: str):
    """kind is int/float/bool/str or ("tuple", element_type)."""
    raw = raw.strip()
    if isinstance(kind, tuple):
        if raw == "":
            return ()
        elem = kind[1]
        try:
            return tuple(elem(p.strip()) for p in raw.split(","))
        except ValueError:
            raise ConfigError(f"key {key}: bad list element in {raw!r}") from None
    if kind is bool:
        if raw in ("true", "false"):
            return raw == "true"
        raise ConfigError(f"key {key}: expected true/false, got {raw!r}")
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key}: expected an integer, got {raw!r}") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key}: expected a number, got {raw!r}") from None
    return raw


def _field_types(cls) -> dict[str, object]:
    out = {}
    defaults = cls()
    for f in fields(cls):
        val = getattr(defaults, f.name)
        if isinstance(val, bool):
            out[f.name] = bool
        elif isinstance(val, int):
            out[f.name] = int
        elif isinstance(val, float):
            out[f.name] = float
        elif isinstance(val, str):
            out[f.name] = str
        else:  # tuple
            if val and isinstance(val[0], float):
                out[f.name] = float
            elif val and isinstance(val[0], int):
                out[f.name] = int
            else:
                out[f.name] = str
            out[f.name] = ("tuple", out[f.name])
    return out


def parse_config(text: str) -> RunConfig:
    sections: dict[str, dict] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        cls = _SECTIONS[current]
        types = _field_types(cls)
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = _parse_value(value, types[key], key)
    cfg = RunConfig(
        model=ModelSpec(**sections.get("model", {})),
        train=TrainSpec(**sections.get("train", {})),
        data=DataSpec(**sections.get("data", {})),
    )
    return cfg.validate()


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply `section.key=value` strings on top of a parsed config."""
    parts = {"model": dict(), "train": dict(), "data": dict()}
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override {ov!r} must look like section.key=value")
        target, value = ov.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"override {ov!r}: unknown section {section!r}")
        types = _field_types(_SECTIONS[section])
        if key not in types:
            raise ConfigError(f"override {ov!r}: unknown key {key!r}")
        parts[section][key] = _parse_value(value, types[key], key)
    from dataclasses import replace
    out = RunConfig(model=replace(cfg.model, **parts["model"]),
                    train=replace(cfg.train, **parts["train"]),
                    data=replace(cfg.data, **parts["data"]))
    return out.validate()


def _format_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, tuple):
        return ",".join(_format_value(v) for v in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def format_config(cfg: RunConfig) -> str:
    lines = []
    for section, obj in (("model", cfg.model), ("train", cfg.train), ("data", cfg.data)):
        lines.append(f"[{section}]")
        for f in fields(obj):
            lines.append(f"{f.name} = {_format_value(getattr(obj, f.name))}")
        lines.append("")
    return "\n".join(lines)
