"""Training loop, SGD with momentum, learning-rate schedules, evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .attention import AttentionKind
from .autodiff import ParamSet, backward, cross_entropy, forward, recorder
from .backbones import AttachSpec, build_toy_resnet, build_toy_vgg
from .config import RunConfig
from .data import Dataset, augment_batch
from .errors import ConfigError, InvariantError
from .graph import ModelGraph, init_params


def lr_at(schedule: str, epoch: int, *, lr: float, milestones=(), gamma: float = 0.1,
          epochs: int = 1) -> float:
    """Learning rate for a 0-based epoch index."""
    if epoch < 0:
        raise InvariantError(f"epoch must be >= 0, got {epoch}")
    if schedule == "step":
        k = sum(1 for m in milestones if m <= epoch)
        return lr * (gamma ** k)
    if schedule == "cosine":
        return float(lr * 0.5 * (1.0 + np.cos(np.pi * epoch / epochs)))
    raise ConfigError(f"unknown schedule {schedule!r}")


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float = 0.9, weight_decay: float = 0.0
             ) -> tuple[np.ndarray, np.ndarray]:
    """One SGD-with-momentum update; returns (new_param, new_velocity)."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise InvariantError(f"shape mismatch: param {param.shape}, grad {grad.shape}, "
                             f"velocity {velocity.shape}")
    new_v = momentum * velocity + grad + weight_decay * param
    return param - lr * new_v, new_v


@dataclass
class StripeRecord:
    module: str
    epoch: int      # 1-based: state after that many completed epochs
    probe: int
    vector: np.ndarray
    post_mean: np.ndarray | None = None


@dataclass
class TrainResult:
    graph: ModelGraph
    params: ParamSet
    metrics: list[dict] = field(default_factory=list)
    stripes: list[StripeRecord] = field(default_factory=list)


def attention_kind_from_config(cfg: RunConfig) -> AttentionKind | None:
    m = cfg.model
    if m.attention == "none":
        return None
    if m.attention == "se":
        return AttentionKind("se", reduction=m.se_reduction)
    if m.attention == "cbam":
        return AttentionKind("cbam", reduction=m.cbam_reduction)
    if m.attention == "eca":
        return AttentionKind("eca", kernel=m.eca_kernel)
    if m.attention == "spa":
        return AttentionKind("spa", levels=m.spa_levels)
    return AttentionKind(m.attention)


def build_model(cfg: RunConfig) -> ModelGraph:
    m = cfg.model
    kind = attention_kind_from_config(cfg)
    attach = None
    if kind is not None:
        attach = AttachSpec(kind=kind, mode=m.attention_mode, position=m.position,
                            delta=m.delta, psi_mode=m.psi_mode, psi_init=m.psi_init,
                            psi_seed=m.psi_seed)
    image_size = cfg.data.image_size if cfg.data.kind == "synthetic" else 32
    if m.backbone == "resnet":
        return build_toy_resnet(m.blocks, m.width, cfg.data.classes, attach,
                                image_size=image_size)
    return build_toy_vgg(m.blocks, m.width, cfg.data.classes, attach,
                         image_size=image_size)


def load_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    d = cfg.data
    if d.kind == "synthetic":
        train_set = data_mod.synth_dataset(d.classes, d.samples, d.image_size, d.seed)
        eval_set = data_mod.synth_dataset(d.classes, d.eval_samples, d.image_size,
                                          d.seed + 1)
        return train_set, eval_set
    train_set = data_mod.load_cifar10_bin(list(d.paths), d.norm_mean, d.norm_std)
    eval_set = data_mod.load_cifar10_bin(list(d.eval_paths), d.norm_mean, d.norm_std)
    return train_set, eval_set


def evaluate(graph: ModelGraph, params: ParamSet, dataset: Dataset, k: int = 5,
             batch_size: int = 64, *, hook=None) -> tuple[float, float]:
    """Top-1 and top-k accuracy (k clamped to the class count); `hook` goes to
    every eval-mode `forward`. Non-finite logits raise InvariantError."""
    n = len(dataset)
    if n == 0:
        raise InvariantError("evaluation dataset is empty")
    k = min(k, graph.classes)
    top1 = topk = 0
    for start in range(0, n, batch_size):
        xb = dataset.images[start:start + batch_size]
        yb = dataset.labels[start:start + batch_size]
        # Overflow to inf/NaN is reported by the finite check below.
        with np.errstate(over="ignore", invalid="ignore"):
            logits, _ = forward(graph, params, xb, mode="eval", hook=hook)
        la = logits.data
        if not np.isfinite(la).all():
            raise InvariantError(f"non-finite logits at evaluation sample {start}")
        pred = la.argmax(axis=1)
        top1 += int((pred == yb).sum())
        order = np.argsort(-la, axis=1, kind="stable")[:, :k]
        topk += int((order == yb[:, None]).any(axis=1).sum())
    return top1 / n, topk / n


def _first_nonfinite(params: ParamSet) -> str | None:
    for name in sorted(params.values):
        if not np.isfinite(params.values[name]).all():
            return name
    for name in sorted(params.grads):
        if not np.isfinite(params.grads[name]).all():
            return f"grad:{name}"
    return None


def train(cfg: RunConfig, *, train_set: Dataset | None = None,
          eval_set: Dataset | None = None) -> TrainResult:
    """Run the configured training; deterministic given config and seed."""
    cfg.validate()
    t = cfg.train
    if train_set is None or eval_set is None:
        loaded_train, loaded_eval = load_datasets(cfg)
        train_set = train_set or loaded_train
        eval_set = eval_set or loaded_eval
    if len(train_set) == 0:
        raise InvariantError("training dataset is empty")
    graph = build_model(cfg)
    params = init_params(graph, seed=t.seed)
    velocities = {name: np.zeros_like(params.values[name]) for name in params.trainable}
    rng = np.random.default_rng(t.seed + 1)
    probes = None
    if t.stripe_probes > 0:
        count = min(t.stripe_probes, len(eval_set))
        probes = eval_set.images[:count]
    result = TrainResult(graph=graph, params=params)
    for epoch in range(t.epochs):
        lr = lr_at(t.schedule, epoch, lr=t.lr, milestones=t.milestones,
                   gamma=t.gamma, epochs=t.epochs)
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), t.batch_size):
            idx = order[start:start + t.batch_size]
            xb = train_set.images[idx]
            if t.flip or t.crop:
                xb = augment_batch(xb, rng, flip=t.flip, crop=t.crop)
            yb = train_set.labels[idx]
            # Drop the previous step's tape (every rule and cache it holds)
            # before this step's forward builds the next one.
            tape = None
            logits, tape = forward(graph, params, xb, mode="train")
            loss, dlogits = cross_entropy(logits, yb)
            if not np.isfinite(loss):
                bad = _first_nonfinite(params) or "loss"
                raise InvariantError(
                    f"non-finite loss at epoch {epoch} step {start // t.batch_size}; "
                    f"first non-finite tensor: {bad}")
            params.zero_grads()
            backward(tape, dlogits)
            for name in sorted(params.trainable):
                params.values[name], velocities[name] = sgd_step(
                    params.values[name], params.grads[name], velocities[name],
                    lr, t.momentum, t.weight_decay)
            bad = _first_nonfinite(params)
            if bad is not None:
                raise InvariantError(
                    f"non-finite parameter after update at epoch {epoch} step "
                    f"{start // t.batch_size}; first non-finite tensor: {bad}")
            losses.append(loss)
        top1, top5 = evaluate(graph, params, eval_set)
        result.metrics.append({"epoch": epoch + 1, "lr": lr,
                               "loss": float(np.mean(losses)),
                               "top1": top1, "top5": top5})
        if probes is not None and (epoch + 1) % t.stripe_every == 0:
            result.stripes.extend(record_stripes(graph, params, probes, epoch + 1))
    return result


def record_stripes(graph: ModelGraph, params: ParamSet, probes: np.ndarray,
                   epoch: int) -> list[StripeRecord]:
    """Capture every attention vector, and its post-scaling channel mean on a
    feature map, on the fixed probe inputs (eval mode)."""
    vectors: dict[str, np.ndarray] = {}
    _, tape = forward(graph, params, probes, mode="eval", hook=recorder(vectors),
                      keep=[n.name for n in graph.nodes if n.kind in ("asr", "attn")])
    records = []
    for module in sorted(vectors):
        y = tape.values[module]
        vs = np.broadcast_to(vectors[module], y.shape[:2])
        pm = y.mean(axis=(2, 3)) if y.ndim == 4 else None
        for p in range(vs.shape[0]):
            records.append(StripeRecord(module=module, epoch=epoch, probe=p,
                                        vector=vs[p].copy(),
                                        post_mean=None if pm is None else pm[p].copy()))
    return records
