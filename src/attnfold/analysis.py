"""Diagnostics: stripe statistics, the per-layer perturbation bound tracer,
noise attacks on BN layers, the frozen-attention baseline, and the
parameter/MAC/throughput benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ParamSet, forward, recorder
from .backbones import chain_blocks
from .data import Dataset
from .errors import GraphError, InvariantError
from .graph import ModelGraph, count_flops_conv, count_params
from .tensor import MatrixOperator, spectral_norm
from .train import StripeRecord, evaluate


# ---------------------------------------------------------------------------
# Stripe statistics


def stripe_channel_std(records: list[StripeRecord], epoch: int) -> dict[str, np.ndarray]:
    """Per-module, per-channel population std across probe inputs at one epoch."""
    by_module: dict[str, list[np.ndarray]] = {}
    for r in records:
        if r.epoch == epoch:
            by_module.setdefault(r.module, []).append(r.vector)
    if not by_module:
        raise InvariantError(f"no stripe records at epoch {epoch}")
    out = {}
    for module, vecs in sorted(by_module.items()):
        if len(vecs) < 2:
            raise InvariantError(f"module {module}: need >= 2 probe inputs, got {len(vecs)}")
        out[module] = np.stack(vecs).std(axis=0)
    return out


@dataclass
class FirstDiffResult:
    epochs: list[int]                                  # recorded epochs, ascending
    deltas: dict[tuple[str, int], np.ndarray]          # (module, probe) -> [T-1, C]
    convergence: dict[tuple[str, int], np.ndarray]     # (module, probe) -> [C] epochs, -1 never


def stripe_first_diff(records: list[StripeRecord], threshold: float = 1e-3
                      ) -> FirstDiffResult:
    """abs(v at next epoch - v at this epoch) per module/channel/probe.

    The convergence epoch of a channel is the first recorded epoch after
    which every subsequent delta stays below the threshold (-1 if never).
    The threshold must be finite and positive.
    """
    if not 0 < threshold < np.inf:
        raise InvariantError(f"threshold must be finite and > 0, got {threshold!r}")
    epochs = sorted({r.epoch for r in records})
    if len(epochs) < 2:
        raise InvariantError("need records from >= 2 epochs")
    series: dict[tuple[str, int], dict[int, np.ndarray]] = {}
    for r in records:
        series.setdefault((r.module, r.probe), {})[r.epoch] = r.vector
    deltas: dict[tuple[str, int], np.ndarray] = {}
    convergence: dict[tuple[str, int], np.ndarray] = {}
    for key, by_epoch in sorted(series.items()):
        if sorted(by_epoch) != epochs:
            raise InvariantError(f"module/probe {key} is missing epochs")
        stack = np.stack([by_epoch[e] for e in epochs])
        d = np.abs(np.diff(stack, axis=0))
        deltas[key] = d
        below = d < threshold
        conv = np.full(stack.shape[1], -1, dtype=np.int64)
        for c in range(stack.shape[1]):
            above = np.nonzero(~below[:, c])[0]
            if above.size == 0:
                conv[c] = epochs[0]
            elif above[-1] == len(epochs) - 2:
                conv[c] = -1  # still moving at the final transition
            else:
                conv[c] = epochs[above[-1] + 1]
        convergence[key] = conv
    return FirstDiffResult(epochs=epochs, deltas=deltas, convergence=convergence)


# ---------------------------------------------------------------------------
# Perturbation bound tracer


@dataclass
class TraceRow:
    t: int
    eps_t: float
    alpha_t: float
    w_norm: float
    factor: float       # 1 + alpha_t * ||W_t||_2


@dataclass
class PerturbationTrace:
    eps: float
    rows: list[TraceRow] = field(default_factory=list)
    eps_final: float = 0.0
    bound_product: float = 0.0   # M = prod(1 + alpha_t ||W_t||)

    def product_holds(self, slack: float = 1e-9) -> bool:
        return self.eps_final <= self.eps * self.bound_product * (1.0 + slack)


def perturb_trace(graph: ModelGraph, params: ParamSet, x0, eps: float,
                  seed: int) -> PerturbationTrace:
    """Evaluate clean and perturbed trajectories through a residual chain.

    eps_t is the Euclidean norm of the difference at each block boundary;
    alpha_t is the max element of the constant vector the forward pass
    applied in the block (1 when the block has no slot); ||W_t||_2 is
    computed exactly (`spectral_norm` of an explicit matrix), so each factor
    1 + alpha_t ||W_t||_2 is an upper bound on the block's amplification up
    to rounding.
    """
    if not 0 < eps < np.inf:
        raise InvariantError(f"eps must be positive and finite, got {eps}")
    blocks = chain_blocks(graph)
    x0a = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0a.shape != tuple(graph.input_shape):
        raise GraphError(f"x0 shape {x0a.shape} does not match chain input "
                         f"{tuple(graph.input_shape)}")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(x0a.size)
    u /= np.linalg.norm(u)
    x_pair = np.stack([x0a, x0a + eps * u])
    vectors: dict[str, np.ndarray] = {}
    _, tape = forward(graph, params, x_pair, mode="eval",
                      keep={b["boundary"] for b in blocks}, hook=recorder(vectors))
    trace = PerturbationTrace(eps=float(np.linalg.norm(eps * u)))
    eps_t = trace.eps
    product = 1.0
    for block in blocks:
        boundary = tape.values[block["boundary"]]
        eps_next = float(np.linalg.norm(boundary[1] - boundary[0]))
        if block["slot"] is not None:
            # The vector the forward pass applied; a slot's node is named by its id.
            alpha = float(vectors[block["slot"].slot_id].max())
            if not 0.0 < alpha < 1.0:
                raise InvariantError(f"block {block['index']}: alpha {alpha} outside (0,1)")
        else:
            alpha = 1.0
        w_norm = spectral_norm(MatrixOperator(params.values[block["weight"]]))
        factor = 1.0 + alpha * w_norm
        product *= factor
        trace.rows.append(TraceRow(t=block["index"], eps_t=eps_next, alpha_t=alpha,
                                   w_norm=w_norm, factor=factor))
        eps_t = eps_next
    trace.eps_final = eps_t
    trace.bound_product = product
    return trace


# ---------------------------------------------------------------------------
# Noise attacks on BN layers


@dataclass(frozen=True)
class NoiseSpec:
    mode: str           # constant | random
    a: float            # N_a, or sigma of N_a ~ N(1, sigma^2)
    b: float            # N_b, or sigma of N_b ~ N(0, sigma^2)

    def __post_init__(self):
        if self.mode not in ("constant", "random"):
            raise InvariantError(f"unknown noise mode {self.mode!r}")
        if not np.isfinite([self.a, self.b]).all():
            raise InvariantError(f"noise a and b must be finite, got {self.a}, {self.b}")
        if self.mode == "random" and (self.a < 0 or self.b < 0):
            raise InvariantError("random-noise sigmas must be >= 0")


@dataclass
class NoiseResult:
    spec: NoiseSpec
    mean: float
    std: float
    runs: list[float]


def noise_attack_eval(graph: ModelGraph, params: ParamSet, dataset: Dataset,
                      spec: NoiseSpec, *, repeats: int = 5, seed: int = 0,
                      batch_size: int = 64) -> NoiseResult:
    """Accuracy with every BN's normalized activation mapped to xhat*N_a + N_b.

    Constant mode uses the fixed scalars; random mode resamples
    N_a ~ N(1, a^2), N_b ~ N(0, b^2) per BN layer per forward pass and
    reports mean/std over `repeats` evaluations.
    """
    if not any(n.kind == "bn" for n in graph.nodes):
        raise GraphError("graph has no BN layers to attack")
    if len(dataset) == 0:
        raise InvariantError("noise-attack dataset is empty")
    if repeats < 1:
        raise InvariantError(f"repeats must be >= 1, got {repeats}")

    def top1(draw) -> float:
        """Accuracy with each BN's (scale, shift) taken from `draw()`."""
        return evaluate(graph, params, dataset, batch_size=batch_size,
                        hook=lambda node, m: draw() if node.kind == "bn" else m)[0]

    if spec.mode == "constant":
        acc = top1(lambda: (spec.a, spec.b))
        return NoiseResult(spec=spec, mean=acc, std=0.0, runs=[acc])
    runs = []
    for r in range(repeats):
        rng = np.random.default_rng((seed, r))
        runs.append(top1(lambda: (1.0 + rng.standard_normal() * spec.a,
                                  rng.standard_normal() * spec.b)))
    arr = np.asarray(runs)
    return NoiseResult(spec=spec, mean=float(arr.mean()), std=float(arr.std()),
                       runs=runs)


# ---------------------------------------------------------------------------
# Frozen-attention baseline


def freeze_attention_eval(graph: ModelGraph, params: ParamSet, calib: Dataset,
                          eval_set: Dataset, *, batch_size: int = 64) -> float:
    """Replace each attention module by its mean vector over the calibration
    set, then evaluate top-1 accuracy."""
    names = [n.name for n in graph.nodes if n.kind == "attn"]
    if not names:
        raise GraphError("graph has no standard attention modules")
    if len(calib) == 0:
        raise InvariantError("calibration dataset is empty")
    sums = {name: None for name in names}
    total = 0
    vectors: dict[str, np.ndarray] = {}
    for start in range(0, len(calib), batch_size):
        xb = calib.images[start:start + batch_size]
        forward(graph, params, xb, mode="eval", hook=recorder(vectors))
        for name in names:
            s = vectors[name].sum(axis=0)
            sums[name] = s if sums[name] is None else sums[name] + s
        total += xb.shape[0]
    frozen = {name: sums[name] / total for name in names}
    return evaluate(graph, params, eval_set, batch_size=batch_size,
                    hook=lambda node, m: frozen.get(node.name, m))[0]


# ---------------------------------------------------------------------------
# Parameter / MAC / throughput benchmark


@dataclass
class BenchResult:
    param_count: int
    macs: int
    samples_per_s: float
    median_s: float


def bench(graph: ModelGraph, params: ParamSet, input_shape: tuple[int, ...],
          warmup: int = 5, iters: int = 30, seed: int = 0) -> BenchResult:
    """Median wall-clock eval throughput plus deterministic size counts.

    input_shape is the full batch shape [N, ...]; throughput is N over the
    median iteration time.
    """
    if iters < 1:
        raise InvariantError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(input_shape)
    for _ in range(warmup):
        forward(graph, params, x, mode="eval")
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        forward(graph, params, x, mode="eval")
        times.append(time.perf_counter() - t0)
    med = float(np.median(times))
    return BenchResult(param_count=count_params(graph),
                       macs=count_flops_conv(graph, tuple(input_shape[1:])),
                       samples_per_s=input_shape[0] / med,
                       median_s=med)
