"""attnfold: channel attention on a learnable constant input, folded into
backbone weights at inference with verified numerical equivalence."""

from .attention import AsrSlot, AttentionKind, AttnModule
from .autodiff import ParamSet, Tape, backward, cross_entropy, forward
from .backbones import (AttachSpec, build_residual_chain, build_toy_resnet,
                        build_toy_vgg)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DataSpec, ModelSpec, RunConfig, TrainSpec, parse_config
from .data import Dataset, load_cifar10_bin, synth_dataset
from .errors import (ConfigError, FormatError, FusionError, GraphError,
                     InvariantError, ShapeError, StateError)
from .fusion import (FusionReport, fold_into_attention_value, fold_into_bn,
                     fold_into_conv, fold_into_fc, fuse_model, verify_equivalence)
from .graph import LayerNode, ModelGraph, count_flops_conv, count_params, init_params
from .analysis import (BenchResult, NoiseSpec, PerturbationTrace, bench,
                       freeze_attention_eval, noise_attack_eval, perturb_trace,
                       stripe_channel_std, stripe_first_diff)
from .tensor import ConvSpec, MatrixOperator, Tensor, batchnorm_infer, channel_mul, \
    conv2d, global_avg_pool, linear, relu, sigmoid, spectral_norm
from .train import StripeRecord, TrainResult, evaluate, lr_at, sgd_step, train

__version__ = "0.1.0"
