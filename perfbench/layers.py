"""The traced layers and the end-to-end metric each one should move.

Every entry is `(module.function, prediction)`. The traced run reports
`<module>.<function>.self_s` and `.calls` for each entry, per round of the
workload, plus the `EXTRA` metrics below. The prediction names the
end-to-end metric (as printed in the run report) that a change to the
layer should move, and on which workload; a later performance change cites
its claim from these names. A layer absent from a workload reports 0.
"""

LAYERS = [
    ("kernels.conv2d_forward",
     "train_samples_per_s on train; eval_*_samples_per_s on deploy; unchanged on perturb"),
    ("kernels.im2col",
     "train_samples_per_s on train; eval_*_samples_per_s on deploy; unchanged on perturb"),
    ("kernels.col2im", "train_samples_per_s on train; unchanged on deploy and perturb"),
    ("kernels.conv2d_backward", "train_samples_per_s on train; unchanged on deploy and perturb"),
    ("kernels.batchnorm_train_forward", "train_samples_per_s on train"),
    ("kernels.batchnorm_train_backward", "train_samples_per_s on train"),
    ("kernels.batchnorm_eval_forward", "eval_*_samples_per_s and noise_attack_s on deploy"),
    ("kernels.relu", "every workload"),
    ("kernels.relu_grad", "train_samples_per_s on train"),
    ("kernels.channel_scale", "every workload (slot and attention scaling)"),
    ("autodiff.forward", "every workload; hook/registry refactors must not move it"),
    ("autodiff.backward", "train_samples_per_s on train; refactors must not move it"),
    ("autodiff.cross_entropy", "train_samples_per_s on train; refactors must not move it"),
    ("attention.asr_apply_raw", "train_samples_per_s on train; eval_unfused on deploy"),
    ("attention.asr_backward_raw", "train_samples_per_s on train"),
    ("attention.attn_forward_raw", "eval_standard_samples_per_s on deploy"),
    ("train.sgd_step", "train_samples_per_s on train"),
    ("train.evaluate", "train_samples_per_s on train"),
    ("train.record_stripes", "train_samples_per_s on train"),
    ("data.augment_batch", "train_samples_per_s on train"),
    ("fusion.fuse_model", "fuse_verify_s on deploy"),
    ("fusion.verify_equivalence", "fuse_verify_s on deploy"),
    ("checkpoint.save_checkpoint", "fuse_verify_s on deploy; chain_s on perturb"),
    ("checkpoint.load_checkpoint", "fuse_verify_s and noise_attack_s on deploy; perturb_sweep_s"),
    ("tensor.spectral_norm", "perturb_sweep_s on perturb; unchanged on train and deploy"),
    ("analysis.perturb_trace", "perturb_sweep_s on perturb"),
    ("analysis.noise_attack_eval", "noise_attack_s on deploy"),
    ("data.synth_dataset", "setup_s; train_samples_per_s and noise_attack_s (data generation)"),
    ("graph.init_params", "setup_s; train_samples_per_s; chain_s on perturb"),
    ("backbones.build_toy_resnet", "setup_s; train_samples_per_s on train"),
    ("cli.main", "CLI overhead in fuse_verify_s, noise_attack_s, perturb_sweep_s"),
]

EXTRA = [
    ("kernels.im2col.bytes", "B",
     "patch-matrix bytes written; conv workloads"),
    ("checkpoint.save_checkpoint.bytes", "B", "checkpoint bytes written; fuse_verify_s"),
    ("checkpoint.load_checkpoint.bytes", "B", "checkpoint bytes read; fuse_verify_s"),
    ("tensor.spectral_norm.useful_ratio", "ratio",
     "distinct matrices / calls within a round; perturb_sweep_s"),
    ("tracer.overhead_s", "s", "traced minus untraced median round wall"),
    ("tracer.overhead_share", "ratio", "tracer.overhead_s over the untraced median"),
    ("tracer.spans", "count", "spans recorded per round"),
]

TARGETS = [name for name, _ in LAYERS]
