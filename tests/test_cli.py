"""CLI: end-to-end command flows, determinism of emitted artifacts."""

import json

import numpy as np
import pytest

from attnfold import (AttachSpec, AttentionKind, FormatError, build_toy_resnet,
                      init_params, load_checkpoint, save_checkpoint)
from attnfold import cli
from attnfold.cli import main

CFG = """
[model]
backbone = resnet
blocks = 1
width = 4
attention = se
attention_mode = asr
se_reduction = 2

[train]
epochs = 2
batch_size = 8
lr = 0.05
milestones = 1
seed = 3

[data]
classes = 2
samples = 16
image_size = 6
seed = 5
eval_samples = 16
"""


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    return tmp_path, cfg


def run(args):
    return main([str(a) for a in args])


def nan_checkpoint_pair(root):
    """A seeded SE-slot ResNet checkpoint and a copy with one NaN weight."""
    spec = AttachSpec(kind=AttentionKind("se", reduction=2))
    g = build_toy_resnet(1, 4, 3, spec, image_size=6)
    p = init_params(g, seed=21)
    clean, bad = root / "clean.ckpt", root / "nan.ckpt"
    save_checkpoint(clean, g, p)
    p.values["head.w"] = p.values["head.w"].copy()
    p.values["head.w"][0, 0] = np.nan
    save_checkpoint(bad, g, p)
    return clean, bad


def se_checkpoint_with_node(root, name, edit):
    """A seeded SE-slot ResNet checkpoint whose graph node `name` is edited in place."""
    spec = AttachSpec(kind=AttentionKind("se", reduction=2))
    g = build_toy_resnet(1, 4, 3, spec, image_size=6)
    f = root / "edited.ckpt"
    save_checkpoint(f, g, init_params(g, seed=21))
    head, graph_line, rest = f.read_bytes().split(b"\n", 2)
    d = json.loads(graph_line[len(b"graph "):])
    edit(next(n for n in d["nodes"] if n["name"] == name))
    return write_graph(f, head, d, rest)


def reference_checkpoint(root, variant, mode, seed=21):
    """A seeded width-4 ResNet checkpoint with one attention node; returns the
    path, the manifest header, the graph dict and the rest of the file."""
    spec = AttachSpec(kind=AttentionKind(variant, reduction=2), mode=mode)
    g = build_toy_resnet(1, 4, 3, spec, image_size=6)
    f = root / f"{variant}_{mode}.ckpt"
    save_checkpoint(f, g, init_params(g, seed=seed))
    head, graph_line, rest = f.read_bytes().split(b"\n", 2)
    return f, head, json.loads(graph_line[len(b"graph "):]), rest


def write_graph(f, head, graph, rest):
    line = json.dumps(graph, sort_keys=True, separators=(",", ":"))
    f.write_bytes(head + b"\ngraph " + line.encode() + b"\n" + rest)
    return f


def only_run_dir(root):
    dirs = [d for d in root.iterdir() if d.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


class TestTrainCommand:
    def test_outputs(self, workspace):
        root, cfg = workspace
        out = root / "runs"
        assert run(["--out-root", out, "train", cfg]) == 0
        rd = only_run_dir(out)
        assert (rd / "checkpoint.ckpt").exists()
        assert (rd / "metrics.csv").exists()
        assert (rd / "config.resolved").exists()
        header = (rd / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,lr,loss,top1,top5"

    def test_resolved_config_reparses(self, workspace):
        from attnfold import parse_config
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg, "--set", "train.epochs=1"])
        rd = only_run_dir(out)
        echoed = parse_config((rd / "config.resolved").read_text())
        assert echoed.train.epochs == 1

    def test_byte_identical_rerun(self, workspace):
        root, cfg = workspace
        out1, out2 = root / "r1", root / "r2"
        run(["--out-root", out1, "train", cfg])
        run(["--out-root", out2, "train", cfg])
        d1, d2 = only_run_dir(out1), only_run_dir(out2)
        assert (d1 / "checkpoint.ckpt").read_bytes() == (d2 / "checkpoint.ckpt").read_bytes()
        assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()

    def test_error_is_one_line(self, workspace, capsys):
        root, cfg = workspace
        bad = root / "bad.cfg"
        bad.write_text("[model]\nnope = 1\n")
        assert run(["train", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["train"], ["ablate", "--axis", "delta", "--config"]],
                             ids=["train", "ablate"])
    def test_diverged_run_leaves_no_run_dir(self, workspace, capsys, command):
        root, cfg = workspace
        diverge = ["--set", "train.lr=1e30", "--set", "train.epochs=3",
                   "--set", "data.samples=64", "--set", "train.batch_size=16"]
        assert run(["--out-root", root / "runs"] + command + [cfg] + diverge) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite parameter after update at epoch 0 step 2")
        assert not list((root / "runs").glob("*"))


class TestFuseVerify:
    def test_fuse_then_verify(self, workspace):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        rd = only_run_dir(out)
        ckpt = rd / "checkpoint.ckpt"
        fused = root / "fused.ckpt"
        assert run(["fuse", ckpt, fused]) == 0
        assert fused.exists()
        report = root / "fused_fusion_report.csv"
        assert report.exists()
        lines = report.read_text().splitlines()
        assert lines[0] == "slot_id,fold_kind,target_layer,through_relu,max_dev,vector_norm"
        assert len(lines) == 2
        assert run(["verify", ckpt, fused, "--tol", "1e-9"]) == 0

    def test_verify_same_checkpoint_zero(self, workspace, capsys):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        assert run(["verify", ckpt, ckpt]) == 0
        assert "deviation 0.0" in capsys.readouterr().out

    def test_verify_fails_on_different_models(self, workspace, capsys):
        root, cfg = workspace
        out1, out2 = root / "r1", root / "r2"
        run(["--out-root", out1, "train", cfg])
        run(["--out-root", out2, "train", cfg, "--set", "train.seed=9"])
        a = only_run_dir(out1) / "checkpoint.ckpt"
        b = only_run_dir(out2) / "checkpoint.ckpt"
        assert run(["verify", a, b]) == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_fails_closed_on_nan(self, tmp_path, capsys):
        clean, bad = nan_checkpoint_pair(tmp_path)
        assert run(["verify", clean, bad, "--tol", "1e-9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fuse_fails_closed_on_nan(self, tmp_path, capsys):
        _, bad = nan_checkpoint_pair(tmp_path)
        fused = tmp_path / "fused.ckpt"
        assert run(["fuse", bad, fused]) == 1
        assert not fused.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("command", ["fuse", "verify"])
    def test_fewer_than_one_input_exits_1(self, tmp_path, capsys, command, n):
        # fuse --n 0 used to write its outputs with max_dev 0.0 from no input.
        clean, _ = nan_checkpoint_pair(tmp_path)
        fused = tmp_path / "fused.ckpt"
        assert run([command, clean, fused if command == "fuse" else clean, "--n", n]) == 1
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"
        assert not fused.exists() and not (tmp_path / "fused_fusion_report.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "-0.5"])
    @pytest.mark.parametrize("command", ["fuse", "verify"])
    def test_nan_or_negative_tol_exits_1(self, tmp_path, capsys, command, tol):
        # verify --tol nan used to compare a zero deviation against NaN and
        # report "deviation 0.0 exceeds tol nan".
        clean, _ = nan_checkpoint_pair(tmp_path)
        fused = tmp_path / "fused.ckpt"
        assert run(["--out-root", tmp_path / "runs", command, clean,
                    fused if command == "fuse" else clean, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --tol must be a non-negative number, got {tol}\n"
        assert not fused.exists() and not (tmp_path / "fused_fusion_report.csv").exists()
        assert not (tmp_path / "runs").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_fails_closed_on_overflowing_forward(self, tmp_path, capsys):
        # Finite weights load, but inf - inf in the forward makes the deviation NaN.
        clean, _ = nan_checkpoint_pair(tmp_path)
        g, p = load_checkpoint(clean)
        p.values["stem.conv.k"] = np.full_like(p.values["stem.conv.k"], 1e308)
        huge = tmp_path / "huge.ckpt"
        save_checkpoint(huge, g, p)
        assert run(["verify", clean, huge, "--tol", "1e-9"]) == 1
        out, err = capsys.readouterr()
        assert "deviation nan" in out
        assert "error: verification failed" in err

    def test_fuse_without_slots_is_identity(self, workspace):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg, "--set", "model.attention=none"])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        fused = root / "plain_fused.ckpt"
        assert run(["fuse", ckpt, fused]) == 0
        assert fused.read_bytes() == ckpt.read_bytes()
        report = root / "plain_fused_fusion_report.csv"
        assert report.read_text().splitlines() == [
            "slot_id,fold_kind,target_layer,through_relu,max_dev,vector_norm"]

    def test_fused_checkpoint_is_deterministic(self, workspace):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        f1, f2 = root / "f1.ckpt", root / "f2.ckpt"
        run(["fuse", ckpt, f1])
        run(["fuse", ckpt, f2])
        assert f1.read_bytes() == f2.read_bytes()


class TestCheckpointValidation:
    def test_bench_rejects_nan_weight(self, tmp_path, capsys):
        _, bad = nan_checkpoint_pair(tmp_path)
        assert run(["--out-root", tmp_path / "runs", "bench", bad,
                    "--warmup", 0, "--iters", 1]) == 1
        assert "'head.w'" in capsys.readouterr().err

    def test_bench_rejects_negative_running_var(self, tmp_path, capsys):
        clean, _ = nan_checkpoint_pair(tmp_path)
        g, p = load_checkpoint(clean)
        p.values["stem.bn.running_var"] = -p.values["stem.bn.running_var"]
        bad = tmp_path / "negvar.ckpt"
        save_checkpoint(bad, g, p)
        assert run(["--out-root", tmp_path / "runs", "bench", bad,
                    "--warmup", 0, "--iters", 1]) == 1
        assert "'stem.bn.running_var'" in capsys.readouterr().err

    def test_empty_graph_json(self, tmp_path, capsys):
        f = tmp_path / "empty.ckpt"
        f.write_bytes(b"attnfold-checkpoint 1\ngraph {}\npayload 0\n")
        assert run(["verify", f, f]) == 1
        assert "'nodes'" in capsys.readouterr().err

    def test_conv_missing_in_ch(self, tmp_path, capsys):
        g = build_toy_resnet(1, 4, 3, None, image_size=6)
        d = g.to_dict()
        del next(n for n in d["nodes"] if n["kind"] == "conv")["attrs"]["in_ch"]
        f = tmp_path / "no_in_ch.ckpt"
        write_graph(f, b"attnfold-checkpoint 1", d, b"payload 0\n")
        assert run(["verify", f, f]) == 1
        assert "'in_ch'" in capsys.readouterr().err

    def test_graph_value_of_wrong_type(self, tmp_path, capsys):
        d = build_toy_resnet(1, 4, 3, None, image_size=6).to_dict()
        d["nodes"] = 5
        f = tmp_path / "int_nodes.ckpt"
        write_graph(f, b"attnfold-checkpoint 1", d, b"payload 0\n")
        assert run(["verify", f, f]) == 1
        assert "'nodes' must be a JSON array" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["classes", "in_ch"])
    def test_graph_scalar_of_wrong_type(self, tmp_path, capsys, key):
        d = build_toy_resnet(1, 4, 3, None, image_size=6).to_dict()
        if key == "classes":
            d["classes"] = "x"
        else:
            conv = next(n for n in d["nodes"] if n["name"] == "stem.conv")
            conv["attrs"]["in_ch"] = "3"
        f = tmp_path / f"str_{key}.ckpt"
        write_graph(f, b"attnfold-checkpoint 1", d, b"payload 0\n")
        assert run(["verify", f, f]) == 1
        assert f"{key!r} must be a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("classes", [7, -1])
    def test_classes_disagreeing_with_head(self, tmp_path, capsys, classes):
        d = build_toy_resnet(1, 4, 3, None, image_size=6).to_dict()
        d["classes"] = classes
        f = tmp_path / f"classes_{classes}.ckpt"
        write_graph(f, b"attnfold-checkpoint 1", d, b"payload 0\n")
        assert run(["verify", f, f]) == 1
        assert "'classes'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [[1], {}])
    def test_non_string_node_input(self, tmp_path, capsys, bad):
        f = se_checkpoint_with_node(tmp_path, "stem.conv",
                                    lambda n: n.update(inputs=[bad]))
        assert run(["verify", f, f]) == 1
        assert "'stem.conv' key 'inputs[0]' must be a JSON string" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,low", [("stride", 0, 1), ("padding", -1, 0),
                                               ("kh", 0, 1)])
    def test_conv_geometry_out_of_range(self, tmp_path, capsys, key, value, low):
        f = se_checkpoint_with_node(tmp_path, "stem.conv",
                                    lambda n: n["attrs"].update({key: value}))
        assert run(["verify", f, f]) == 1
        assert (f"conv 'stem.conv' attr {key!r} must be >= {low}, got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("table,path,value,message", [
        ("slots", ("kind", "reduction"), 0, "reduction must be >= 1, got 0"),
        ("slots", ("channels",), "x", "key 'channels' must be a JSON integer"),
        ("slots", ("delta_index",), [], "key 'delta_index' must be a JSON integer"),
        ("slots", ("kind", "levels", 0), None, "key 'levels[0]' must be a JSON integer"),
        ("modules", ("channels",), {}, "key 'channels' must be a JSON integer"),
        ("modules", ("kind", "kernel"), "3", "key 'kernel' must be a JSON integer")])
    def test_attention_field_rejected(self, tmp_path, capsys, table, path, value, message):
        f, head, d, rest = reference_checkpoint(
            tmp_path, "se", "asr" if table == "slots" else "standard")
        entry = next(iter(d[table].values()))
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        write_graph(f, head, d, rest)
        assert run(["verify", f, f, "--n", 2]) == 1
        assert message in capsys.readouterr().err

    def test_two_slots_sharing_an_id(self, tmp_path, capsys):
        # Both slots would own the same tensors; fuse escaped with a KeyError
        # after removing the first.
        spec = AttachSpec(kind=AttentionKind("se", reduction=2), delta=2)
        g = build_toy_resnet(1, 4, 3, spec, image_size=6)
        p = init_params(g, seed=21)
        g.slots["block0.asr1"].slot_id = "block0.asr0"
        for name in [n for n in p.values if n.startswith("block0.asr1.")]:
            del p.values[name]
        f = tmp_path / "dup.ckpt"
        save_checkpoint(f, g, p)
        assert run(["fuse", f, tmp_path / "fused.ckpt", "--n", 2]) == 1
        assert "'block0.asr1' declares id 'block0.asr0'" in capsys.readouterr().err

    def test_unallocatable_input_is_an_error_line(self, tmp_path, capsys):
        # 2**40 columns cannot be allocated on any host, so verify fails
        # when it builds its inputs rather than at load.
        f, head, d, rest = reference_checkpoint(tmp_path, "se", "asr")
        d["input_shape"][2] = 2 ** 40
        write_graph(f, head, d, rest)
        assert run(["verify", f, f, "--n", 2]) == 1
        assert capsys.readouterr().err.startswith("error: ")


LEAF_VALUES = [0, -1, 2 ** 40, 1.5, "x", None, [], {}, True, [1, 2]]


def graph_leaves(obj, path=()):
    """Paths to every scalar or empty container in a JSON value."""
    if isinstance(obj, (dict, list)) and obj:
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from graph_leaves(value, path + (key,))
    else:
        yield path


class TestLeafWalk:
    """Every graph-JSON leaf of a reference checkpoint, replaced by each value
    in LEAF_VALUES, must make `attnfold verify` exit 0 or 1: no traceback. The
    only large value, 2**40, fails at allocation wherever it gets that far."""

    @pytest.mark.parametrize("variant,mode", [("se", "asr"), ("cbam", "standard")])
    def test_no_escape(self, tmp_path, monkeypatch, capsys, variant, mode):
        parser = cli.build_parser()  # argparse setup would dominate the walk
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        _, head, d, rest = reference_checkpoint(tmp_path, variant, mode)
        f = tmp_path / "mutant.ckpt"
        codes = set()
        for path in graph_leaves(d):
            for value in LEAF_VALUES:
                m = json.loads(json.dumps(d))
                entry = m
                for key in path[:-1]:
                    entry = entry[key]
                entry[path[-1]] = value
                write_graph(f, head, m, rest)
                code = main(["verify", str(f), str(f), "--n", "2"])
                assert code in (0, 1), (path, value)
                codes.add(code)
        capsys.readouterr()
        assert codes == {0, 1}


class TestStripeCommand:
    def test_summaries(self, workspace):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg, "--set", "train.stripe_probes=3",
             "--set", "model.attention_mode=standard"])
        rd = only_run_dir(out)
        assert (rd / "stripe_records.csv").exists()
        sout = root / "sruns"
        assert run(["--out-root", sout, "stripe", rd]) == 0
        sd = only_run_dir(sout)
        for name in ("stripe_std.csv", "stripe_first_diff.csv",
                     "stripe_convergence.csv"):
            assert (sd / name).exists()

    def test_one_epoch_records_exit_1(self, workspace, capsys):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg, "--set", "train.stripe_probes=3",
             "--set", "model.attention_mode=standard", "--set", "train.epochs=1"])
        capsys.readouterr()
        assert run(["--out-root", root / "sruns", "stripe", only_run_dir(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list((root / "sruns").glob("*"))


    STILL = ("module,epoch,probe,channel,value\n"
             "m,1,0,0,0.5\nm,1,1,0,0.5\nm,2,0,0,0.5\nm,2,1,0,0.5\n")

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0", "inf"])
    def test_bad_threshold_exits_1(self, tmp_path, capsys, threshold):
        records = tmp_path / "stripe_records.csv"
        records.write_text(self.STILL)
        out = tmp_path / "sruns"
        assert run(["--out-root", out, "stripe", records, f"--threshold={threshold}"]) == 1
        assert "threshold" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("*"))

    @pytest.mark.parametrize("row", ["m,2,1,0", "m,2,1,0,0.5,7", "m,x,1,0,0.5",
                                     "m,2,1.5,0,0.5", "m,2,1,c,0.5", "m,2,1,0,nan",
                                     "m,2,1,0,-inf"],
                             ids=["short", "long", "epoch", "probe", "channel",
                                  "nan-value", "inf-value"])
    def test_malformed_row_names_path_and_line(self, tmp_path, capsys, row):
        records = tmp_path / "stripe_records.csv"
        records.write_text(self.STILL.replace("m,2,1,0,0.5", row))
        with pytest.raises(FormatError, match=f"stripe_records.csv:5: "):
            cli.read_stripes(records)
        out = tmp_path / "sruns"
        assert run(["--out-root", out, "stripe", records]) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}:5: ")
        assert not out.exists() or not list(out.glob("*"))

    @pytest.mark.parametrize("row", ["m,2,1,0,0.9", "m,2,1,5,0.5", "m,2,1,-1,0.5"],
                             ids=["duplicate", "gap", "negative"])
    def test_channels_not_0_to_c_name_path_and_line(self, tmp_path, capsys, row):
        # Channels must be 0..C-1 with one row each; a repeated row used to
        # replace the first and channels 0, 5 to be renumbered 0, 1.
        records = tmp_path / "stripe_records.csv"
        records.write_text(self.STILL + row + "\n")
        with pytest.raises(FormatError, match=f"stripe_records.csv:6: "):
            cli.read_stripes(records)
        out = tmp_path / "sruns"
        assert run(["--out-root", out, "stripe", records]) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}:6: ")
        assert not out.exists() or not list(out.glob("*"))


class TestChainPerturb:
    def test_chain_and_perturb(self, workspace):
        root, _ = workspace
        ckpt = root / "chain.ckpt"
        assert run(["chain", ckpt, "--depth", 3, "--width", 8, "--seed", 2]) == 0
        out = root / "runs"
        assert run(["--out-root", out, "perturb", ckpt, "--eps", "0.01,0.1",
                    "--trials", 2, "--seed", 4]) == 0
        rd = only_run_dir(out)
        lines = (rd / "perturbation_trace.csv").read_text().splitlines()
        assert lines[0] == ("eps,trial,block,eps_in,eps_out,alpha,w_norm,factor,holds")
        body = [l.split(",") for l in lines[1:]]
        # every per-block row and every product row holds
        assert all(row[-1] == "1" for row in body)
        # 2 eps x 2 trials x (3 blocks + 1 summary row)
        assert len(body) == 2 * 2 * 4

    @pytest.mark.parametrize("psi_std", ["nan", "inf", "-1"])
    def test_chain_rejects_bad_psi_std(self, workspace, capsys, psi_std):
        root, _ = workspace
        ckpt = root / "chain.ckpt"
        assert run(["chain", ckpt, "--depth", 2, "--width", 8, "--psi-std", psi_std]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "psi_init" in err
        assert not ckpt.exists()

    def test_perturb_rejects_non_chain(self, workspace, capsys):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        assert run(["--out-root", root / "p", "perturb", ckpt]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["--trials", 0], "--trials"),
        (["--trials", -2], "--trials"),
        (["--eps", "nan"], "eps"),
        (["--eps", "inf"], "eps"),
        (["--eps", "0.01,-0.1"], "eps"),
    ], ids=["zero-trials", "negative-trials", "nan-eps", "inf-eps", "negative-eps"])
    def test_rejected_sweep_exits_1(self, workspace, capsys, args, named):
        root, _ = workspace
        ckpt = root / "chain.ckpt"
        assert run(["chain", ckpt, "--depth", 2, "--width", 8]) == 0
        capsys.readouterr()
        assert run(["--out-root", root / "runs", "perturb", ckpt] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not list((root / "runs").glob("*"))


class TestNoiseCommand:
    def test_table_shape(self, workspace):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        nout = root / "nruns"
        assert run(["--out-root", nout, "noise", ckpt, "--config", cfg,
                    "--spec", "constant:1.0,0.0", "--spec", "constant:0.5,0.5",
                    "--spec", "random:0.1,0.1", "--repeats", 3]) == 0
        nd = only_run_dir(nout)
        lines = (nd / "noise_attack.csv").read_text().splitlines()
        assert lines[0] == "mode,a,b,top1_mean,top1_std,repeats"
        assert len(lines) == 4

    def test_identity_row_matches_clean_eval(self, workspace):
        from attnfold import evaluate, load_checkpoint, parse_config
        from attnfold.train import load_datasets
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        nout = root / "nruns"
        run(["--out-root", nout, "noise", ckpt, "--config", cfg,
             "--spec", "constant:1.0,0.0"])
        nd = only_run_dir(nout)
        row = (nd / "noise_attack.csv").read_text().splitlines()[1].split(",")
        graph, params = load_checkpoint(ckpt)
        _, eval_set = load_datasets(parse_config(cfg.read_text()))
        clean, _ = evaluate(graph, params, eval_set)
        assert float(row[3]) == clean


    @pytest.mark.parametrize("args", [
        ["--spec", "constant:1e300,1e300"],
        ["--spec", "constant:inf,0"],
        ["--spec", "constant:nan,0"],
        ["--spec", "random:nan,0.1"],
        ["--spec", "random:0.1,0.1", "--repeats", 0],
    ], ids=["overflow", "inf", "nan", "random-nan", "zero-repeats"])
    def test_rejected_attack_exits_1(self, workspace, capsys, args):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        capsys.readouterr()
        assert run(["--out-root", root / "nruns", "noise", ckpt, "--config", cfg]
                   + args) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list((root / "nruns").glob("*"))

class TestBenchCommand:
    def test_rows(self, workspace):
        root, cfg = workspace
        out = root / "runs"
        run(["--out-root", out, "train", cfg])
        ckpt = only_run_dir(out) / "checkpoint.ckpt"
        bout = root / "bruns"
        assert run(["--out-root", bout, "bench", ckpt, "--input-shape", "4,3,6,6",
                    "--warmup", 1, "--iters", 3]) == 0
        bd = only_run_dir(bout)
        lines = (bd / "bench.csv").read_text().splitlines()
        assert lines[0] == "variant,params,macs,samples_per_s,median_s"
        variants = [l.split(",")[0] for l in lines[1:]]
        assert variants == ["model", "fused", "baseline"]
        fused = lines[2].split(",")
        base = lines[3].split(",")
        assert fused[1] == base[1] and fused[2] == base[2]

    @pytest.mark.parametrize("args", [["--iters", 0], ["--input-shape", "2,9"],
                                      ["--input-shape", "0,8"]],
                             ids=["zero-iters", "wrong-width", "zero-batch"])
    def test_rejected_bench_exits_1(self, workspace, capsys, args):
        root, _ = workspace
        ckpt = root / "chain.ckpt"
        assert run(["chain", ckpt, "--depth", 2, "--width", 8]) == 0
        bench = ["--out-root", root / "bruns", "bench", ckpt, "--input-shape", "2,8",
                 "--warmup", 1, "--iters", 2]
        capsys.readouterr()
        assert run(bench + args) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list((root / "bruns").glob("*"))
        assert run(bench) == 0   # the same command without `args` runs


class TestAblateCommand:
    def test_delta_axis_param_parity(self, workspace):
        root, cfg = workspace
        out = root / "aruns"
        assert run(["--out-root", out, "ablate", "--axis", "delta",
                    "--config", cfg, "--set", "train.epochs=1", "--n", 10]) == 0
        ad = only_run_dir(out)
        lines = (ad / "ablate_delta.csv").read_text().splitlines()
        assert lines[0] == ("axis,value,top1,top5,loss,params_train,params_fused,"
                            "max_dev")
        rows = [l.split(",") for l in lines[1:]]
        assert [r[1] for r in rows] == ["1", "2", "3", "4"]
        fused_counts = {r[6] for r in rows}
        assert len(fused_counts) == 1
        train_counts = [int(r[5]) for r in rows]
        assert train_counts == sorted(train_counts) and train_counts[0] < train_counts[-1]

    def test_position_axis(self, workspace):
        root, cfg = workspace
        out = root / "aruns"
        assert run(["--out-root", out, "ablate", "--axis", "position",
                    "--config", cfg, "--set", "train.epochs=1", "--n", 5]) == 0
        ad = only_run_dir(out)
        rows = (ad / "ablate_position.csv").read_text().splitlines()[1:]
        assert len(rows) == 4

    def test_no_body_axis(self, workspace):
        root, cfg = workspace
        out = root / "aruns"
        assert run(["--out-root", out, "ablate", "--axis", "no_body",
                    "--config", cfg, "--set", "train.epochs=1", "--n", 5]) == 0
        ad = only_run_dir(out)
        rows = [l.split(",") for l in
                (ad / "ablate_no_body.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["none", "no_body", "se"]

    def test_psi_mode_axis(self, workspace):
        root, cfg = workspace
        out = root / "aruns"
        assert run(["--out-root", out, "ablate", "--axis", "psi_mode",
                    "--config", cfg, "--set", "train.epochs=1", "--n", 5]) == 0
        ad = only_run_dir(out)
        rows = (ad / "ablate_psi_mode.csv").read_text().splitlines()[1:]
        assert len(rows) == 7  # learnable + 3 frozen_constant + 3 frozen_gaussian

    def test_init_axis(self, workspace):
        root, cfg = workspace
        out = root / "aruns"
        assert run(["--out-root", out, "ablate", "--axis", "init",
                    "--config", cfg, "--set", "train.epochs=1", "--n", 5]) == 0
        ad = only_run_dir(out)
        rows = [l.split(",") for l in
                (ad / "ablate_init.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]


class TestCifarTraining:
    def test_train_on_binary_files(self, tmp_path):
        rng = __import__("numpy").random.default_rng(0)
        for name, n in (("train.bin", 24), ("test.bin", 8)):
            blob = bytearray()
            for i in range(n):
                blob.append(i % 10)
                blob.extend(rng.integers(0, 256, 3072, dtype="u1").tobytes())
            (tmp_path / name).write_bytes(bytes(blob))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"""
[model]
blocks = 1
width = 4
[train]
epochs = 1
batch_size = 8
milestones =
[data]
kind = cifar10_bin
classes = 10
paths = {tmp_path / 'train.bin'}
eval_paths = {tmp_path / 'test.bin'}
norm_mean = 0.5,0.5,0.5
norm_std = 0.25,0.25,0.25
""")
        out = tmp_path / "runs"
        assert run(["--out-root", out, "train", cfg]) == 0
        rd = only_run_dir(out)
        assert (rd / "checkpoint.ckpt").exists()
        rows = (rd / "metrics.csv").read_text().splitlines()
        assert len(rows) == 2


class TestEnvOutRoot:
    def test_env_override(self, workspace, monkeypatch):
        root, cfg = workspace
        out = root / "env_runs"
        monkeypatch.setenv("ATTNFOLD_RUNS", str(out))
        run(["train", cfg])
        assert out.exists() and only_run_dir(out)
