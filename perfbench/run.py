"""attnfold benchmark runner.

    python3 perfbench/run.py --workload {train,deploy,perturb} --seed N \
        --seconds S --trace {0,1}

Run from the repository root: the program is imported from `src/` next to
this directory. Each workload runs in this one process with BLAS pinned to
one thread. The run sets up SETUP_REPS times, then runs whole rounds for
`--seconds` seconds. Report lines come first: the environment, every named
metric as a median plus the highest percentile with ten samples beyond it
and the sample count, and every correctness gate. The last stdout line is
the JSON result; its timings are ratios to the interleaved `Reference`
kernel, with the raw seconds in the report lines. With `--trace 1` the first half of the time runs
untraced and the second half under the outside-in tracer; the result then
holds the per-layer metrics of `layers.py`, per round, and the tracing
overhead. Spans go to `.perfbench_work/spans-<workload>-seed<N>.tsv`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

BLAS_THREADS = 1   # steadier than 2 on a shared, throttled 2-CPU host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pinning)

import layers  # noqa: E402
from tracer import SelfCheckError, Tracer  # noqa: E402
from workloads import WORKLOADS, Gates, Mods  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3


class Reference:
    """Fixed numpy work timed after every phase: the yardstick for host speed.

    On a shared 2-CPU host the raw medians of one phase moved by up to a third
    between runs minutes apart, all phases of a run together. Dividing a phase
    median by the median of this kernel, timed interleaved in the same
    process, cancels most of that drift.
    The kernel mixes the program's two kinds of work: a strided patch copy
    plus a GEMM (as in im2col convolution) and a Python loop of small
    mat-vecs (as in power iteration). It never changes with the program.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 16, 18, 18))
        self.k = rng.standard_normal((144, 16))
        self.w = rng.standard_normal((128, 128))
        self.v = rng.standard_normal(128)

    def run(self) -> float:
        cols = np.empty((32, 16, 3, 3, 16, 16))
        for i in range(3):
            for j in range(3):
                cols[:, :, i, j] = self.x[:, :, i:i + 16, j:j + 16]
        y = cols.transpose(0, 4, 5, 1, 2, 3).reshape(-1, 144) @ self.k
        v = self.v
        for _ in range(100):
            v = self.w.T @ (self.w @ v)
            v = v / np.linalg.norm(v)
        return float(y[0, 0] + v[0])


class Recorder:
    """Per-phase wall times, each followed by one timed `Reference` run.

    Opens a `bench.<phase>` span per phase when tracing.
    """

    def __init__(self, tracer: Tracer | None = None, reference: Reference | None = None):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer = tracer
        self.reference = reference

    @contextmanager
    def phase(self, name: str):
        with self.tracer.span(f"bench.{name}") if self.tracer else nullcontext():
            start = time.perf_counter()
            yield
            self.samples[name].append(time.perf_counter() - start)
        if self.reference is not None:
            start = time.perf_counter()
            self.reference.run()
            self.samples["reference"].append(time.perf_counter() - start)


def run_rounds(wl, rec: Recorder, until: float, walls: list[float]) -> None:
    """Whole rounds until the deadline, at least one; appends each round's wall."""
    while True:
        start = time.perf_counter()
        with rec.tracer.span("bench.round") if rec.tracer else nullcontext():
            try:
                wl.round(len(walls), rec)
            except Exception:   # a failing program call is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                wl.gates.check("round_completed", False)
        walls.append(time.perf_counter() - start)
        if time.perf_counter() >= until:
            return


def summary(xs: list[float], units: float | None = None) -> tuple[float, str, str]:
    """(median, unit, detail); with `units` the timing becomes a rate."""
    xs = sorted(xs)
    n = len(xs)
    med = statistics.median(xs)
    q = int(100 * (n - 10) / n) if n >= 20 else None   # ten samples beyond it
    tail = float(np.percentile(xs, q)) if q else None
    if units:
        tail_text = f"p{q}(slow side)={units / tail:.6g}" if q else "p_hi=n/a"
        return units / med, "1/s", f"median; {tail_text}; n={n}"
    tail_text = f"p{q}={tail:.6g}" if q else "p_hi=n/a"
    return med, "s", f"median; {tail_text}; n={n}"


def probes() -> dict:
    """Per-span notes: graph sizes for the self-check, bytes, matrix identity."""

    def convs(graph):
        return {"convs": sum(n.kind == "conv" for n in graph.nodes)}

    def file_size(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    def matrix(args, kwargs, result):
        op = args[0]
        arr = op.k if hasattr(op, "k") else op.w   # ConvOperator or MatrixOperator
        return {"key": hashlib.blake2b(arr.tobytes(), digest_size=16).digest()}

    return {
        "autodiff.forward": lambda a, k, r: convs(a[0]),
        "autodiff.backward": lambda a, k, r: convs(a[0].graph),
        "kernels.im2col": lambda a, k, r: {"bytes": r.nbytes},
        "checkpoint.save_checkpoint": file_size,
        "checkpoint.load_checkpoint": file_size,
        "tensor.spectral_norm": matrix,
        "analysis.perturb_trace": lambda a, k, r: {"depth": len(r.rows)},
    }


def self_check(t: Tracer, wl, rounds: int) -> None:
    """Traced call counts must match the graphs and configs that were run."""
    t.check_children("autodiff.forward", "kernels.conv2d_forward", lambda n: n["convs"])
    t.check_children("autodiff.backward", "kernels.conv2d_backward", lambda n: n["convs"])
    t.check_children("kernels.conv2d_forward", "kernels.im2col", lambda n: 1)
    t.check_children("kernels.conv2d_backward", "kernels.col2im", lambda n: 1)
    t.check_children("analysis.perturb_trace", "tensor.spectral_norm", lambda n: n["depth"])
    for name, per_round in wl.expected_calls().items():
        got = t.calls(name)
        if got != per_round * rounds:
            raise SelfCheckError(f"{name}: {got} calls in {rounds} rounds, the graphs "
                                 f"say {per_round} per round")


def per_layer(t: Tracer, walls: list[float], traced_walls: list[float]) -> dict:
    """Per-round layer metrics from the spans, plus the tracing overhead."""
    rounds = len(traced_walls)
    times = t.self_times()
    values = {}
    for name in layers.TARGETS:
        total, calls = times.get(name, (0.0, 0))
        values[f"{name}.self_s"] = total / rounds
        values[f"{name}.calls"] = calls / rounds
    noted = defaultdict(list)
    for idx, note in t.notes.items():
        noted[t.names[idx]].append((idx, note))
    for name in ("kernels.im2col", "checkpoint.save_checkpoint",
                 "checkpoint.load_checkpoint"):
        values[f"{name}.bytes"] = sum(n["bytes"] for _, n in noted[name]) / rounds
    distinct = set()    # (round span, matrix) pairs
    for idx, note in noted["tensor.spectral_norm"]:
        while idx >= 0 and t.names[idx] != "bench.round":
            idx = t.parents[idx]
        distinct.add((idx, note["key"]))
    sn_calls = len(noted["tensor.spectral_norm"])
    values["tensor.spectral_norm.useful_ratio"] = len(distinct) / sn_calls if sn_calls else 0.0
    base, traced = statistics.median(walls), statistics.median(traced_walls)
    values["tracer.overhead_s"] = traced - base
    values["tracer.overhead_share"] = (traced - base) / base
    values["tracer.spans"] = len(t.names) / rounds
    print(f"trace overhead {traced - base:.6g} s per round ({(traced - base) / base:.3%}): "
          f"traced median {traced:.6g} s over {rounds} rounds, untraced median "
          f"{base:.6g} s over {len(walls)} rounds")
    units = {name: unit for name, unit, _ in layers.EXTRA}
    for name in layers.TARGETS:
        units[f"{name}.self_s"], units[f"{name}.calls"] = "s", "count"
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        mods = Mods()
    except ImportError as exc:
        print(f"error: cannot import attnfold from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(f"env workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} nproc={os.cpu_count()} "
          f"affinity_cpus={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
          f"python={sys.version.split()[0]} numpy={np.__version__} "
          f"blas={blas.get('name', '?')}-{blas.get('version', '?')}")

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    wl = WORKLOADS[args.workload](mods, args.seed, work, Gates())
    tracer = None
    walls: list[float] = []
    traced_walls: list[float] = []
    try:
        setups = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            wl.setup(Recorder())
            setups.append(time.perf_counter() - start)
        reference = Reference()
        rec = Recorder(reference=reference)
        begin = time.perf_counter()
        run_rounds(wl, rec, begin + (args.seconds / 2 if args.trace else args.seconds),
                   walls)
        if args.trace:
            tracer = Tracer(layers.TARGETS, probes())
            tracer.install()
            try:
                run_rounds(wl, Recorder(tracer, reference), begin + args.seconds, traced_walls)
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = import_s + statistics.median(setups)
    ref_s = statistics.median(rec.samples["reference"])
    primary_s = statistics.median(rec.samples[wl.primary])
    round_s = sum(statistics.median(rec.samples[p]) * k for p, k in wl.per_round.items())
    for name, phase, units in wl.named():
        value, unit, detail = summary(rec.samples[phase], units)
        print(f"metric {name} = {value:.6g} {unit} ({detail})")
    for name, value, unit in wl.values():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric setup_s = {setup_s:.6g} s (import {import_s:.4g} s + median of "
          f"{SETUP_REPS} set-ups: {', '.join(f'{s:.4g}' for s in setups)})")
    print(f"metric peak_rss_mb = {peak_rss_mb:.6g} MB")
    print(f"metric primary_op_s = {primary_s:.6g} s (median {wl.primary})")
    print(f"metric round_s = {round_s:.6g} s (sum of phase medians; {len(walls)} rounds)")
    print(f"metric reference_s = {ref_s:.6g} s ({summary(rec.samples['reference'])[2]})")
    print(f"metric primary_op_ref = {primary_s / ref_s:.6g} ref (primary_op_s / reference_s)")
    print(f"metric round_ref = {round_s / ref_s:.6g} ref (round_s / reference_s)")
    gates = wl.gates
    for name, (attempted, failed) in sorted(gates.counts.items()):
        print(f"gate {name} {attempted - failed}/{attempted} passed")
    print(f"metric ops_failed_share = {gates.failed / max(gates.attempted, 1):.6g} "
          f"({gates.failed}/{gates.attempted})")

    if tracer is None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   "primary_op_ref": {"value": primary_s / ref_s, "unit": "ref"},
                   "round_ref": {"value": round_s / ref_s, "unit": "ref"}}
    else:
        try:
            self_check(tracer, wl, len(traced_walls))
        except SelfCheckError as exc:
            print(f"error: tracer self-check failed: {exc}", file=sys.stderr)
            return 1
        print("trace self-check passed")
        metrics = per_layer(tracer, walls, traced_walls)
        spans = work_root / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        print(f"trace {len(tracer.names)} spans over {len(traced_walls)} rounds -> "
              f"{spans.relative_to(ROOT)}")
        for target, sites in tracer.bindings.items():
            print(f"trace binding {target}: {' '.join(sites)}")
    print(json.dumps({"correct": gates.failed == 0, "attempted": gates.attempted,
                      "failed": gates.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
