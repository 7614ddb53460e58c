"""Outside-in span tracer for attnfold.

The tracer changes no program file. `install` replaces each target function
with a recording wrapper at every attribute of every loaded `attnfold`
module that holds it, so a caller that bound the function by name (for
example `from .autodiff import forward` in `train`, `fusion` and
`analysis`) reaches the wrapper exactly like a caller that looks it up
through its module (`kernels.conv2d_forward`). Spans are kept in flat
in-memory lists and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class SelfCheckError(RuntimeError):
    """The traced call counts disagree with the model graphs that were run."""


class Tracer:
    """Spans (name, start, end, parent) plus per-span notes from probes.

    `targets` are `module.function` names relative to the `attnfold`
    package. `probes` maps a target to `fn(args, kwargs, result) -> dict`,
    evaluated after the span has closed, so its cost lands in the parent.
    """

    def __init__(self, targets, probes=None):
        self.targets = list(targets)
        self.probes = dict(probes or {})
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.notes: dict[int, dict] = {}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span, such as one round or one phase."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                self.notes[idx] = probe(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = sorted((name, mod) for name, mod in sys.modules.items()
                         if name == "attnfold" or name.startswith("attnfold."))
        for target in self.targets:
            modname, fname = target.rsplit(".", 1)
            original = getattr(sys.modules[f"attnfold.{modname}"], fname)
            wrapper = self._wrap(target, original)
            sites = [(mod, attr) for _, mod in modules
                     for attr, value in vars(mod).items() if value is original]
            for mod, attr in sites:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)
            self.bindings[target] = [f"{mod.__name__}.{attr}" for mod, attr in sites]

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls); self = span minus its children."""
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, tuple[float, int]] = {}
        for idx, name in enumerate(self.names):
            own = self.ends[idx] - self.starts[idx] - child_ns[idx]
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + own * 1e-9, calls + 1)
        return out

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def check_children(self, parent_name: str, child_name: str, expected) -> None:
        """Each `parent_name` span has `expected(note)` direct `child_name` children."""
        counts: dict[int, int] = {}
        for idx, parent in enumerate(self.parents):
            if parent >= 0 and self.names[idx] == child_name \
                    and self.names[parent] == parent_name:
                counts[parent] = counts.get(parent, 0) + 1
        for idx, name in enumerate(self.names):
            if name != parent_name:
                continue
            want = expected(self.notes.get(idx, {}))
            got = counts.get(idx, 0)
            if got != want:
                raise SelfCheckError(f"span {idx} {parent_name} has {got} {child_name} "
                                     f"children, the graph says {want}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("idx\tparent\tname\tstart_ns\tend_ns\n")
            for idx, name in enumerate(self.names):
                fh.write(f"{idx}\t{self.parents[idx]}\t{name}\t{self.starts[idx]}\t"
                         f"{self.ends[idx]}\n")
