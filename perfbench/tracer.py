"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of ``aek`` modules with timing
wrappers.  A function imported by name into another module is bound
there too, so every module attribute that holds the original object is
replaced.  Nothing under ``src/`` is edited.

Each wrapped call records a span: calls, total time (outermost call of
a name only, so recursion is not counted twice) and self time (total
minus the time of wrapped calls made inside it).  Spans stay in memory
and are written out by the launcher when the command ends.

Pool workers started with ``fork`` inherit the wrappers.  A worker
attaches the spans of each sample to the ``SamplePoint`` it returns,
and the parent merges them when ``trace_evolute`` returns, so times
of the sample layers are summed over all processes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: metric prefix -> (module, attribute path).  Optional targets are
#: private names a later version of the package may drop.
TARGETS = {
    "jets.mul": ("aek.jets", "_Jet.__mul__"),
    "jets.substitute": ("aek.jets", "substitute"),
    "jets.shifted": ("aek.jets", "Jet2.shifted"),
    "frames.normalize_at": ("aek.frames", "normalize_at"),
    "frames.rotate_to": ("aek.frames", "rotate_to"),
    "evolute.evolute_directions": ("aek.evolute", "evolute_directions"),
    "evolute.solve_evolute_point": ("aek.evolute", "solve_evolute_point"),
    "evolute.pick_derivative": ("aek.evolute", "pick_derivative"),
    "evolute.section_curvature_rate": ("aek.evolute",
                                       "section_curvature_rate"),
    "evolute.compute_sample": ("aek.evolute", "compute_sample"),
    "evolute.trace_evolute": ("aek.evolute", "trace_evolute"),
    "invariants.moutard_center": ("aek.invariants", "moutard_center"),
    "invariants.center_of_affine_curvature": (
        "aek.invariants", "center_of_affine_curvature"),
    "midplanes.expand_mid_plane": ("aek.midplanes", "expand_mid_plane"),
    "midplanes.check_cubic_term": ("aek.midplanes", "check_cubic_term"),
    "midplanes.check_quartic_term": ("aek.midplanes", "check_quartic_term"),
    "midplanes.midplane_limit_probe": ("aek.midplanes",
                                       "midplane_limit_probe"),
    "cli.load_spec": ("aek.cli", "load_spec"),
    "cli.build_surface": ("aek.cli", "build_surface"),
    "cli.write_evolute_csv": ("aek.cli", "write_evolute_csv"),
    "cli.write_evolute_obj": ("aek.cli", "write_evolute_obj"),
}
OPTIONAL_TARGETS = {
    # the sample map is where the pool waits; with it traced, the self
    # time of trace_evolute is the branch matching alone
    "evolute.map_samples": ("aek.evolute", "_map_samples"),
}

_WORKER_KEY = "_perfbench_spans"


class Tracer:
    """In-memory span statistics for one process."""

    def __init__(self):
        self.main_pid = os.getpid()
        self._stack = []   # [name, child_s] of the open spans
        self._active = {}  # name -> open calls, to spot recursion
        self.reset()
        self.worker_pids = set()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # a forked worker starts with no open spans and nothing recorded
        self._stack.clear()
        self._active.clear()
        self.reset()

    def reset(self):
        self.spans = {}   # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> number

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def merge(self, spans, counts):
        for name, (calls, total, self_s) in spans.items():
            st = self.spans.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, value in counts.items():
            self.count(name, value)

    def wrap(self, name, fn, on_result=None):
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span = [name, 0.0]
            stack.append(span)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                st = self.spans.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                if not active[name]:
                    st[1] += elapsed
                st[2] += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result, parent)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target."""
        hooks = {
            "evolute.evolute_directions": self._on_directions,
            "evolute.compute_sample": self._on_sample,
            "evolute.trace_evolute": self._on_trace,
        }
        for name, (module, path) in TARGETS.items():
            self._install_one(name, module, path, hooks.get(name), True)
        for name, (module, path) in OPTIONAL_TARGETS.items():
            self._install_one(name, module, path, None, False)

    def _install_one(self, name, module, path, hook, required):
        mod = importlib.import_module(module)
        owner = mod
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            if required:
                raise AttributeError(f"cannot trace {module}.{path}")
            return
        wrapper = self.wrap(name, original, hook)
        if parents:
            setattr(owner, attr, wrapper)
        else:
            for loaded in list(sys.modules.values()):
                mod_name = getattr(loaded, "__name__", "")
                if mod_name != "aek" and not mod_name.startswith("aek."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)

    # -- result hooks -----------------------------------------------------

    def _on_directions(self, result, parent):
        if parent == "evolute.compute_sample":
            self.count("evolute.roots_found", len(result.roots))

    def _on_sample(self, result, parent):
        self.count("evolute.samples", 1)
        if os.getpid() == self.main_pid or self._stack:
            return
        # a pool worker: ship this sample's spans back with the result
        setattr(result, _WORKER_KEY,
                (os.getpid(), self.spans, self.counts))
        self.reset()

    def _on_trace(self, result, parent):
        for sample in result.samples:
            shipped = vars(sample).pop(_WORKER_KEY, None)
            if shipped is not None:
                pid, spans, counts = shipped
                self.worker_pids.add(pid)
                self.merge(spans, counts)

    def report(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "worker_pids": sorted(self.worker_pids),
        }
