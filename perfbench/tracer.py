"""In-process tracing of ``weylglue.cli.main`` with harness-side wrappers.

The package is not changed: ``Tracer`` wraps every public function of the
library modules in every module namespace that bound it (``energy`` holds its
own reference to ``assemble_interpolant``, the package ``__init__`` holds
many), patches ``CurvatureQuadraticField.derivative``, ``laplacian`` and
``bilaplacian`` on the class, counts ``RegimeWarning``s through a proxy of ``gluing``'s ``warnings``
module and times ``cli``'s thread pool.  Leaving the ``with`` block restores
every patched attribute.

Each wrapped call is a span with a name, start, end, parent span and thread
id; a span's self time is its duration minus that of its child spans, which
all run on its own thread.

Run as a script it executes one workload's first command in this process and
prints a JSON record on stdout (``--trace 0`` runs it untraced, for the
overhead baseline):

    python3 perfbench/tracer.py --workload verify-all --seed 0 --trace 1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

MODULES = ("tensor_core", "curvature", "duality", "biharmonic", "fields",
           "gluing", "energy")
FIELD_METHODS = ("derivative", "laplacian", "bilaplacian")
#: Spans whose distinct inputs are counted, for the ``distinct_frac`` ratio.
KEYED = ("energy.leading_bracket", "energy.boundary_functional")
ROOT = "cli"


@dataclass
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    points: int = 0
    out_bytes: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _batch_size(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _key(obj):
    """A hashable digest of a call argument, arrays by value."""
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(_key(o) for o in obj)
    if isinstance(obj, dict):
        return tuple((k, _key(v)) for k, v in obj.items())
    if isinstance(obj, (int, float, str, bool, type(None))):
        return obj
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, _key(vars(obj)))
    return repr(obj)


class _WarningsProxy:
    """Stands in for ``gluing.warnings`` and counts RegimeWarnings."""

    def __init__(self, real, category, tracer):
        self._real, self._category, self._tracer = real, category, tracer

    def warn(self, message, category=None, stacklevel=1, source=None, **kw):
        if category is self._category:
            with self._tracer._lock:
                self._tracer.regime_warnings += 1
        # one more level, so the warning is attributed to the same caller
        return self._real.warn(message, category, stacklevel + 1, source, **kw)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Context manager that traces the library while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.regime_warnings = 0
        self.pools: list[tuple[float, float, int]] = []
        self.keys: dict[str, list] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.main_thread = threading.get_ident()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(name, threading.get_ident(), parent, 0.0)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += sp.dur
            with self._lock:
                self.spans.append(sp)

    def _wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        needs_args = name in KEYED or name == "curvature.weyl_density"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not needs_args:
                with self.span(name):
                    return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            if name in KEYED:
                key = hash(_key(arg))
                with self._lock:
                    self.keys[name].append(key)
            with self.span(name) as sp:
                level = arg.get("level")
                if name == "energy.boundary_functional" and isinstance(level, int):
                    # the size of sphere_rule(level): level x level x 2 level
                    sp.points = 2 * level ** 3
                elif name == "curvature.weyl_density":
                    sp.points = _batch_size(arg["x"])
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_derivative(self, fn):
        @functools.wraps(fn)
        def derivative(field_self, x, order, *args, **kwargs):
            with self.span(f"fields.derivative.o{order}") as sp:
                out = fn(field_self, x, order, *args, **kwargs)
                sp.points = _batch_size(x) * len(field_self.terms)
                sp.out_bytes = int(np.asarray(out).nbytes)
                return out
        return derivative

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        pkg = importlib.import_module("weylglue")
        cli = importlib.import_module("weylglue.cli")
        mods = {m: importlib.import_module(f"weylglue.{m}") for m in MODULES}
        namespaces = [pkg, *mods.values(), cli]
        for modname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, f"{modname}.{attr}")
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, wrapper)
        cqf = mods["fields"].CurvatureQuadraticField
        for meth in FIELD_METHODS:
            fn = vars(cqf)[meth]
            wrapper = (self._wrap_derivative(fn) if meth == "derivative"
                       else self._wrap(fn, f"fields.{meth}"))
            self._patch(cqf, meth, wrapper)
        gluing = mods["gluing"]
        self._patch(gluing, "warnings",
                    _WarningsProxy(gluing.warnings, gluing.RegimeWarning, self))
        self._patch(cli, "ThreadPoolExecutor", self._pool_class())
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _pool_class(self):
        tracer = self

        class TimedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._bench_start = time.perf_counter()

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                with tracer._lock:
                    tracer.pools.append((self._bench_start, time.perf_counter(),
                                         self._max_workers))
        return TimedPool

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by the names BENCHMARK.json lists."""
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        points, out_bytes = defaultdict(int), defaultdict(int)
        for sp in self.spans:
            calls[sp.name] += 1
            self_s[sp.name] += sp.self_s
            points[sp.name] += sp.points
            out_bytes[sp.name] += sp.out_bytes
            incl[sp.name] += sp.dur

        def distinct(name):
            keys = self.keys.get(name, [])
            return len(set(keys)) / len(keys) if keys else 0.0

        m = {}
        for name in KEYED:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = incl[name]
            m[f"{name}.distinct_frac"] = distinct(name)
        m["energy.boundary_functional.self_s"] = self_s["energy.boundary_functional"]
        m["energy.quad_points"] = points["energy.boundary_functional"]
        for name in ("energy.sphere_rule", "energy.weyl_energy_numeric",
                     "energy.second_variation", "curvature.linearize_curvature",
                     "curvature.fd_linearize", "biharmonic.assemble_interpolant",
                     "biharmonic.solve_profile", "duality.positivity_bound",
                     "tensor_core.algweyl_from_spectrum"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = incl[name]
        for name in ("energy.choose_parameters", "energy.energy_balance",
                     "fields.laplacian", "fields.bilaplacian"):
            m[f"{name}.s"] = incl[name]
        for order in range(5):
            name = f"fields.derivative.o{order}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = incl[name]
            m[f"{name}.points"] = points[name]
            m[f"{name}.out_mb"] = out_bytes[name] / 1e6
        name = "curvature.weyl_density"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = incl[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.points"] = points[name]
        for name in ("duality.interaction_star", "gluing.model_F", "gluing.model_H"):
            m[f"{name}.calls"] = calls[name]
        m["gluing.regime_warnings"] = self.regime_warnings
        m["cli.self_s"] = self_s[ROOT]
        busy = sum(sp.dur for sp in self.spans
                   if sp.parent is None and sp.thread != self.main_thread)
        capacity = sum((end - start) * n for start, end, n in self.pools)
        m["cli.pool_busy_frac"] = busy / capacity if capacity else 0.0
        return m


# ---------------------------------------------------------------------------
# running commands in this process

def run_inprocess(cmds, tracer: Tracer | None = None):
    """Run each command through ``weylglue.cli.main``; return (wall_s, runs).

    ``runs`` holds (exit code, stdout) per command.  With a tracer, each
    command is one root span.
    """
    from weylglue import cli

    runs = []
    start = time.perf_counter()
    for cmd in cmds:
        saved = {k: os.environ.get(k) for k in cmd.env}
        os.environ.update(cmd.env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tracer.span(ROOT) if tracer else contextlib.nullcontext():
                    try:
                        rc = cli.main(list(cmd.argv))
                    except SystemExit as exc:
                        rc = exc.code if isinstance(exc.code, int) else 1
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        runs.append((rc, out.getvalue()))
    return time.perf_counter() - start, runs


def inprocess_commands(workload: str, seed: int, pool) -> list:
    """The commands of one traced run: the workload's first command, or the
    whole smoke sequence."""
    cmds = workloads.commands(workload, seed, pool)
    return cmds[:2] if workload == workloads.SMOKE else cmds[:1]


def main() -> int:
    ap = argparse.ArgumentParser(description="run one workload in this process")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pool", default=str(workloads.MAIN_POOL))
    args = ap.parse_args()
    cmds = inprocess_commands(args.workload, args.seed, Path(args.pool))
    if args.trace:
        with Tracer() as tracer:
            wall, runs = run_inprocess(cmds, tracer)
        metrics = tracer.metrics()
    else:
        wall, runs = run_inprocess(cmds)
        metrics = {}
    json.dump({"wall_s": wall, "runs": runs, "metrics": metrics}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
