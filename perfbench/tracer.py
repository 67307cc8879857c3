"""Span recording for the traced benchmark run.

Timing wrappers are installed from here on the program's public functions,
at every name their callers bind (``from x import f`` copies the binding,
so wrapping only the defining module would miss those calls). Each wrapper
records ``[id, name, start, end, parent_id, nbytes]`` into an in-memory
list; the list is written as JSON when the process ends. Times come from
``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and therefore
comparable between the client, the server and its worker process.

:func:`analyse` turns the raw spans of every process into per-layer self
times (span duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from functools import cached_property
from pathlib import Path

#: ``span name -> bindings``. The first binding is the defining one; every
#: other binding must hold the same object (checked at install time, so a
#: moved import fails loudly instead of silently dropping a layer).
#: ``CLASS.attr`` bindings wrap a method or a cached property.
SPANS: dict[str, tuple[str, ...]] = {
    # serve: parent process and worker entry point
    "serve.decode_request": ("repro.serve.protocol.decode_request",
                             "repro.serve.server.decode_request"),
    "serve.encode": ("repro.serve.server.encode",),
    "serve.plan_key": ("repro.serve.server.plan_key",),
    "serve.execute_plan": ("repro.serve.worker.execute_plan",
                           "repro.serve.server.execute_plan"),
    # client side of the socket (benchmark process)
    "client.encode": ("repro.serve.client.encode",),
    "client.decode_response": ("repro.serve.client.decode_response",),
    # io
    "io.network_from_dict": ("repro.io.network_json.network_from_dict",
                             "repro.serve.worker.network_from_dict",
                             "repro.serve.server.network_from_dict"),
    "io.plan_to_dict": ("repro.io.plan_json.plan_to_dict",
                        "repro.serve.worker.plan_to_dict"),
    # geometry / network
    "geometry.distance_matrix": ("repro.geometry.distance.distance_matrix",
                                 "repro.network.model.distance_matrix",
                                 "repro.network.routing.distance_matrix"),
    "network.fingerprint": ("repro.network.model.SensorNetwork.geometry_fingerprint",),
    # core
    "core.min_total_distance": ("repro.core.mintotal.min_total_distance",
                                "repro.adaptive.mintotal_var.min_total_distance",
                                "repro.experiments.runner.min_total_distance"),
    "core.quantize": ("repro.core.quantize.quantize_cycles",
                      "repro.core.mintotal.quantize_cycles"),
    "core.total_cost": ("repro.core.schedule.SchedulePlan.total_cost",),
    # plan
    "plan.build_levels": ("repro.plan.pipeline.build_levels",
                          "repro.core.mintotal.build_levels"),
    "plan.plan_tours": ("repro.plan.pipeline.plan_tours",
                        "repro.adaptive.patch.plan_tours"),
    # rooted
    "rooted.msf": ("repro.rooted.msf.q_rooted_msf",
                   "repro.plan.pipeline.q_rooted_msf",
                   "repro.rooted.qtsp.q_rooted_msf"),
    "rooted.extend_msf": ("repro.rooted.incremental.extend_q_rooted_msf",
                          "repro.adaptive.patch.extend_q_rooted_msf"),
    "rooted.q_rooted_tsp": ("repro.rooted.qtsp.q_rooted_tsp",
                            "repro.baselines.greedy.q_rooted_tsp"),
    "rooted.refine": ("repro.rooted.refine.refine_tours",
                      "repro.plan.pipeline.refine_tours",
                      "repro.rooted.qtsp.refine_tours",
                      "repro.adaptive.patch.refine_tours"),
    # tsp
    "tsp.tours_from_forest": ("repro.tsp.construct.tours_from_forest",
                              "repro.plan.pipeline.tours_from_forest",
                              "repro.rooted.qtsp.tours_from_forest",
                              "repro.adaptive.patch.tours_from_forest"),
    # kernels (the dispatch wrappers of repro.kernels)
    "kernels.prim": ("repro.kernels.prim_mst",
                     "repro.rooted.msf.prim_mst",
                     "repro.tsp.construct.prim_mst"),
    "kernels.two_opt": ("repro.kernels.two_opt", "repro.rooted.refine.two_opt"),
    "kernels.or_opt": ("repro.kernels.or_opt", "repro.rooted.refine.or_opt"),
    # sim / scenarios / adaptive / baselines (score-quick)
    "sim.simulate": ("repro.sim.engine.simulate",
                     "repro.scenarios.score.simulate",
                     "repro.scenarios.generators.simulate",
                     "repro.experiments.runner.simulate"),
    "scenarios.build_instance": ("repro.scenarios.generators.build_instance",
                                 "repro.scenarios.score.build_instance"),
    "experiments.make_policy": ("repro.experiments.runner.make_policy",
                                "repro.scenarios.score.make_policy"),
    "adaptive.observe": ("repro.adaptive.mintotal_var.MinTotalDistanceVarPolicy.observe",),
    "adaptive.build_patch": ("repro.adaptive.patch.build_patch",
                             "repro.adaptive.mintotal_var.build_patch"),
    "baselines.dispatch": ("repro.baselines.greedy.GreedyOnDemandPolicy.dispatch",),
}

#: Spans that also record a payload size: ``"arg"`` is the length of the
#: first argument (a received line), ``"result"`` the length of the return
#: value (an encoded frame).
SIZED = {"serve.decode_request": "arg", "serve.encode": "result",
         "client.encode": "result", "client.decode_response": "arg"}


def _resolve(binding: str) -> tuple[object, str]:
    """``"pkg.mod.Class.attr"`` -> (owner object, attribute name)."""
    parts = binding.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {binding!r}")


class Recorder:
    """In-memory span store of one process, plus the wrapper factory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple] = []

    def reset(self) -> None:
        """Forget inherited spans (called in a freshly forked worker)."""
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        rec = [next(self._ids), name, time.perf_counter(), 0.0,
               stack[-1][0] if stack else 0, 0]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, sized: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if sized == "result":
                rec[5] = len(out)
            elif sized == "arg":
                rec[5] = len(args[0])
            return out
        return traced

    def install(self, prefixes: tuple[str, ...]) -> None:
        """Wrap every binding of the :data:`SPANS` entries whose name starts
        with one of ``prefixes``; :meth:`uninstall` puts the originals back."""
        for name, bindings in SPANS.items():
            if not name.startswith(prefixes):
                continue
            owner, attr = _resolve(bindings[0])
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, cached_property):
                wrapped = cached_property(self.wrap(name, original.func))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self.wrap(name, original, SIZED.get(name))
            sites = [(owner, attr)]
            for binding in bindings[1:]:
                site, site_attr = _resolve(binding)
                if getattr(site, site_attr) is not original:
                    raise RuntimeError(f"{binding} is not {bindings[0]}; "
                                       "update perfbench/tracer.py SPANS")
                sites.append((site, site_attr))
            for site, site_attr in sites:
                setattr(site, site_attr, wrapped)
                self._installed.append((site, site_attr, original))

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._installed):
            setattr(site, attr, original)
        self._installed = []

    def dump(self, path: str | Path, role: str) -> None:
        doc = {"pid": os.getpid(), "role": role, "spans": self.spans}
        Path(path).write_text(json.dumps(doc))


def write_at_exit(rec: Recorder, trace_dir: str, role: str) -> None:
    """Write this process's spans at exit, and give every forked child
    (the serve worker) a fresh span list that it writes when it exits.

    Worker processes end through ``multiprocessing``'s own exit path, which
    skips ``atexit``, so the child registers a ``multiprocessing.util``
    finalizer instead.
    """
    import atexit
    from multiprocessing import util

    atexit.register(lambda: rec.dump(Path(trace_dir) / f"spans-{os.getpid()}.json", role))

    def after_fork(r: Recorder) -> None:
        r.reset()
        util.Finalize(None, lambda: r.dump(
            Path(trace_dir) / f"spans-{os.getpid()}.json", "worker"), exitpriority=10)

    util.register_after_fork(rec, after_fork)


# --------------------------------------------------------------------------
# analysis


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _measure(merged: list[tuple[float, float]]) -> float:
    return sum(b - a for a, b in merged)


def _intersect(xs: list[tuple[float, float]], ys: list[tuple[float, float]]) -> float:
    """Length of the intersection of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            total += b - a
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def load_spans(trace_dir: str | Path) -> list[dict]:
    """Every ``spans-<pid>.json`` document in ``trace_dir``."""
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("spans-*.json"))]


def analyse(docs: list[dict], root: str, window: tuple[float, float]) -> dict:
    """Per-layer figures from raw spans of all processes.

    ``root`` names the span of one end-to-end operation; only spans that
    start inside ``window`` count. Returns ``ops`` (root spans), ``e2e_s``
    (summed root durations), ``self_s``/``incl_s``/``calls``/``bytes`` by
    span name, ``under`` (name -> {ancestor name: incl seconds}) and
    ``unattributed_frac``: the share of the wall time during which an
    operation was in flight but no layer span was open in any process.
    """
    t0, t1 = window
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    under: dict[str, dict[str, float]] = {}
    roots: list[tuple[float, float]] = []
    layer: list[tuple[float, float]] = []
    for doc in docs:
        spans = [s for s in doc["spans"] if t0 <= s[2] <= t1 and s[3] > 0]
        by_id = {s[0]: s for s in spans}
        child_s: dict[int, float] = {}
        for sid, name, start, end, parent, size in spans:
            if parent in by_id:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        for sid, name, start, end, parent, size in spans:
            dur = end - start
            if name == root:
                roots.append((start, end))
            else:
                layer.append((start, end))
            self_s[name] = self_s.get(name, 0.0) + dur - child_s.get(sid, 0.0)
            incl_s[name] = incl_s.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            nbytes[name] = nbytes.get(name, 0) + size
            seen = set()
            p = by_id.get(parent)
            while p is not None:
                if p[1] not in seen:
                    seen.add(p[1])
                    acc = under.setdefault(name, {}).setdefault(p[1], [0.0, 0])
                    acc[0] += dur
                    acc[1] += 1
                p = by_id.get(p[4])
    busy = _union(roots)
    wall = _measure(busy)
    covered = _intersect(busy, _union(layer))
    return {
        "ops": calls.get(root, 0),
        "e2e_s": incl_s.get(root, 0.0),
        "wall_s": wall,
        "self_s": self_s,
        "incl_s": incl_s,
        "calls": calls,
        "bytes": nbytes,
        "under": under,
        "unattributed_frac": (1.0 - covered / wall) if wall > 0 else 0.0,
    }


def layer_table(result: dict, root: str,
                depth: int | None = 1) -> list[tuple[str, float, float, int]]:
    """``(key, self ms per op, share of busy wall time, calls)`` rows, largest
    first. The key is a span name cut to its first ``depth`` dot-separated
    parts: ``1`` gives layers, ``None`` whole span names."""
    ops = max(result["ops"], 1)
    wall = result["wall_s"] or 1.0
    grouped: dict[str, list[float]] = {}
    for name, s in result["self_s"].items():
        if name == root:
            continue
        row = grouped.setdefault(".".join(name.split(".")[:depth]), [0.0, 0])
        row[0] += s
        row[1] += result["calls"][name]
    rows = [(key, 1e3 * s / ops, s / wall, int(n)) for key, (s, n) in grouped.items()]
    return sorted(rows, key=lambda r: -r[1])
