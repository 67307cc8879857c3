#!/usr/bin/env python3
"""The repository benchmark: Algorithm 3 served over a socket, and the scoreboard.

Run from the repository root::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``plan-cold``   -- closed loop, 1 connection to ``repro serve``; every
  request plans a fresh seeded n=2000 network (refine, horizon 1000).
* ``plan-replan`` -- closed loop, 1 connection; n=200 deployments from a
  small pool, every cycle nudged +-1%, horizon ~13000 base cycles (~13k
  schedulings).
* ``score-quick`` -- back-to-back ``score_suite("quick")`` passes in one
  process, each checked against ``golden/SCORECARD.quick.json``.

``--trace 0`` reports the end-to-end metrics, with times at the reference
host speed of ``hostspeed.py``; ``--trace 1`` alternates
untraced work with work under timing wrappers on every layer and reports
the per-layer metrics, writing the raw spans and a per-layer table under
``.perfbench/``. The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("plan-cold", "plan-replan", "score-quick")
DEFAULT_SEED = 1
GOLDEN = Path("golden") / "SCORECARD.quick.json"

#: Program counters of a quick-suite pass that must repeat exactly.
SCORE_EXACT = ("sim.events", "two_opt.moves", "msf.mst_rounds", "plan.schedulings",
               "plan.cache.tours.hit", "plan.cache.tours.miss")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``TOY`` is what the self-test runs."""

    cold_n: int = 2000
    cold_horizon: float = 1000.0
    replan_n: int = 200
    replan_schedulings: int = 13000
    setups: int = 3  # launches per untraced run; setup_s is their median


TOY = Sizes(cold_n=120, cold_horizon=200.0, replan_n=40, replan_schedulings=1500, setups=2)

#: Seconds per chunk when a traced run alternates untraced and traced work.
CHUNK_S = 3.0


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    raw: dict = field(default_factory=dict)  # samples behind the metrics


def latency_figures(seconds: list[float]) -> tuple[float, float, float]:
    """``(p50 ms, tail ms, tail percentile)``. The tail is the highest
    nearest-rank percentile with at least ten samples beyond it."""
    lat = sorted(1e3 * s for s in seconds)
    n = len(lat)
    if n > 10:
        return statistics.median(lat), lat[n - 11], 100.0 * (n - 10) / n
    return statistics.median(lat), lat[-1], 100.0


def e2e_metrics(out: Outcome, setups: list[float], lat: list[float],
                span: tuple[float, float], rss_mb: list[float], probe_s: list[float],
                probe_intervals: list[tuple[float, float]]) -> None:
    """``setups`` and ``rss_mb`` have one entry per launch; each metric is
    their median. ``span`` is the timed phase, probes included; throughput
    is over the phase less the time spent probing. Times are scaled to the
    reference host speed (see ``hostspeed.py``)."""
    p50, tail, pct = latency_figures(lat)
    busy = span[1] - span[0] - hostspeed.busy_s(probe_intervals, *span)
    raw = dict(setup_s=statistics.median(setups), latency_p50_ms=p50,
               latency_tail_ms=tail, throughput_ops=len(lat) / max(busy, 1e-9))
    scale = hostspeed.factor(probe_s)
    out.raw.update(setup_s=setups, latency_s=lat, rss_mb=rss_mb, probe_s=probe_s,
                   unscaled=raw)
    out.metrics.update({k: v / scale if k == "throughput_ops" else v * scale
                        for k, v in raw.items()})
    out.metrics["peak_rss_mb"] = statistics.median(rss_mb)
    out.notes += [
        f"times are scaled by {scale:.4f}: reference probe {1e3 * hostspeed.REFERENCE_S:.1f} ms "
        f"over the median of {len(probe_s)} probes, "
        f"{1e3 * statistics.median(probe_s):.2f} ms; unscaled: "
        + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()),
        f"setup_s and peak_rss_mb are medians of {len(setups)} launches: "
        + ", ".join(f"{s:.3f} s" for s in setups) + " unscaled; "
        + ", ".join(f"{m:.1f} MB" for m in rss_mb),
        f"latency_tail_ms is p{pct:.1f} of {len(lat)} samples, "
        + ("10 beyond it" if len(lat) > 10 else "the maximum (fewer than 11 samples)"),
    ]


def mismatch(label: str, runs: list[dict], keys: tuple[str, ...]) -> list[str]:
    """A benchmark error when work counts that must repeat exactly did not."""
    first = {k: runs[0].get(k, 0) for k in keys}
    for other in runs[1:]:
        now = {k: other.get(k, 0) for k in keys}
        if now != first:
            return [f"benchmark error: {label} differ: {first} vs {now}"]
    return []


def write_layer_report(out: Outcome, out_dir: Path, r: dict, root: str) -> None:
    """Raw spans (already in ``out_dir/spans``) -> the per-layer table, which
    is printed and written to ``out_dir/layers.txt`` above a per-span one."""
    from tracer import layer_table

    def table(title: str, depth: int | None) -> list[str]:
        return [f"{title:<26} {'self ms/op':>11} {'share':>7} {'calls':>8}"] + [
            f"{key:<26} {ms:>11.3f} {share:>7.1%} {n:>8}"
            for key, ms, share, n in layer_table(r, root, depth)]

    summary = [f"per-layer self time, {r['ops']} operations, "
               f"{1e3 * r['e2e_s'] / max(r['ops'], 1):.2f} ms end-to-end each",
               *table("layer", 1),
               f"trace.overhead_frac     {out.metrics['trace.overhead_frac']:.4f}",
               f"trace.unattributed_frac {out.metrics['trace.unattributed_frac']:.4f}"]
    (out_dir / "layers.txt").write_text("\n".join(summary + [""] + table("span", None)) + "\n")
    out.notes += summary


# ---------------------------------------------------------------- serve


def run_serve(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
              out_dir: Path) -> Outcome:
    import serve_load as sl
    from metrics import layer_values
    from tracer import Recorder, analyse, load_spans

    if name == "plan-cold":
        workload = sl.PlanCold(seed, sizes.cold_n, sizes.cold_horizon)
    else:
        workload = sl.PlanReplan(seed, sizes.replan_n, sizes.replan_schedulings)
    warm = workload.request(-1)
    requests = [workload.request(i) for i in range(int(seconds * workload.rate_hint) + 4)]
    out = Outcome()

    first = sl.boot(out_dir, warm)
    boots = [first]
    if not trace:
        probes = hostspeed.Prober()
        try:
            phase = sl.closed_loop(first.server.address, workload, requests, seconds,
                                   prober=probes)
        finally:
            first.server.stop()
        for _ in range(sizes.setups - 1):
            extra = sl.boot(out_dir, warm)
            extra.server.stop()
            boots.append(extra)
        phases = [phase]
    else:
        # Untraced and traced servers side by side, fed the same requests in
        # chunks, alternating which goes first, so both see the same spells
        # of host load.
        trace_dir = out_dir / "spans"
        trace_dir.mkdir()
        try:
            traced = sl.boot(out_dir, warm, trace_dir)
        except BaseException:
            first.server.stop()
            raise
        boots.append(traced)
        recorder = Recorder()
        plain = lit = None
        try:
            before = sl.server_counters(traced.server.address)
            chunk = max(1, round(workload.rate_hint * CHUNK_S))
            stop_at = time.perf_counter() + seconds
            for c in itertools.count():
                if time.perf_counter() >= stop_at:
                    break
                indices = range(c * chunk, (c + 1) * chunk)
                for use_traced in ((False, True) if c % 2 == 0 else (True, False)):
                    if not use_traced:
                        part = sl.closed_loop(first.server.address, workload, requests,
                                              indices=indices)
                        plain = part if plain is None else plain.merge(part)
                        continue
                    recorder.install(("client.",))
                    part = sl.closed_loop(traced.server.address, workload, requests,
                                          indices=indices, recorder=recorder)
                    recorder.uninstall()
                    lit = part if lit is None else lit.merge(part)
            after = sl.server_counters(traced.server.address)
        finally:
            first.server.stop()
            traced.server.stop()
        recorder.dump(trace_dir / f"spans-{os.getpid()}.json", "client")
        phases = [plain, lit]

    for p in phases:
        failures = sl.check_phase(p, workload, requests)
        out.attempted += len(p.results)
        out.failed += len(failures)
        out.problems += failures
    for b in boots:
        out.attempted += 1
        if b.warm_error is not None:
            out.failed += 1
            out.problems.append(f"warm-up: {b.warm_error}")
    out.problems += mismatch("warm-up work counts on fresh servers",
                             [b.counts for b in boots], sl.EXACT)

    if not trace:
        lat = list(phase.latencies().values())
        e2e_metrics(out, [b.setup_s for b in boots], lat, (phase.start, phase.end),
                    [b.rss_mb for b in boots], probes.samples, probes.intervals)
        return out

    docs = load_spans(trace_dir)
    roles = sorted(d["role"] for d in docs)
    if roles != ["client", "server", "worker"]:
        out.problems.append(f"benchmark error: span files from {roles}, "
                            "expected client, server and worker")
    la, lb = plain.latencies(), lit.latencies()
    common = la.keys() & lb.keys()
    overhead = (sum(lb[i] for i in common) / sum(la[i] for i in common) - 1.0) if common else 0.0
    r = analyse(docs, "bench.request", (lit.start, lit.end))
    counters = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    out.metrics = layer_values(r, counters, overhead)
    write_layer_report(out, out_dir, r, "bench.request")
    return out


# ---------------------------------------------------------------- score


def launch_score(seconds: float, out_dir: Path, trace_dir: Path | None = None) -> dict:
    """One score-quick program process; returns its events and set-up time."""
    from serve_load import program_env

    cmd = [sys.executable, str(HERE / "score_proc.py"), repr(seconds)]
    if trace_dir is not None:
        cmd.append(str(trace_dir))
    got: dict = {"passes": []}
    with open(out_dir / "score.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=program_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            for line in proc.stdout:
                ev = json.loads(line)
                if ev["event"] == "ready":
                    got["setup_s"] = time.perf_counter() - t0
                    got["ready"] = ev
                elif ev["event"] == "phase":
                    got["phase_t"] = ev["t"]
                elif ev["event"] == "pass":
                    got["passes"].append(ev)
                elif ev["event"] == "probes":
                    got["probes"] = ev
                elif ev["event"] == "done":
                    got["done"] = ev
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or "done" not in got:
                raise RuntimeError(f"score process exited with {proc.returncode}; "
                                   f"see {out_dir / 'score.log'}")
    return got


def run_score(seconds: float, trace: bool, sizes: Sizes, out_dir: Path) -> Outcome:
    """score-quick. The quick suite is fixed by its golden scorecard, so
    the seed does not change its inputs."""
    from metrics import layer_values
    from repro.scenarios.golden import GATED_KEYS, compare_scorecards
    from repro.scenarios.score import Scorecard
    from tracer import analyse, load_spans

    out = Outcome()
    trace_dir = out_dir / "spans" if trace else None
    if trace_dir is not None:
        trace_dir.mkdir()
    launches = [launch_score(seconds, out_dir, trace_dir)]
    if not trace:
        launches += [launch_score(0, out_dir) for _ in range(sizes.setups - 1)]
    main = launches[0]
    passes = main["passes"]

    golden = Scorecard.load(GOLDEN)
    cards = [run["ready"]["card"] for run in launches] + [p["card"] for p in passes]
    views = []
    for i, doc in enumerate(cards):
        card = Scorecard.from_dict(doc)
        regressions, _ = compare_scorecards(card, golden)
        out.attempted += 1
        if regressions:
            out.failed += 1
            out.problems.append(f"pass {i}: {len(regressions)} regression(s) vs {GOLDEN}: "
                                + "; ".join(r.describe() for r in regressions[:3]))
        views.append(card.gated_view(GATED_KEYS))
    if any(v != views[0] for v in views[1:]):
        out.problems.append("benchmark error: gated scorecards differ between passes")
    out.problems += mismatch("warm-up work counts of fresh processes",
                             [run["ready"]["counts"] for run in launches], SCORE_EXACT)

    plain = [p for p in passes if not p["traced"]]
    lat = [p["t1"] - p["t0"] for p in plain]
    if not trace:
        end = max((p["t1"] for p in plain), default=main["phase_t"])
        e2e_metrics(out, [run["setup_s"] for run in launches], lat, (main["phase_t"], end),
                    [run["ready"]["maxrss_kb"] / 1024.0 for run in launches],
                    main["probes"]["samples"], main["probes"]["intervals"])
        return out

    traced = [p for p in passes if p["traced"]]
    out.problems += mismatch("work counts of traced passes",
                             [main["ready"]["counts"]] + [p["counts"] for p in traced],
                             SCORE_EXACT)
    lb = [p["t1"] - p["t0"] for p in traced]
    overhead = statistics.mean(lb) / statistics.mean(lat) - 1.0 if lb and lat else 0.0
    counters: dict = {}
    for p in traced:
        for k, v in p["counts"].items():
            counters[k] = counters.get(k, 0) + v
    window = (min((p["t0"] for p in traced), default=0.0),
              max((p["t1"] for p in traced), default=0.0))
    r = analyse(load_spans(trace_dir), "bench.pass", window)
    out.metrics = layer_values(r, counters, overhead)
    write_layer_report(out, out_dir, r, "bench.pass")
    return out


# ---------------------------------------------------------------- command line


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    out_dir = Path(".perfbench") / f"{name}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if name == "score-quick":
        out = run_score(seconds, trace, sizes, out_dir)
    else:
        out = run_serve(name, seed, seconds, trace, sizes, out_dir)
    (out_dir / "result.json").write_text(json.dumps(
        {"metrics": out.metrics, "raw": out.raw, "problems": out.problems}))
    return out


def result_line(out: Outcome, trace: bool) -> dict:
    from metrics import END_TO_END, PER_LAYER

    units = {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    return {"correct": not out.problems, "attempted": out.attempted, "failed": out.failed,
            "metrics": {k: {"value": out.metrics[k], "unit": u} for k, u in units.items()}}


def report(name: str, seed: int, out: Outcome, trace: bool) -> None:
    from metrics import END_TO_END, PER_LAYER

    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for name_, unit, better, *_ in (PER_LAYER if trace else END_TO_END):
        print(f"  {name_:<30} {out.metrics[name_]:>14.4f} {unit:<6} ({better} is better)")
    if not trace:
        rate = out.failed / max(out.attempted, 1)
        print(f"  {'error_rate':<30} {rate:>14.4f} ratio  ({out.failed}/{out.attempted} "
              "failed or wrong; lower is better)")
    for note in out.notes:
        print(f"  {note}")
    for problem in out.problems[:20]:
        print(f"  PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs (the self-test's setting)")
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "__init__.py").is_file() or not GOLDEN.is_file():
        print("perfbench: run from the repository root (src/repro and "
              f"{GOLDEN} are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    sizes = TOY if args.toy else Sizes()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), sizes)
        report(name, args.seed, out, bool(args.trace))
        results[name] = result_line(out, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
