"""The score-quick program process: back-to-back ``score_suite("quick")`` passes.

Usage: ``python perfbench/score_proc.py SECONDS [TRACE_DIR]``

``run.py`` starts this as its own interpreter, so set-up time (``import
repro`` plus the first, slower pass) and peak memory are the program's.
It writes one JSON object per line to stdout:

* ``{"event": "ready", "counts": {...}, "card": {...}, "maxrss_kb": ...}``
  after the warm-up pass (``counts`` are the program's own counters,
  summed over cells);
* ``{"event": "phase", "t": ...}`` when the timed passes start;
* ``{"event": "pass", "traced": ..., "t0": ..., "t1": ..., "card": {...},
  "counts": {...}}`` per timed pass;
* ``{"event": "probes", "samples": [...], "intervals": [...]}`` after the
  untraced passes: the host-speed probe (``hostspeed.py``), run before the
  first pass and then between passes;
* ``{"event": "done"}``.

The passes run for SECONDS. Without TRACE_DIR they are untraced. With
TRACE_DIR untraced and traced passes (the timing wrappers installed)
alternate, so both see the same spells of host load; the
spans go to ``TRACE_DIR/spans-<pid>.json``.
"""

import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

from hostspeed import Prober
from tracer import Recorder

#: Span-name prefixes of the layers a quick-suite pass goes through.
SCORE_LAYERS = ("io.", "geometry.", "network.", "core.", "plan.", "rooted.",
                "tsp.", "kernels.", "sim.", "scenarios.", "experiments.",
                "adaptive.", "baselines.")


def emit(**fields) -> None:
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def count_cells(acc: dict):
    """Add each scored cell's program counters to ``acc``.

    Every cell of the suite runs under its own private instrumentation,
    which ``score_suite`` passes to ``simulate``; the counters are read
    there once the cell's simulation returns. Returns an undo function.
    """
    import repro.scenarios.score as score

    original = score.simulate

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        for key, value in kwargs["instrumentation"].counters.items():
            acc[key] = acc.get(key, 0) + value
        return out

    score.simulate = counted
    return lambda: setattr(score, "simulate", original)


def run_passes(seconds: float, recorder: Recorder | None) -> None:
    from repro.scenarios.score import score_suite

    prober = Prober() if recorder is None else None
    if prober is not None:
        prober.probe()
    start = time.perf_counter()
    emit(event="phase", t=start)
    for i in itertools.count():
        if time.perf_counter() >= start + seconds:
            break
        traced = recorder is not None and i % 2 == 1
        counts: dict = {}
        if traced:
            recorder.install(SCORE_LAYERS)
            undo = count_cells(counts)
        t0 = time.perf_counter()
        span = recorder.begin("bench.pass") if traced else None
        card = score_suite("quick", jobs=1)
        if span is not None:
            recorder.end(span)
        t1 = time.perf_counter()
        if traced:
            undo()
            recorder.uninstall()
        emit(event="pass", traced=traced, t0=t0, t1=t1, card=card.to_dict(), counts=counts)
        if prober is not None:
            prober.maybe()
    if prober is not None:
        emit(event="probes", samples=prober.samples, intervals=prober.intervals)


def main() -> int:
    seconds = float(sys.argv[1])
    trace_dir = sys.argv[2] if len(sys.argv) > 2 else None
    from repro.scenarios.score import score_suite

    counts: dict = {}
    undo = count_cells(counts)
    card = score_suite("quick", jobs=1)
    undo()
    emit(event="ready", counts=counts, card=card.to_dict(),
         maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if seconds > 0:
        if trace_dir is None:
            run_passes(seconds, None)
        else:
            recorder = Recorder()
            run_passes(seconds, recorder)
            recorder.dump(Path(trace_dir) / f"spans-{os.getpid()}.json", "score")
    emit(event="done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
