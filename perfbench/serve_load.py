"""The serve workloads: a `repro serve` process driven over its NDJSON socket.

The server runs with library defaults (process executor, one worker, no
kernel backend named by flag or environment). Requests go through
:class:`repro.serve.client.ServeClient` over one connection in a closed
loop: the next ``plan`` is sent only after the previous one is answered.
"""

from __future__ import annotations

import gc
import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.feasibility import check_feasibility
from repro.errors import ReproError, ServeError
from repro.io.network_json import network_to_dict
from repro.io.plan_json import plan_from_dict
from repro.network.builder import build_paper_network
from repro.network.model import SensorNetwork
from repro.serve.client import ServeClient

HERE = Path(__file__).resolve().parent

#: Program counters that must repeat exactly for the same request on a
#: freshly started server.
EXACT = ("two_opt.moves", "or_opt.moves", "msf.mst_rounds", "plan.schedulings",
         "plan.cache.tours.hit", "plan.cache.tours.miss", "plan.block.solved")


@dataclass
class PlanRequest:
    """One generated ``plan`` request plus what its check needs."""

    doc: dict
    horizon: float
    cycles: np.ndarray   # the cycles sent, for the feasibility check
    net: SensorNetwork   # the client's copy of the geometry, for the cost check


class PlanCold:
    """Each request plans a fresh seeded n=2000 geometry (every cache misses)."""

    name = "plan-cold"
    rate_hint = 1.5  # requests per second, for pre-generation

    def __init__(self, seed: int, n: int, horizon: float) -> None:
        self.seed, self.n, self.horizon = seed, n, horizon

    def request(self, i: int) -> PlanRequest:
        """Request ``i`` (``-1`` is the warm-up request)."""
        rng = np.random.default_rng((self.seed, 1, i + 1))
        net = build_paper_network(n=self.n, q=5, seed=rng)
        return PlanRequest(network_to_dict(net), self.horizon, net.cycles, net)


class PlanReplan:
    """A pool of n=200 deployments; each request nudges every cycle by a
    seeded +-1% and asks for a long horizon that differs per request.

    The horizon is a number of base cycles (the shortest cycle sent), so
    every seed asks for about the same number of schedulings. One
    connection: with two, the server's parent and worker overlap on this
    host's two CPUs and the run-to-run spread of the latency doubled
    (0.25 against 0.13 over the same six seeds).
    """

    name = "plan-replan"
    rate_hint = 8.0

    def __init__(self, seed: int, n: int, schedulings: int, pool: int = 4) -> None:
        self.seed, self.schedulings = seed, schedulings
        self.pool = [build_paper_network(n=n, q=5,
                                         seed=np.random.default_rng((seed, 2, k)))
                     for k in range(pool)]
        self.docs = [network_to_dict(net) for net in self.pool]

    def request(self, i: int) -> PlanRequest:
        """Request ``i`` (``-1`` is the warm-up request: nominal cycles)."""
        k = max(i, 0) % len(self.pool)
        base = self.docs[k]
        if i < 0:
            factors = np.ones(len(base["sensors"]))
            periods = self.schedulings + 0.5
        else:
            rng = np.random.default_rng((self.seed, 3, i))
            factors = rng.uniform(0.99, 1.01, len(base["sensors"]))
            periods = self.schedulings + 1.0 + 100.0 * float(rng.random())
        sensors = [dict(s, cycle=float(s["cycle"] * f))
                   for s, f in zip(base["sensors"], factors)]
        cycles = np.array([s["cycle"] for s in sensors])
        return PlanRequest(dict(base, sensors=sensors), periods * float(cycles.min()),
                           cycles, self.pool[k])


def check_response(req: PlanRequest, res: dict) -> str | None:
    """``None`` when the response is a correct plan for ``req``, else why not."""
    try:
        plan = plan_from_dict(res["plan"])
    except (ReproError, KeyError, TypeError) as exc:
        return f"plan does not decode: {exc}"
    report = check_feasibility(plan, req.cycles)
    if not report.feasible:
        return report.summary()
    if len(plan) != res.get("n_schedulings"):
        return f"n_schedulings {res.get('n_schedulings')} != {len(plan)} decoded"
    cost = plan.total_cost(req.net.dist)
    if not math.isclose(cost, float(res.get("service_cost", math.nan)), rel_tol=1e-9):
        return f"service_cost {res.get('service_cost')} != {cost} recomputed"
    return None


def program_env() -> dict[str, str]:
    """Environment of a program process: the sources under ``src`` and no
    kernel backend chosen by environment variable (the library default)."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _children(pid: int) -> list[int]:
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            out += [int(c) for c in task.read_text().split()]
        except OSError:
            pass
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, out_dir: Path, trace_dir: Path | None = None) -> None:
        self.out_dir = out_dir
        self.trace_dir = trace_dir
        self.port_file = out_dir / f"port-{next(_SERIAL)}"
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def launch(self) -> None:
        serve = ["serve", "--port", "0", "--port-file", str(self.port_file)]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(self.trace_dir), *serve]
        with open(self.out_dir / "serve.log", "ab") as log:
            self.proc = subprocess.Popen(cmd, env=program_env(), stdin=subprocess.DEVNULL,
                                         stdout=log, stderr=log)

    def wait_address(self, timeout: float = 60.0) -> tuple[str, int]:
        assert self.proc is not None
        give_up = time.perf_counter() + timeout
        while not self.port_file.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}; "
                                   f"see {self.out_dir / 'serve.log'}")
            if time.perf_counter() > give_up:
                raise RuntimeError("repro serve did not bind within "
                                   f"{timeout:.0f}s")
            time.sleep(0.002)
        host, port = self.port_file.read_text().strip().rsplit(":", 1)
        self.address = (host, int(port))
        return self.address

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the server and its workers."""
        assert self.proc is not None
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return sum(_vm_hwm_kb(p) for p in pids) / 1024.0

    def stop(self) -> None:
        """Graceful drain (SIGTERM); waits for the server and its workers."""
        if self.proc is None:
            return
        workers = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        give_up = time.perf_counter() + 10
        for pid in workers:
            while Path(f"/proc/{pid}").exists() and _state(pid) != "Z":
                if time.perf_counter() > give_up:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                    give_up = time.perf_counter() + 10
                time.sleep(0.01)
        self.port_file.unlink(missing_ok=True)
        self.proc = None


def _state(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return "Z"


_SERIAL = itertools.count()


@dataclass
class Boot:
    """One server launch up to the end of its warm-up request."""

    server: Server
    setup_s: float
    rss_mb: float  # peak memory of the server and its worker after the warm-up
    counts: dict[str, float]
    warm_error: str | None


def boot(out_dir: Path, warm: PlanRequest, trace_dir: Path | None = None) -> Boot:
    """Launch a server and time it to the end of one warm-up ``plan``."""
    server = Server(out_dir, trace_dir)
    t0 = time.perf_counter()
    server.launch()
    try:
        addr = server.wait_address()
        with ServeClient(*addr, timeout=120) as client:
            try:
                res = client.plan(warm.doc, warm.horizon, refine=True)
                err = None
            except ServeError as exc:
                res, err = None, f"{exc.code}: {exc}"
            setup = time.perf_counter() - t0
            rss = server.peak_rss_mb()
            counters = client.stats()["counters"]
    except BaseException:
        server.stop()
        raise
    if res is not None:
        err = check_response(warm, res)
        warm.net.__dict__.pop("dist", None)
    return Boot(server, setup, rss, {k: counters.get(k, 0) for k in EXACT}, err)


def server_counters(addr: tuple[str, int]) -> dict[str, float]:
    with ServeClient(*addr, timeout=60) as client:
        return dict(client.stats()["counters"])


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    start: float
    end: float = 0.0
    # request index -> (sent, answered, result or None, error code or None)
    results: dict[int, tuple] = field(default_factory=dict)

    def latencies(self) -> dict[int, float]:
        return {i: t1 - t0 for i, (t0, t1, res, err) in self.results.items() if err is None}

    def merge(self, other: "Phase") -> "Phase":
        self.results.update(other.results)
        self.end = max(self.end, other.end)
        return self


def closed_loop(addr: tuple[str, int], workload, requests: list[PlanRequest],
                seconds: float | None = None, indices: range | None = None,
                recorder=None, prober=None) -> Phase:
    """One connection sends ``plan`` requests back to back, either until
    ``seconds`` have passed or over the request ``indices``; request ``i``
    is ``requests[i]`` (generated on the spot when the list runs out). With
    ``recorder``, each request is a ``bench.request`` span. With ``prober``
    (a :class:`hostspeed.Prober`), the host-speed probe runs once before
    the phase and then between requests."""
    if prober is not None:
        prober.probe()
    phase = Phase(start=time.perf_counter())
    stop_at = phase.start + seconds if seconds is not None else math.inf
    # The kept responses hold millions of objects; collecting them would
    # put pauses of the benchmark's own heap into the measured latencies.
    gc.disable()
    try:
        with ServeClient(*addr, timeout=120) as client:
            for i in indices if indices is not None else itertools.count():
                req = requests[i] if i < len(requests) else workload.request(i)
                t0 = time.perf_counter()
                if t0 >= stop_at:
                    break
                span = recorder.begin("bench.request") if recorder else None
                try:
                    res, err = client.plan(req.doc, req.horizon, refine=True), None
                except ServeError as exc:
                    res, err = None, exc.code
                finally:
                    if span is not None:
                        recorder.end(span)
                phase.results[i] = (t0, time.perf_counter(), res, err)
                if prober is not None:
                    prober.maybe()
    finally:
        gc.enable()
    phase.end = max((r[1] for r in phase.results.values()), default=phase.start)
    return phase


#: What the forked check workers read: (phase, workload, requests).
_CHECKING: tuple | None = None


def _check_one(i: int) -> str | None:
    phase, workload, requests = _CHECKING
    t0, t1, res, err = phase.results[i]
    if err is not None:
        return f"request {i}: {err}"
    req = requests[i] if i < len(requests) else workload.request(i)
    why = check_response(req, res)
    req.net.__dict__.pop("dist", None)  # plan-cold: one 32 MB matrix at a time
    return None if why is None else f"request {i}: {why}"


def check_phase(phase: Phase, workload, requests: list[PlanRequest],
                jobs: int = 2) -> list[str]:
    """Check every response of ``phase``; returns one message per failure.

    ``check_feasibility`` walks every scheduling in Python (~0.1 s for a
    13k-scheduling plan), so the responses are split over ``jobs`` forked
    processes, which read them from this process's memory without copying
    them through a pipe. This process runs no other thread by then.
    """
    global _CHECKING
    _CHECKING = (phase, workload, requests)
    gc.freeze()  # children then leave the shared heap's pages alone
    try:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            found = pool.map(_check_one, sorted(phase.results), chunksize=1)
            pool.close()
            pool.join()
    finally:
        gc.unfreeze()
        _CHECKING = None
    return [why for why in found if why is not None]
