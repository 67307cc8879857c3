"""Every metric the benchmark reports: name, unit, better direction and, for
per-layer metrics, the end-to-end metric and workload it should move.

``BENCHMARK.json`` lists the same metrics; ``selftest.py`` checks that the
two agree and that every workload emits every one of them.
"""

from __future__ import annotations

#: ``(name, unit, better)`` of the end-to-end metrics (untraced runs). The
#: times are scaled to the reference host speed of ``hostspeed.py``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_ops", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better, moves)`` of the per-layer metrics (traced runs).
#: Times are per operation and self time, except ``adaptive.replan_ms``
#: (inclusive time of mtd-var's replans and patches);
#: counts are per operation. ``moves`` is the end-to-end metric and
#: workload a change to that layer should show up on.
PER_LAYER = (
    ("serve.request_kb", "KB", "lower", "latency_p50_ms on plan-cold"),
    ("serve.decode_ms", "ms", "lower", "latency_p50_ms on plan-cold"),
    ("serve.response_kb", "KB", "lower", "throughput_ops, latency_p50_ms on plan-replan"),
    ("serve.encode_ms", "ms", "lower", "throughput_ops, latency_p50_ms on plan-replan"),
    ("client.decode_ms", "ms", "lower", "throughput_ops, latency_p50_ms on plan-replan"),
    ("serve.overhead_ms", "ms", "lower", "throughput_ops, latency_p50_ms on plan-replan"),
    ("serve.failed", "count", "lower", "error rate (failed/attempted) on plan-cold, plan-replan"),
    ("serve.rejected", "count", "lower", "error rate (failed/attempted) on plan-cold, plan-replan"),
    ("io.network_from_dict_ms", "ms", "lower", "latency_p50_ms on plan-cold"),
    ("io.plan_to_dict_ms", "ms", "lower", "throughput_ops, latency_p50_ms on plan-replan"),
    ("geometry.distance_matrix_ms", "ms", "lower",
     "latency_p50_ms, peak_rss_mb on plan-cold; none on plan-replan, score-quick"),
    ("network.fingerprint_ms", "ms", "lower", "latency_p50_ms on plan-replan"),
    ("core.quantize_ms", "ms", "lower", "latency_p50_ms on plan-replan"),
    ("core.unroll_ms", "ms", "lower", "latency_p50_ms on plan-replan"),
    ("core.schedulings", "count", "lower", "peak_rss_mb on plan-replan"),
    ("plan.build_levels_ms", "ms", "lower", "latency_p50_ms on plan-replan"),
    ("plan.cache.tours.hit_rate", "ratio", "higher", "latency_p50_ms on plan-replan"),
    ("plan.block.solved", "count", "lower", "latency_p50_ms on plan-replan"),
    ("rooted.msf_ms", "ms", "lower", "latency_p50_ms on plan-cold"),
    ("msf.mst_rounds", "count", "lower", "latency_p50_ms on plan-cold"),
    ("tsp.tour_walk_ms", "ms", "lower", "latency_p50_ms on plan-cold"),
    ("kernels.prim_ms", "ms", "lower",
     "latency_p50_ms on plan-cold; none on plan-replan, score-quick"),
    ("kernels.two_opt_ms", "ms", "lower",
     "latency_p50_ms on plan-cold; none on plan-replan, score-quick"),
    ("kernels.or_opt_ms", "ms", "lower",
     "latency_p50_ms on plan-cold; none on plan-replan, score-quick"),
    ("two_opt.moves", "count", "lower", "latency_p50_ms on plan-cold"),
    ("or_opt.moves", "count", "lower", "latency_p50_ms on plan-cold"),
    ("sim.simulate_ms", "ms", "lower", "latency_p50_ms, throughput_ops on score-quick"),
    ("sim.events", "count", "lower", "latency_p50_ms on score-quick"),
    ("sim.events_per_s", "1/s", "higher", "throughput_ops on score-quick"),
    ("scenarios.build_instance_ms", "ms", "lower", "latency_p50_ms on score-quick"),
    ("adaptive.replan_ms", "ms", "lower", "latency_p50_ms on score-quick (inclusive time)"),
    ("adaptive.replans", "count", "lower", "latency_p50_ms on score-quick"),
    ("patch.msf.incremental_share", "ratio", "higher", "latency_p50_ms on score-quick"),
    ("baselines.dispatch_ms", "ms", "lower", "latency_p50_ms on score-quick"),
    ("trace.overhead_frac", "ratio", "lower", "none (cost of tracing itself)"),
    ("trace.unattributed_frac", "ratio", "lower", "none (share no layer span covers)"),
)


def layer_values(r: dict, counters: dict, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values from :func:`tracer.analyse` output ``r`` and
    the program's counters over the traced phase."""
    ops = max(r["ops"], 1)

    def ms(span: str) -> float:
        return 1e3 * r["self_s"].get(span, 0.0) / ops

    def per_op(counter: str) -> float:
        return counters.get(counter, 0) / ops

    def kb(span: str) -> float:
        return r["bytes"].get(span, 0) / 1024.0 / max(r["calls"].get(span, 0), 1)

    def share(num: str, other: str) -> float:
        a, b = counters.get(num, 0), counters.get(other, 0)
        return a / (a + b) if a + b else 0.0

    replan = r["under"].get("core.min_total_distance", {}).get("adaptive.observe", [0.0, 0])
    patch = r["under"].get("adaptive.build_patch", {}).get("adaptive.observe", [0.0, 0])
    sim_s = r["incl_s"].get("sim.simulate", 0.0)
    overhead = 0.0
    if "serve.execute_plan" in r["calls"]:
        overhead = 1e3 * (r["e2e_s"] - r["incl_s"]["serve.execute_plan"]) / ops
    return {
        "serve.request_kb": kb("serve.decode_request"),
        "serve.decode_ms": ms("serve.decode_request"),
        "serve.response_kb": kb("serve.encode"),
        "serve.encode_ms": ms("serve.encode"),
        "client.decode_ms": ms("client.decode_response"),
        "serve.overhead_ms": overhead,
        "serve.failed": per_op("serve.failed"),
        "serve.rejected": per_op("serve.rejected"),
        "io.network_from_dict_ms": ms("io.network_from_dict"),
        "io.plan_to_dict_ms": ms("io.plan_to_dict"),
        "geometry.distance_matrix_ms": ms("geometry.distance_matrix"),
        "network.fingerprint_ms": ms("network.fingerprint"),
        "core.quantize_ms": ms("core.quantize"),
        "core.unroll_ms": ms("core.min_total_distance"),
        "core.schedulings": per_op("plan.schedulings"),
        "plan.build_levels_ms": ms("plan.build_levels"),
        "plan.cache.tours.hit_rate": share("plan.cache.tours.hit", "plan.cache.tours.miss"),
        "plan.block.solved": per_op("plan.block.solved"),
        "rooted.msf_ms": ms("rooted.msf"),
        "msf.mst_rounds": per_op("msf.mst_rounds"),
        "tsp.tour_walk_ms": ms("tsp.tours_from_forest"),
        "kernels.prim_ms": ms("kernels.prim"),
        "kernels.two_opt_ms": ms("kernels.two_opt"),
        "kernels.or_opt_ms": ms("kernels.or_opt"),
        "two_opt.moves": per_op("two_opt.moves"),
        "or_opt.moves": per_op("or_opt.moves"),
        "sim.simulate_ms": ms("sim.simulate"),
        "sim.events": per_op("sim.events"),
        "sim.events_per_s": counters.get("sim.events", 0) / sim_s if sim_s else 0.0,
        "scenarios.build_instance_ms": ms("scenarios.build_instance"),
        "adaptive.replan_ms": 1e3 * (replan[0] + patch[0]) / ops,
        "adaptive.replans": replan[1] / ops,
        "patch.msf.incremental_share": share("patch.msf.incremental", "patch.msf.full"),
        "baselines.dispatch_ms": ms("baselines.dispatch"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": r["unattributed_frac"],
    }
