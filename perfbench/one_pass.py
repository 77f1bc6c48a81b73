"""One benchmark pass, run in a fresh interpreter by ``run.py``.

A pass builds everything cold (index, query log, manager, static and
closed-loop warmup), serves the workload's measured queries once, and
checks the outcome.  With tracing on, wrappers from :mod:`spans` are
installed on the live objects after set-up, so set-up is never traced.

Reads a JSON spec on stdin, ``{"workload", "seed", "log", "traced",
"spans_path"}``, and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
from array import array

from spans import SpanRecorder, breakdown
from workloads import WORKLOADS

#: Every seam the traced pass wraps, in report order.
SEAMS = (
    "core.manager.process_query",
    "core.result_cache.lookup",
    "core.result_cache.admit_l1",
    "core.list_cache.fetch",
    "engine.plan",
    "engine.execute",
    "flash.ssd.read",
    "flash.ssd.write",
    "flash.ssd.trim",
    "hdd.read",
    "storage.dram.read",
    "obs.telemetry.record_query",
    "obs.blame",
)
#: Seams whose summed ``nbytes`` argument is reported as ``<seam>.bytes``.
BYTE_SEAMS = ("flash.ssd.read", "flash.ssd.write", "flash.ssd.trim",
              "hdd.read")
#: The kernel's service resources, as the storage hierarchy names them.
RESOURCES = ("dram", "cpu", "ssd-cache", "index-hdd")
BLAME_HOOKS = ("on_spawn", "tag_current", "on_serve", "on_join",
               "on_task_end", "on_job_start", "on_job_done", "on_shed")
SERVE = "sim.kernel.serve"
WINDOW_US = 100_000.0


class GcWatch:
    """Counts collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self._t0 = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.collections += 1
            self.pause_ns += time.perf_counter_ns() - self._t0

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def install_tracing(rec: SpanRecorder, mgr, tel=None, kernel=None) -> None:
    """Wrap each layer seam of a built manager (and kernel, telemetry)."""
    def nbytes(args, result):
        return args[1]

    rec.wrap(mgr, "process_query", "core.manager.process_query", root=True)
    rec.wrap(mgr.result_cache, "lookup", "core.result_cache.lookup")
    rec.wrap(mgr.result_cache, "admit_l1", "core.result_cache.admit_l1")
    rec.wrap(mgr.list_cache, "fetch", "core.list_cache.fetch")
    rec.wrap(mgr.processor, "plan", "engine.plan",
             measure=lambda args, plan: plan.total_postings)
    rec.wrap(mgr.processor, "execute", "engine.execute")
    for op in ("read", "write", "trim"):
        rec.wrap(mgr.ssd, op, f"flash.ssd.{op}", measure=nbytes)
    rec.wrap(mgr.store, "read", "hdd.read", measure=nbytes)
    rec.wrap(mgr.mem, "read", "storage.dram.read")
    if kernel is not None:
        rec.wrap(kernel, "serve", SERVE)
    if tel is not None:
        rec.wrap(tel, "record_query", "obs.telemetry.record_query")
        observe_kernel = tel.observe_kernel

        def observe_then_wrap(*args, **kwargs):
            # The blame recorder is created here, inside run_open_loop.
            bridge = observe_kernel(*args, **kwargs)
            for hook in BLAME_HOOKS:
                rec.wrap(tel.blame, hook, "obs.blame")
            return bridge

        tel.observe_kernel = observe_then_wrap


def setup(wl, seeds: dict):
    """Cold set-up; returns ``(manager, measured queries, telemetry,
    flight recorder, timings)``."""
    from repro.workloads.retrieval import prepare_cached_manager
    from repro.workloads.sweep import make_log_for, make_scaled_index

    t0 = time.perf_counter()
    index = make_scaled_index(wl.docs)
    t1 = time.perf_counter()
    log = make_log_for(wl.log_queries, distinct_queries=wl.distinct_queries,
                       seed=seeds["log"])
    t2 = time.perf_counter()
    tel = flight = None
    if wl.open_loop:
        from repro.obs import FlightRecorder, Telemetry

        tel = Telemetry(trace=False, audit=False)
        tel.attach_timeline(window_us=WINDOW_US)
        flight = FlightRecorder(tel, out_dir=None, config=wl.to_dict()).arm()
    mgr = prepare_cached_manager(
        index, log, wl.cache_config(),
        static_analyze_queries=wl.static_analyze_queries,
        seed=seeds["processor"], telemetry=tel)
    t3 = time.perf_counter()
    queries = list(log)
    for query in queries[:wl.warmup_queries]:
        mgr.process_query(query)
    mgr.stats.reset()
    t4 = time.perf_counter()
    timings = {"index_s": t1 - t0, "querylog_s": t2 - t1,
               "manager_s": t3 - t2, "warmup_s": t4 - t3, "total_s": t4 - t0}
    return mgr, queries[wl.warmup_queries:], tel, flight, timings


def serve_closed(mgr, queries, samples: array) -> tuple[list, list]:
    """Serve one query at a time; per-query host wall into ``samples``."""
    clock_ns = time.perf_counter_ns
    responses = []
    errors = []
    for query in queries:
        t0 = clock_ns()
        try:
            outcome = mgr.process_query(query)
        except Exception as exc:  # counted as a failed operation
            errors.append(repr(exc))
            continue
        samples.append(clock_ns() - t0)
        responses.append(outcome.response_us)
    return responses, errors


def time_queries_on_thread(mgr, samples: array) -> None:
    """Record each query's thread CPU time (open loop: a query's wall
    time would include the other queries its task thread waits on)."""
    process_query = mgr.process_query
    clock_ns = time.thread_time_ns

    def timed(query):
        t0 = clock_ns()
        out = process_query(query)
        samples.append(clock_ns() - t0)
        return out

    mgr.process_query = timed


def percentile_us(values, q: float) -> float:
    from repro.obs.instruments import Histogram

    hist = Histogram(lo=1.0, growth=1.02)
    hist.record_many(values)
    return hist.percentiles((q,))[0]


def run_pass(wl, seed: int, log: int, traced: bool, spans_path=None) -> dict:
    """Set up ``wl`` cold with query log ``log`` of ``seed``, serve its
    measured queries once and check the outcome; returns the pass record
    ``run.py`` aggregates."""
    from repro.obs import HOT

    seeds = wl.seeds(seed, log)
    mgr, queries, tel, flight, setup_timings = setup(wl, seeds)

    ssd = mgr.ssd
    clock = mgr.clock
    erase0 = ssd.erase_count
    gc_erases0 = ssd.ftl.stats.block_erases
    hdd0 = clock.busy_us(mgr.store.name)
    now0 = clock.now_us
    pops0 = HOT.kernel_heap_pops
    samples = array("q")
    kernel = arrivals = None
    if wl.open_loop:
        from repro.sim.kernel import Kernel
        from repro.workloads.openloop import PoissonArrivals

        kernel = Kernel(clock)
        arrivals = PoissonArrivals(wl.rate_qps, seed=seeds["arrivals"])
        time_queries_on_thread(mgr, samples)
    rec = SpanRecorder() if traced else None
    if traced:
        install_tracing(rec, mgr, tel=tel, kernel=kernel)

    errors: list[str] = []
    result = None
    with GcWatch() as gcw:
        cpu0 = time.process_time()
        t0 = time.perf_counter_ns()
        if wl.open_loop:
            from repro.workloads.openloop import run_open_loop

            try:
                result = run_open_loop(
                    mgr, queries, arrivals, concurrency=wl.concurrency,
                    max_queue=wl.max_queue, label=wl.name, kernel=kernel)
            except Exception as exc:  # the whole open-loop pass failed
                errors.append(repr(exc))
        else:
            responses, errors = serve_closed(mgr, queries, samples)
        wall_ns = time.perf_counter_ns() - t0
        cpu_s = time.process_time() - cpu0
    if kernel is not None:
        clock.bind_kernel(None)

    checks: list[str] = [f"query raised: {e}" for e in errors[:5]]
    stats = mgr.stats
    sim: dict = {"sim_mean_response_ms": 0.0, "sim_p99_response_ms": 0.0,
                 "sim.kernel.tasks": 0, "sim.kernel.serves": 0}
    for name in RESOURCES:
        sim[f"sim.{name}.utilization"] = 0.0
        sim[f"sim.{name}.mean_wait_us"] = 0.0
    if wl.open_loop:
        tel.timeline.finish()
        sim["obs.incidents"] = flight.finish()
        # A raising task aborts the whole kernel run: every query failed.
        attempted, failed, completed = len(queries), len(queries), 0
        if result is not None:
            admission = tel.blame.admission
            try:
                admission.check_invariants()
            except AssertionError as exc:
                checks.append(f"admission: {exc}")
            s = admission.stats
            if s.completed + s.rejected != s.arrived:
                checks.append("admission: completed + rejected != arrived")
            attempted, failed, completed = s.arrived, s.rejected, s.completed
            sim["sim_mean_response_ms"] = result.mean_response_us / 1000.0
            sim["sim_p99_response_ms"] = result.p99_us / 1000.0
            per = tel.blame.capacity(completed=completed)["per_resource"]
            for name in RESOURCES:
                sim[f"sim.{name}.utilization"] = result.utilization.get(name, 0.0)
                if name in per:
                    sim[f"sim.{name}.mean_wait_us"] = per[name]["mean_wait_us"]
            sim["sim.kernel.tasks"] = s.admitted
            sim["sim.kernel.serves"] = sum(r.served for r in kernel.resources())
    else:
        attempted, failed = len(queries), len(errors)
        completed = attempted - failed
        sim["sim_mean_response_ms"] = stats.mean_response_us / 1000.0
        if responses:
            sim["sim_p99_response_ms"] = percentile_us(responses, 99.0) / 1000.0
    sim["sim.kernel.events"] = HOT.kernel_heap_pops - pops0
    sim["sim_hit_ratio"] = stats.combined_hit_ratio
    sim["ssd_erases_per_kquery"] = (
        (ssd.erase_count - erase0) * 1000.0 / completed if completed else 0.0)
    sim["ssd_write_amplification"] = ssd.ftl.stats.write_amplification
    sim["core.result_cache.hit_ratio"] = stats.result_hit_ratio
    sim["core.list_cache.hit_ratio"] = stats.list_hit_ratio
    admits = stats.ssd_list_writes + stats.discarded_by_tev
    sim["core.list_cache.ssd_admit_ratio"] = (
        stats.ssd_list_writes / admits if admits else 0.0)
    sim["core.ssd_writes_avoided"] = stats.ssd_writes_avoided
    sim["flash.ftl.gc_erases"] = ssd.ftl.stats.block_erases - gc_erases0
    elapsed_us = clock.now_us - now0
    sim["hdd.sim_busy_share"] = (
        (clock.busy_us(mgr.store.name) - hdd0) / elapsed_us
        if elapsed_us > 0 else 0.0)

    for label, check in (("cache manager", mgr.check_invariants),
                         ("ssd nand", ssd.ftl.nand.check_invariants)):
        try:
            check()
        except AssertionError as exc:
            checks.append(f"{label}: {exc}")
    for name, value in sim.items():
        if not math.isfinite(value) or value < 0:
            checks.append(f"{name} is {value}")
    if not 0.0 < sim["sim_hit_ratio"] <= 1.0:
        checks.append(f"sim_hit_ratio out of range: {sim['sim_hit_ratio']}")

    out = {
        "workload": wl.name, "seed": seed, "log": log, "traced": traced,
        "setup": setup_timings,
        "serve": {"wall_ns": wall_ns, "cpu_s": cpu_s,
                  "attempted": attempted, "failed": failed,
                  "completed": completed, "query_ns": list(samples)},
        "gc": {"collections": gcw.collections, "pause_ns": gcw.pause_ns},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim,
        "checks": checks,
    }
    if traced:
        out["layers"] = layer_metrics(rec, wall_ns)
        out["spans"] = rec.span_count()
        if spans_path:
            rec.save(spans_path)
    return out


def layer_metrics(rec: SpanRecorder, wall_ns: int) -> dict:
    """Per seam, calls and summed self ns; the residual ns that no seam
    covers; serve spans, bytes and postings.  Self ns plus residual ns
    add up to ``wall_ns`` exactly."""
    times, residual_ns = breakdown(rec, wall_ns, blocking=(SERVE,))
    amounts = rec.amounts()
    m: dict = {"wall_ns": wall_ns, "residual_ns": residual_ns,
               "serve_spans": times.get(SERVE, (0, 0))[0]}
    for seam in SEAMS:
        m[f"{seam}.calls"], m[f"{seam}.self_ns"] = times.get(seam, (0, 0))
    for seam in BYTE_SEAMS:
        m[f"{seam}.bytes"] = amounts.get(seam, 0)
    plans = m["engine.plan.calls"]
    m["engine.plan.postings_per_call"] = (
        amounts.get("engine.plan", 0) / plans if plans else 0.0)
    return m


def main() -> int:
    spec = json.loads(sys.stdin.read())
    out = run_pass(WORKLOADS[spec["workload"]], spec["seed"], spec["log"],
                   bool(spec["traced"]), spec.get("spans_path"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
