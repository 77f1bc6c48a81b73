"""Small real passes: tracing never perturbs, and the simulated metrics
equal what the program's own entry points compute for the same inputs."""

import dataclasses

import pytest

from one_pass import run_pass
from workloads import Workload

CLOSED = Workload(
    "tiny-closed", policy="cbslru", docs=20_000, mem_mb=1, ssd_mb=4,
    distinct_queries=100, warmup_queries=60, measured_queries=240,
    static_analyze_queries=150)
OPEN = dataclasses.replace(
    CLOSED, name="tiny-open", arrival="poisson", rate_qps=200.0,
    concurrency=4, max_queue=16, logs=2)


@pytest.mark.parametrize("wl", [CLOSED, OPEN], ids=lambda w: w.name)
def test_tracing_never_perturbs(wl):
    plain = run_pass(wl, seed=5, log=wl.logs - 1, traced=False)
    traced = run_pass(wl, seed=5, log=wl.logs - 1, traced=True)
    assert traced["sim"] == plain["sim"]
    assert plain["serve"]["completed"] > 0
    layers = traced["layers"]
    assert layers["core.manager.process_query.calls"] == plain["serve"]["completed"]
    assert layers["serve_spans"] == plain["sim"]["sim.kernel.serves"]
    assert (sum(v for k, v in layers.items() if k.endswith(".self_ns"))
            + layers["residual_ns"] == layers["wall_ns"])
    if wl.open_loop:
        assert layers["obs.blame.calls"] > 0
        assert layers["serve_spans"] > 0
    else:
        assert layers["obs.telemetry.record_query.calls"] == 0
        assert layers["serve_spans"] == 0


def test_closed_metrics_equal_run_cached():
    from repro.workloads.retrieval import prepare_cached_manager, run_cached
    from repro.workloads.sweep import make_log_for, make_scaled_index

    wl = CLOSED
    seeds = wl.seeds(3)
    out = run_pass(wl, seed=3, log=0, traced=False)
    index = make_scaled_index(wl.docs)
    log = make_log_for(wl.log_queries, distinct_queries=wl.distinct_queries,
                       seed=seeds["log"])
    mgr = prepare_cached_manager(
        index, log, wl.cache_config(),
        static_analyze_queries=wl.static_analyze_queries,
        seed=seeds["processor"])
    ref = run_cached(index, log, wl.cache_config(),
                     warmup_queries=wl.warmup_queries, manager=mgr)
    sim = out["sim"]
    assert sim["sim_mean_response_ms"] == ref.mean_response_ms
    assert sim["sim_hit_ratio"] == ref.stats.combined_hit_ratio
    assert (sim["ssd_erases_per_kquery"]
            == ref.ssd_erases * 1000.0 / wl.measured_queries)


class HarnessSeeds(Workload):
    """Seeds as the bench harness wires them: the scenario seed for the
    log and arrivals, the processor's default seed."""

    def seeds(self, seed, log=0):
        return {"log": seed, "processor": 1234, "arrivals": seed}


def test_open_metrics_equal_bench_harness():
    from repro.bench.harness import run_scenario
    from repro.bench.scenarios import BenchScenario

    scenario = BenchScenario(
        "tiny-knee", "cbslru", docs=20_000, queries=400, mem_mb=1, ssd_mb=4,
        seed=9, arrival="poisson", rate_qps=200.0, concurrency=4,
        max_queue=16, warmup_queries=100)
    wl = HarnessSeeds(**dataclasses.asdict(dataclasses.replace(
        OPEN, distinct_queries=100, warmup_queries=100, measured_queries=300,
        static_analyze_queries=200, logs=1)))
    sim = run_pass(wl, seed=9, log=0, traced=False)["sim"]
    ref = run_scenario(scenario, host_profile=False)["metrics"]
    assert sim["sim_mean_response_ms"] == ref["mean_response_ms"]
    assert sim["sim_p99_response_ms"] == ref["p99_response_ms"]
    assert sim["sim_hit_ratio"] == ref["combined_hit_ratio"]
