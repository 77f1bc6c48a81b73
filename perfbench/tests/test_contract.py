"""Metric names, BENCHMARK.json agreement, and the pass plan."""

import json
import re

import pytest

from conftest import ROOT
from run import (END_TO_END, PER_LAYER, check_passes, mean_over_logs,
                 percentile, plan_next)
from workloads import GATED, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_valid():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names + list(WORKLOADS):
        assert NAME.match(name), name
    for unit, better in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(GATED)
    assert set(GATED) <= set(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert e2e == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    layers = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert layers == PER_LAYER
    assert len(doc["per_layer"]) <= 128


def _passes(plan):
    return [{"log": log, "traced": traced} for log, traced in plan]


@pytest.mark.parametrize("logs", [1, 3])
def test_untraced_plan_covers_every_log_then_checks_tracing(logs):
    passes = []
    while (step := plan_next(passes, logs, 0, time_up=len(passes) >= 4)):
        passes += _passes([step])
    untraced = [p for p in passes if not p["traced"]]
    assert {p["log"] for p in untraced} == set(range(logs))
    assert len(untraced) >= max(logs, 3)
    assert passes[-1] == {"log": 0, "traced": True}


@pytest.mark.parametrize("logs", [1, 3])
def test_traced_plan_traces_every_log_in_back_to_back_pairs(logs):
    passes = []
    while (step := plan_next(passes, logs, 1, time_up=len(passes) >= 6)):
        passes += _passes([step])
    assert {p["log"] for p in passes if p["traced"]} == set(range(logs))
    untraced = [i for i, p in enumerate(passes) if not p["traced"]]
    assert len(untraced) >= 2
    for i in untraced:
        assert passes[i - 1] == {"log": passes[i]["log"], "traced": True}


def _pass(index, log, traced, sim):
    p = {"index": index, "log": log, "traced": traced, "sim": sim,
         "checks": []}
    if traced:
        from one_pass import SEAMS

        layers = {f"{s}.self_ns": 10 for s in SEAMS}
        layers.update({f"{s}.calls": 2 for s in SEAMS})
        layers.update({"wall_ns": 10 * len(SEAMS) + 5, "residual_ns": 5,
                       "serve_spans": sim["sim.kernel.serves"]})
        p["layers"] = layers
    return p


def test_check_passes_flags_perturbation_and_nondeterminism():
    a = {"x": 1.0, "sim.kernel.serves": 0}
    b = {"x": 2.0, "sim.kernel.serves": 0}
    assert check_passes([_pass(0, 0, False, a), _pass(1, 0, True, a)], 1) == []
    (msg,) = check_passes([_pass(0, 0, False, a), _pass(1, 0, True, b)], 1)
    assert "tracing perturbed" in msg and "x" in msg
    (msg,) = check_passes([_pass(0, 0, False, a), _pass(1, 0, False, b)], 1)
    assert "same seed, different" in msg
    (msg,) = check_passes([_pass(0, 0, False, a)], 2)
    assert "never served: [1]" in msg
    bad = _pass(1, 0, True, a)
    bad["layers"]["residual_ns"] += 1
    (msg,) = check_passes([_pass(0, 0, False, a), bad], 1)
    assert "self times and residual" in msg


def test_mean_over_logs_uses_one_pass_per_log():
    passes = [{"log": 0, "v": {"m": 1.0}}, {"log": 1, "v": {"m": 3.0}},
              {"log": 0, "v": {"m": 1.0}}]
    assert mean_over_logs(passes, lambda p: p["v"]) == {"m": 2.0}


def test_percentile_interpolates():
    assert percentile([4, 1, 3, 2], 50.0) == 2.5
    assert percentile([5], 99.0) == 5
    assert percentile(list(range(101)), 99.0) == 99.0


@pytest.mark.parametrize("open_loop", [False, True])
def test_per_layer_shares_and_residual_sum_to_one(open_loop):
    from run import per_layer

    sim = {"sim.kernel.serves": 4, "sim_hit_ratio": 0.5}
    passes = []
    for index, (traced, wall) in enumerate([(True, 1000), (False, 900),
                                            (True, 1300)]):
        p = _pass(index, 0, traced, sim)
        p.update(setup={f"{k}_s": 1.0 for k in
                        ("index", "querylog", "manager", "warmup")},
                 gc={"collections": 3, "pause_ns": 10**6}, spans=7,
                 serve={"wall_ns": wall, "completed": 10})
        if traced:
            p["layers"].update({"wall_ns": wall,
                                "residual_ns": wall - sum(
                                    v for k, v in p["layers"].items()
                                    if k.endswith(".self_ns"))})
        passes.append(p)
    values, counts = per_layer(passes, open_loop)
    shares = sum(v for k, v in values.items() if k.endswith(".self_share"))
    assert shares + values["trace.unattributed_share"] == pytest.approx(1.0)
    assert (values["sim.kernel.self_share"] > 0) == open_loop
    assert values["trace.overhead_fraction"] == pytest.approx(
        (1000 / 900 + 1300 / 900) / 2 - 1)
    assert counts["overhead_pairs"] == 2


def test_end_to_end_leaves_out_passes_that_served_nothing():
    from run import end_to_end

    def pas(index, log, completed, value):
        sim = {k: value for k in END_TO_END if k.startswith(("sim_", "ssd_"))}
        return {"index": index, "log": log, "traced": False, "checks": [],
                "sim": sim, "setup": {"total_s": 1.5}, "peak_rss_mb": 50.0,
                "serve": {"completed": completed, "wall_ns": 10**6,
                          "cpu_s": 1e-3, "query_ns": [100_000] * completed}}

    # Log 1's kernel run aborted: its zeros are not the program's figures.
    values, counts = end_to_end([pas(0, 0, 10, 4.0), pas(1, 1, 0, 0.0)])
    assert values["sim_mean_response_ms"] == 4.0
    host = counts.pop("host")
    assert host["host_qps"] == 10_000
    assert host["host_cpu_us_per_query"] == pytest.approx(100.0)
    assert host["host_query_p99_us"] == 100.0
    assert counts == {"query_samples": 10, "untraced_passes": 1}
