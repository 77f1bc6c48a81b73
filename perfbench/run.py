"""The repository benchmark: one command per workload, seed and mode.

    python3 perfbench/run.py --workload paper-cbslru --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every pass runs in a fresh
interpreter (``one_pass.py``), so set-up time and memory are measured
cold.  Passes repeat until ``--seconds`` have gone by:

* ``--trace 0`` runs untraced passes and reports the end-to-end metrics
  (set-up time and memory as medians over passes, simulated ones as the
  mean over the workload's query logs, serving host time beside them on
  a ``#`` line), then one traced pass that only checks that tracing
  leaves every simulated metric unchanged;
* ``--trace 1`` traces every query log once and reports the per-layer
  metrics, and the tracing overhead from traced-untraced pairs.

Every pass checks the program's invariants; passes on the same query
log must agree on every simulated metric.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a failed check
exits 1.  The full record, with the environment it ran in, goes to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from one_pass import BYTE_SEAMS, RESOURCES, SEAMS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: name -> (unit, better); printed with ``--trace 0``.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_mean_response_ms": ("ms", "lower"),
    "sim_p99_response_ms": ("ms", "lower"),
    "sim_hit_ratio": ("ratio", "higher"),
    "ssd_erases_per_kquery": ("count", "lower"),
    "ssd_write_amplification": ("ratio", "lower"),
}


def _per_layer() -> dict:
    m = {}
    for seam in SEAMS:
        m[f"{seam}.calls"] = ("count", "lower")
        m[f"{seam}.self_ns_per_call"] = ("ns", "lower")
        m[f"{seam}.self_share"] = ("fraction", "lower")
    for seam in BYTE_SEAMS:
        m[f"{seam}.bytes"] = ("bytes", "lower")
    m.update({
        "core.result_cache.hit_ratio": ("ratio", "higher"),
        "core.list_cache.hit_ratio": ("ratio", "higher"),
        "core.list_cache.ssd_admit_ratio": ("ratio", "lower"),
        "core.ssd_writes_avoided": ("count", "higher"),
        "engine.plan.postings_per_call": ("count", "lower"),
        "flash.ftl.gc_erases": ("count", "lower"),
        "hdd.sim_busy_share": ("fraction", "lower"),
        "sim.kernel.tasks": ("count", "lower"),
        "sim.kernel.serves": ("count", "lower"),
        "sim.kernel.events": ("count", "lower"),
        "sim.kernel.self_ns_per_serve": ("ns", "lower"),
        "sim.kernel.self_share": ("fraction", "lower"),
    })
    for res in RESOURCES:
        m[f"sim.{res}.utilization"] = ("fraction", "lower")
        m[f"sim.{res}.mean_wait_us"] = ("us", "lower")
    m.update({
        "setup.index_s": ("s", "lower"),
        "setup.querylog_s": ("s", "lower"),
        "setup.manager_s": ("s", "lower"),
        "setup.warmup_s": ("s", "lower"),
        "host.gc_collections": ("count", "lower"),
        "host.gc_pause_ms": ("ms", "lower"),
        "trace.overhead_fraction": ("fraction", "lower"),
        "trace.unattributed_share": ("fraction", "lower"),
    })
    return m


#: name -> (unit, better); printed with ``--trace 1``.
PER_LAYER = _per_layer()

#: Untraced passes a ``--trace 0`` run makes at least.
MIN_UNTRACED = 3
#: Traced-untraced pairs a ``--trace 1`` run makes at least.
MIN_PAIRS = 2
#: A run stops starting passes past this, so it ends within 180 s.
RUN_BUDGET_S = 160.0
OUT_DIR = ".perfbench"


class PassError(RuntimeError):
    """A pass process failed or printed no result."""


def run_pass(root: Path, workload: str, seed: int, log: int, traced: bool,
             spans_path: str | None, timeout_s: float) -> dict:
    """One pass in a fresh interpreter, with the checkout's ``src`` first
    on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    spec = {"workload": workload, "seed": seed, "log": log,
            "traced": traced, "spans_path": spans_path}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "one_pass.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=root, env=env, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass timed out after {timeout_s:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def plan_next(passes: list[dict], logs: int, trace: int,
              time_up: bool) -> tuple[int, bool] | None:
    """``(query log, traced)`` of a run's next pass, or None when done.

    ``--trace 0``: untraced passes cycle over the logs until time is up
    and every log ran, then one traced pass on log 0 checks that tracing
    changes nothing.  ``--trace 1``: a first cycle traces every log,
    each of the first ``MIN_PAIRS`` logs followed at once by an untraced
    pass on it; then traced-untraced pairs cycle over the logs until
    time is up.  A pair's passes run back to back, so the overhead
    they give sees the same machine.
    """
    n = len(passes)
    n_traced = sum(p["traced"] for p in passes)
    if not trace:
        if n_traced:
            return None
        if time_up and n >= max(logs, MIN_UNTRACED):
            return 0, True
        return n % logs, False
    paired = min(logs, MIN_PAIRS)
    first_cycle = logs + paired
    if n < 2 * paired:
        return n // 2, n % 2 == 0
    if n < first_cycle:
        return n - paired, True
    m = n - first_cycle
    if (m % 2 == 0 and time_up and n - n_traced >= MIN_PAIRS
            and n_traced >= MIN_PAIRS):
        return None
    return (m // 2) % logs, m % 2 == 0


def check_passes(passes: list[dict], logs: int) -> list[str]:
    """Per-pass checks, plus: passes on the same query log agree on every
    simulated metric (determinism, and tracing never perturbs)."""
    problems = []
    first: dict[int, dict] = {}
    for p in passes:
        problems += [f"pass {p['index']}: {c}" for c in p["checks"]]
        ref = first.setdefault(p["log"], p)
        if p["sim"] != ref["sim"]:
            diff = sorted(k for k in ref["sim"] if p["sim"].get(k) != ref["sim"][k])
            what = ("tracing perturbed" if p["traced"] != ref["traced"]
                    else "same seed, different")
            problems.append(f"pass {p['index']}: {what} simulated metrics "
                            f"(log {p['log']}): " + ", ".join(diff))
        if p["traced"]:
            layers = p["layers"]
            if layers["serve_spans"] != p["sim"]["sim.kernel.serves"]:
                problems.append(
                    f"pass {p['index']}: {layers['serve_spans']} serve "
                    f"spans but {p['sim']['sim.kernel.serves']} kernel serves")
            total = (sum(layers[f"{s}.self_ns"] for s in SEAMS)
                     + layers["residual_ns"])
            if total != layers["wall_ns"]:
                problems.append(f"pass {p['index']}: self times and residual "
                                f"sum to {total} ns, not {layers['wall_ns']}")
    missing = set(range(logs)) - set(first)
    if missing:
        problems.append(f"query logs never served: {sorted(missing)}")
    return problems


def mean_over_logs(passes: list[dict], field) -> dict:
    """Per metric, the mean over query logs of ``field(pass)`` taken from
    the first pass on each log."""
    per_log: dict[int, dict] = {}
    for p in passes:
        if p["log"] not in per_log:
            per_log[p["log"]] = field(p)
    rows = list(per_log.values())
    return {k: math.fsum(r[k] for r in rows) / len(rows) for k in rows[0]}


def _median(fn, among) -> float:
    return statistics.median(fn(p) for p in among)


def _served(passes: list[dict]) -> list[dict]:
    """The passes that completed queries.  A pass whose kernel run
    aborted served nothing: it has no host timings, and its simulated
    metrics are not the program's."""
    return [p for p in passes if p["serve"]["completed"]]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    served = _served(passes)
    untraced = [p for p in served if not p["traced"]]
    samples = [ns for p in untraced for ns in p["serve"]["query_ns"]]
    values = {
        "setup_s": _median(lambda p: p["setup"]["total_s"], passes),
        "peak_rss_mb": _median(lambda p: p["peak_rss_mb"], untraced),
    }
    sim = mean_over_logs(served, lambda p: p["sim"])
    for name in END_TO_END:
        if name not in values:
            values[name] = sim[name]
    # Serving host time is reported beside the metrics, not as one: on a
    # shared host it spreads between runs by more than any bound allowed.
    host = {
        "host_qps": _median(
            lambda p: p["serve"]["completed"] / (p["serve"]["wall_ns"] / 1e9),
            untraced),
        "host_query_p99_us": percentile(samples, 99.0) / 1000.0,
        "host_cpu_us_per_query": _median(
            lambda p: p["serve"]["cpu_s"] * 1e6 / p["serve"]["completed"],
            untraced),
    }
    return values, {"query_samples": len(samples),
                    "untraced_passes": len(untraced), "host": host}


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".bytes", ".postings_per_call"))


def per_layer(passes: list[dict], open_loop: bool) -> tuple[dict, dict]:
    served = _served(passes)
    untraced = [p for p in served if not p["traced"]]
    traced = [p for p in served if p["traced"]]
    values = mean_over_logs(served, lambda p: p["sim"])
    # Counts repeat exactly per log: mean over logs, like the simulated
    # metrics.  Times are sums over every traced pass, so the shares and
    # the residual's share add up to 1.
    values.update(mean_over_logs(traced, lambda p: {
        k: v for k, v in p["layers"].items() if _is_count(k)}))

    def total(key):
        return sum(p["layers"][key] for p in traced)

    wall = total("wall_ns")
    for seam in SEAMS:
        self_ns, calls = total(f"{seam}.self_ns"), total(f"{seam}.calls")
        values[f"{seam}.self_ns_per_call"] = self_ns / calls if calls else 0.0
        values[f"{seam}.self_share"] = self_ns / wall
    residual, serves = total("residual_ns"), total("serve_spans")
    # Under the kernel, what no layer did is the kernel's own work.
    kernel = residual if open_loop else 0
    values["sim.kernel.self_ns_per_serve"] = kernel / serves if serves else 0.0
    values["sim.kernel.self_share"] = kernel / wall
    values["trace.unattributed_share"] = (residual - kernel) / wall
    for part in ("index", "querylog", "manager", "warmup"):
        values[f"setup.{part}_s"] = _median(
            lambda p: p["setup"][f"{part}_s"], passes)
    values["host.gc_collections"] = _median(
        lambda p: p["gc"]["collections"], untraced)
    values["host.gc_pause_ms"] = _median(
        lambda p: p["gc"]["pause_ns"] / 1e6, untraced)
    # Overhead: each traced pass against the nearest untraced pass that
    # served the same query log.
    ratios = []
    for t in traced:
        mates = [u for u in untraced if u["log"] == t["log"]]
        if mates:
            u = min(mates, key=lambda u: abs(u["index"] - t["index"]))
            ratios.append(t["serve"]["wall_ns"] / u["serve"]["wall_ns"])
    values["trace.overhead_fraction"] = statistics.median(ratios) - 1.0
    return values, {"traced_passes": len(traced),
                    "untraced_passes": len(untraced),
                    "overhead_pairs": len(ratios),
                    "spans_per_pass": _median(lambda p: p["spans"], traced)}


def environment(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = "unknown", None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, check=True,
            timeout=10).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_model": cpu, "nproc": os.cpu_count(), "git_sha": sha,
            "git_dirty": dirty, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"error: no src/repro under {root}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload]
    start = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        step = plan_next(passes, wl.logs, args.trace, elapsed >= args.seconds)
        if step is None:
            break
        log, traced = step
        if passes and elapsed + 1.5 * longest > RUN_BUDGET_S:
            print("error: run budget exhausted before the minimum passes",
                  file=sys.stderr)
            return 1
        spans_path = (str(out_dir / f"spans-{wl.name}-pass{len(passes)}.npz")
                      if traced and args.trace else None)
        t0 = time.monotonic()
        try:
            p = run_pass(root, wl.name, args.seed, log, traced, spans_path,
                         timeout_s=max(10.0, RUN_BUDGET_S + 15.0 - elapsed))
        except PassError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        longest = max(longest, time.monotonic() - t0)
        p["index"] = len(passes)
        passes.append(p)

    problems = check_passes(passes, wl.logs)
    kinds = {p["traced"] for p in _served(passes)}
    try:
        # Untraced passes give the end-to-end figures; with --trace 1,
        # traced passes give the layers and pair up with untraced ones.
        if False not in kinds or (args.trace and True not in kinds):
            raise statistics.StatisticsError("no pass of a kind served")
        if args.trace:
            values, counts = per_layer(passes, wl.open_loop)
            units = PER_LAYER
        else:
            values, counts = end_to_end(passes)
            units = END_TO_END
    except statistics.StatisticsError as exc:
        for problem in problems:
            print(f"# CHECK FAILED: {problem}")
        print(f"error: too few passes completed queries ({exc})",
              file=sys.stderr)
        return 1
    attempted = sum(p["serve"]["attempted"] for p in passes)
    failed = sum(p["serve"]["failed"] for p in passes)
    correct = not problems
    metrics = {name: {"value": values[name], "unit": units[name][0]}
               for name in units}

    env = environment(root, args.seed)
    record = {"workload": wl.to_dict(),
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "counts": counts, "problems": problems, "metrics": metrics,
              "passes": [{k: v for k, v in p.items() if k != "serve"}
                         | {"serve": {k: v for k, v in p["serve"].items()
                                      if k != "query_ns"}}
                         for p in passes]}
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} {json.dumps(counts)}")
    print(f"# env {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{name:<44s} {m['value']:>16.6g} {m['unit']}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
