"""The benchmark's workloads: one cached-retrieval configuration each.

A workload fixes everything but the seed.  The query stream's distinct
pool and the pass length are explicit fields, so lengthening a pass never
changes how often queries repeat.  :meth:`Workload.seeds` derives the
query-log, query-processor and arrival seeds of each of a run's ``logs``
query logs from the command-line seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Workload", "WORKLOADS", "GATED"]

MB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str  # "lru" | "cbslru"
    docs: int
    mem_mb: int
    ssd_mb: int
    #: distinct queries in the log's pool (result-cache reuse)
    distinct_queries: int
    #: closed-loop queries served before measuring (part of set-up)
    warmup_queries: int
    #: queries served and measured in one pass
    measured_queries: int
    #: log prefix CBSLRU analyses to fill its static partition
    static_analyze_queries: int
    #: "closed", or "poisson" for open-loop arrivals on the kernel
    arrival: str = "closed"
    rate_qps: float = 0.0
    concurrency: int = 1
    max_queue: int = 0
    #: independent query logs per run; simulated metrics are their mean
    logs: int = 1

    @property
    def open_loop(self) -> bool:
        """Open-loop runs go through the kernel, with registry-only
        telemetry, a timeline, blame and a flight recorder attached."""
        return self.arrival != "closed"

    @property
    def log_queries(self) -> int:
        return self.warmup_queries + self.measured_queries

    def seeds(self, seed: int, log: int = 0) -> dict[str, int]:
        """Input seeds for query log ``log`` of a run at ``seed``."""
        if not 0 <= log < self.logs:
            raise ValueError(f"log {log} out of range for {self.logs} logs")
        base = seed * 1000 + log
        return {"log": base, "processor": base + 1, "arrivals": base + 2}

    def cache_config(self):
        from repro.core.config import CacheConfig, Policy

        return CacheConfig.paper_split(self.mem_mb * MB, self.ssd_mb * MB,
                                       policy=Policy(self.policy))

    def to_dict(self) -> dict:
        return asdict(self)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # The paper's headline configuration: its working set exceeds both
    # cache tiers, so Formula 1/2 admission and victim search do work.
    Workload(
        "paper-cbslru", policy="cbslru", docs=1_000_000, mem_mb=16,
        ssd_mb=64, distinct_queries=4_000, warmup_queries=2_000,
        measured_queries=12_000, static_analyze_queries=7_000),
    # The LRU baseline at the same sizes: the write-heavy use of the same
    # flash layer, GC-driven rewrites beside reads.
    Workload(
        "lru-churn", policy="lru", docs=1_000_000, mem_mb=16, ssd_mb=64,
        distinct_queries=4_000, warmup_queries=2_000,
        measured_queries=8_000, static_analyze_queries=0),
    # The bench harness's sat-at-knee operating point, HDD-bound; the
    # only workload on the concurrency kernel and the observability
    # stack.  At the knee one log's response time swings about 30% with
    # the seed, and serving a log longer narrows that only slowly, so a
    # run averages 28 logs.
    Workload(
        "open-knee", policy="cbslru", docs=200_000, mem_mb=4, ssd_mb=16,
        distinct_queries=300, warmup_queries=400,
        measured_queries=800, static_analyze_queries=600,
        arrival="poisson", rate_qps=55.0, concurrency=8, max_queue=32,
        logs=28),
)}

#: The workloads ``BENCHMARK.json`` lists.  ``open-knee`` stays runnable
#: but is left out: the program fails its cache-manager invariants under
#: the kernel, so every open-knee run exits 1 (README, "Known failure").
GATED = ("paper-cbslru", "lru-churn")
