"""The result-miss path builds a ranked result page only when asked to.

A cached result is modelled by its key and size alone, so in surrogate
mode the managers never call ``QueryProcessor.execute`` and host memory
stays flat however many distinct queries miss. ``materialize_results``
still scores real postings for every miss.
"""

import random
import tracemalloc

import pytest

from repro._hot import HOT
from repro.core.config import CacheConfig, Policy
from repro.core.intersections import ThreeLevelCacheManager
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query

KB = 1024
VOCAB = 80
#: Host allocation the second half of a log may add, whatever its length:
#: bounded cache state only (the three-level manager's pair counts are
#: bounded by the vocabulary). A 50-result page per distinct miss would
#: add ~5 KB per query.
SECOND_HALF_ALLOC_BOUND = 1024 * KB


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=VOCAB, seed=13))


class CountingProcessor(QueryProcessor):
    """A processor that counts ``execute`` calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executed = 0

    def execute(self, plan, materialize=False):
        self.executed += 1
        return super().execute(plan, materialize)


def make(cls, index, materialize=False):
    cfg = CacheConfig(mem_result_bytes=100 * KB, mem_list_bytes=512 * KB,
                      ssd_result_bytes=512 * KB, ssd_list_bytes=4096 * KB,
                      policy=Policy.CBSLRU)
    processor = CountingProcessor(index, top_k=cfg.top_k)
    return cls(cfg, build_hierarchy_for(cfg, index), index, processor,
               materialize_results=materialize)


def distinct_queries(n, seed=5):
    """``n`` queries with pairwise distinct three-term keys: every one is
    a result miss."""
    rng = random.Random(seed)
    keys: dict[tuple[int, ...], None] = {}
    while len(keys) < n:
        keys[tuple(sorted(rng.sample(range(VOCAB), 3)))] = None
    return [Query(i, key) for i, key in enumerate(keys)]


def container_sizes(obj):
    return {name: len(value) for name, value in vars(obj).items()
            if isinstance(value, (dict, list, set, tuple))}


MANAGERS = [CacheManager, ThreeLevelCacheManager]


@pytest.mark.parametrize("cls", MANAGERS, ids=lambda c: c.__name__)
def test_surrogate_serving_never_executes(index, cls):
    mgr = make(cls, index)
    decoded0 = HOT.postings_decoded
    for query in distinct_queries(60):
        mgr.process_query(query)
    assert mgr.stats.result_misses == 60
    assert mgr.processor.executed == 0
    assert HOT.postings_decoded == decoded0


@pytest.mark.parametrize("cls", MANAGERS, ids=lambda c: c.__name__)
def test_materialized_serving_scores_real_postings(index, cls):
    mgr = make(cls, index, materialize=True)
    decoded0 = HOT.postings_decoded
    for query in distinct_queries(60):
        mgr.process_query(query)
    assert mgr.stats.result_misses == 60
    assert mgr.processor.executed == 60
    assert HOT.postings_decoded > decoded0


@pytest.mark.parametrize("cls", MANAGERS, ids=lambda c: c.__name__)
def test_distinct_result_misses_hold_no_host_memory(index, cls):
    """Serving keeps no per-query state in the processor, and the second
    half of a log of distinct misses allocates under a fixed bound."""
    mgr = make(cls, index)
    queries = distinct_queries(1600)
    half = len(queries) // 2
    sizes = container_sizes(mgr.processor)
    for query in queries[:half]:
        mgr.process_query(query)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for query in queries[half:]:
            mgr.process_query(query)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert mgr.stats.result_misses == len(queries)
    assert container_sizes(mgr.processor) == sizes
    assert grown < SECOND_HALF_ALLOC_BOUND
