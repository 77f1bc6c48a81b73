"""Targeted cache-manager path coverage: scheme-specific list flows,
warmup budgets, and configuration presets."""

import pytest

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.entries import CachedResult, EntryState
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.flash.constants import FlashConfig

KB = 1024


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))


def build(index, **overrides):
    kwargs = dict(
        mem_result_bytes=100 * KB,
        mem_list_bytes=384 * KB,
        ssd_result_bytes=512 * KB,
        ssd_list_bytes=2048 * KB,
        policy=Policy.CBLRU,
        scheme=Scheme.HYBRID,
    )
    kwargs.update(overrides)
    cfg = CacheConfig(**kwargs)
    return CacheManager(cfg, build_hierarchy_for(cfg, index), index)


def test_exclusive_list_reeviction_rewrites(index):
    """Under the exclusive scheme, a promoted list's SSD copy is deleted,
    so its next eviction must write again (no replaceable skip)."""
    mgr = build(index, scheme=Scheme.EXCLUSIVE, mem_list_bytes=256 * KB)
    for i, t in enumerate(range(10, 22)):
        mgr.process_query(Query(i, (t,)))
    writes_before = mgr.stats.ssd_list_writes
    ssd_terms = [t for t in mgr.l2_lists.keys() if mgr.l1_lists.get(t) is None]
    t0 = ssd_terms[0]
    mgr.process_query(Query(100, (t0, 79)))        # promote: SSD copy removed
    assert mgr.l2_lists.get(t0) is None
    for i, t in enumerate(range(30, 42)):           # force t0 out of L1 again
        mgr.process_query(Query(200 + i, (t,)))
    assert mgr.stats.ssd_list_writes > writes_before
    assert mgr.stats.ssd_writes_avoided == 0
    mgr.check_invariants()


def test_hybrid_list_reeviction_skips_rewrite(index):
    """Same flow under hybrid: the REPLACEABLE copy is revalidated."""
    mgr = build(index, mem_list_bytes=256 * KB)
    for i, t in enumerate(range(10, 22)):
        mgr.process_query(Query(i, (t,)))
    ssd_terms = [t for t in mgr.l2_lists.keys() if mgr.l1_lists.get(t) is None]
    t0 = ssd_terms[0]
    mgr.process_query(Query(100, (t0, 79)))
    entry = mgr.l2_lists.get(t0)
    assert entry is not None and entry.state is EntryState.REPLACEABLE
    avoided_before = mgr.stats.ssd_writes_avoided
    for i, t in enumerate(range(30, 42)):
        mgr.process_query(Query(200 + i, (t,)))
    if mgr.l2_lists.get(t0) is not None:  # unless evicted by pressure
        assert mgr.stats.ssd_writes_avoided >= avoided_before
    mgr.check_invariants()


def test_result_readmission_replaces_resident_entry(index):
    """Two in-flight misses on one query (kernel mode) both admit its
    result; the second admission replaces the first instead of counting
    its bytes twice or evicting a neighbour to make room for it."""
    mgr = build(index)
    rc = mgr.result_cache
    for k in range(5):  # fill L1 exactly: 5 x 20 KB = 100 KB
        rc.admit_l1(CachedResult(query_key=(k,), nbytes=20 * KB), from_lower=False)
    rc.admit_l1(CachedResult(query_key=(2,), nbytes=20 * KB), from_lower=False)
    rc.check_invariants()
    assert rc.l1_bytes == 100 * KB
    assert sorted(rc.l1.keys()) == [(k,) for k in range(5)]


def test_result_readmission_during_eviction_counts_bytes_once(index):
    """The second admission may land while the first waits on the SSD
    write of an eviction it made room with; the first then replaces it."""
    mgr = build(index)
    rc = mgr.result_cache
    for k in range(5):
        rc.admit_l1(CachedResult(query_key=(k,), nbytes=20 * KB), from_lower=False)
    on_evicted = rc._on_evicted

    def other_task_admits(victim):
        rc._on_evicted = on_evicted
        on_evicted(victim)
        rc.admit_l1(CachedResult(query_key=(9,), nbytes=20 * KB), from_lower=False)

    rc._on_evicted = other_task_admits
    rc.admit_l1(CachedResult(query_key=(9,), nbytes=20 * KB), from_lower=False)
    rc.check_invariants()
    assert sorted(rc.l1.keys()) == [(1,), (2,), (3,), (4,), (9,)]


@pytest.mark.parametrize("policy", [Policy.CBLRU, Policy.LRU])
def test_l2_list_eviction_during_ssd_read_serves_bytes_read(index, policy):
    """Another task may evict an SSD list while this one waits on its
    read: the read finishes from the placement it started with, and the
    fetch serves those bytes without touching the cache it no longer owns."""
    mgr = build(index, policy=policy, mem_list_bytes=256 * KB,
                block_bytes=8 * KB, result_entry_bytes=4 * KB)
    for i, t in enumerate(range(10, 22)):
        mgr.process_query(Query(i, (t,)))
    lc = mgr.list_cache
    term = next(t for t in lc.l2.keys() if lc.l1.get(t) is None)
    entry = lc.l2.get(term)
    read = lc.ssd.read
    reads = []

    def other_task_evicts(lba, nbytes):
        out = read(lba, nbytes)
        reads.append(nbytes)
        if len(reads) == 1:
            lc.drop_l2(term, trim=True, reason="evicted")
        return out

    lc.ssd.read = other_task_evicts
    flags = lc.fetch(term, entry.cached_bytes, entry.total_bytes, entry.pu)
    assert len(reads) > 1 and sum(reads) == entry.cached_bytes
    assert flags == (False, True, False)
    assert lc.l2.get(term) is None
    assert entry.state is EntryState.NORMAL
    assert lc.l1.get(term) is not None
    mgr.check_invariants()


def test_warmup_static_respects_block_budget(index):
    log = generate_query_log(QueryLogConfig(
        num_queries=600, distinct_queries=200, vocab_size=80,
        singleton_fraction=0.0, seed=6))
    mgr = build(index, policy=Policy.CBSLRU, static_fraction=0.25,
                ssd_result_bytes=1024 * KB, ssd_list_bytes=4096 * KB)
    info = mgr.warmup_static(log)
    assert info["static_list_blocks"] <= info["static_list_blocks_budget"]
    rc_blocks_used = -(-info["static_results"] * 20 * KB // (128 * KB))
    assert rc_blocks_used <= info["static_result_blocks_budget"] + 1
    # Dynamic region kept the remaining blocks.
    assert mgr.list_region.free_count >= (
        mgr.config.ssd_list_blocks - info["static_list_blocks_budget"]
    ) - 1
    mgr.check_invariants()


def test_warmup_static_never_pins_singletons(index):
    """Queries seen once in the analysed prefix are never pinned (with a
    tiny vocabulary some 'singletons' collide into genuine repeats; those
    may be pinned — every pinned entry must carry freq >= 2)."""
    log = generate_query_log(QueryLogConfig(
        num_queries=150, distinct_queries=150, vocab_size=80,
        singleton_fraction=1.0, query_zipf_s=0.01, seed=7))
    mgr = build(index, policy=Policy.CBSLRU)
    mgr.warmup_static(log, analyze_queries=150)
    for entry in mgr.static_results.values():
        assert entry.freq >= 2


def test_query_outcome_fields(index):
    mgr = build(index)
    out = mgr.process_query(Query(0, (5,)))
    assert out.query.key == (5,)
    assert out.result_hit_level == 0
    assert out.response_us > 0
    out2 = mgr.process_query(Query(0, (5,)))
    assert out2.result_hit_level == 1


def test_section6_flash_preset():
    cfg = FlashConfig.section6(num_blocks=64)
    assert cfg.read_us == 20.0
    assert cfg.write_us == 250.0
    assert cfg.erase_us == 1500.0
    assert cfg.name == "section6"


def test_table3_flash_preset_defaults():
    cfg = FlashConfig.table3()
    assert cfg.page_bytes == 2048
    assert cfg.pages_per_block == 64
    assert cfg.block_bytes == 128 * 1024
    assert cfg.read_us == pytest.approx(32.725)
    assert cfg.write_us == pytest.approx(101.475)
    assert cfg.erase_us == pytest.approx(1500.0)


def test_flash_config_validation_extras():
    with pytest.raises(ValueError):
        FlashConfig(channels=0)
    with pytest.raises(ValueError):
        FlashConfig(page_bytes=1000)
    with pytest.raises(ValueError):
        FlashConfig(num_blocks=1, gc_free_block_threshold=2)
    with pytest.raises(ValueError):
        FlashConfig(overprovision=1.0)


def test_manager_with_materialized_results(index):
    mgr = CacheManager(
        CacheConfig(mem_result_bytes=100 * KB, mem_list_bytes=256 * KB,
                    ssd_result_bytes=512 * KB, ssd_list_bytes=1024 * KB),
        build_hierarchy_for(
            CacheConfig(mem_result_bytes=100 * KB, mem_list_bytes=256 * KB,
                        ssd_result_bytes=512 * KB, ssd_list_bytes=1024 * KB),
            index),
        index,
        materialize_results=True,
    )
    out = mgr.process_query(Query(0, (3, 9)))
    assert out.response_us > 0


def test_write_buffer_drain_after_run(index):
    mgr = build(index, mem_result_bytes=40 * KB)
    for i in range(10):
        mgr.process_query(Query(i, (1 + i,)))
    staged = mgr.write_buffer.drain()
    assert len(mgr.write_buffer) == 0
    for entry in staged:
        assert entry.nbytes == mgr.config.result_entry_bytes
