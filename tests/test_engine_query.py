"""Query objects and the query-log generator."""

import hashlib

import numpy as np
import pytest

from repro.analysis.zipf import fit_zipf_exponent
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.workloads.sweep import make_log_for


def test_query_key_is_sorted_unique():
    q = Query(query_id=0, terms=(5, 3, 5, 1))
    assert q.key == (1, 3, 5)
    assert len(q) == 4


def test_query_requires_terms():
    with pytest.raises(ValueError):
        Query(query_id=0, terms=())


def test_query_equality_by_terms():
    a = Query(0, (1, 2), text="one two")
    b = Query(0, (1, 2), text="different text")
    assert a == b  # text excluded from comparison


def test_log_config_validation():
    with pytest.raises(ValueError):
        QueryLogConfig(num_queries=0)
    with pytest.raises(ValueError):
        QueryLogConfig(min_terms=3, max_terms=2)
    with pytest.raises(ValueError):
        QueryLogConfig(vocab_size=2, max_terms=5)


def test_log_length_and_iteration(small_log):
    assert len(small_log) == 600
    queries = list(small_log)
    assert len(queries) == 600
    assert all(isinstance(q, Query) for q in queries)


def test_log_head(small_log):
    head = small_log.head(10)
    assert len(head) == 10
    assert head[0] == small_log[0]


def test_log_term_lengths_within_bounds(small_log):
    cfg = small_log.config
    for q in small_log.pool:
        assert cfg.min_terms <= len(q.terms) <= cfg.max_terms
        assert len(set(q.terms)) == len(q.terms)  # no duplicate terms


def test_log_terms_within_vocab(small_log):
    vocab = small_log.config.vocab_size
    for q in small_log.pool:
        assert all(0 <= t < vocab for t in q.terms)


def test_log_determinism():
    cfg = QueryLogConfig(num_queries=200, distinct_queries=50, vocab_size=100, seed=4)
    a = generate_query_log(cfg)
    b = generate_query_log(cfg)
    assert np.array_equal(a.stream_ids, b.stream_ids)
    assert [(q.query_id, q.terms, q.text) for q in a.pool] == [
        (q.query_id, q.terms, q.text) for q in b.pool]


def _log_digest(log) -> str:
    h = hashlib.sha256()
    for q in log.pool:
        h.update(f"{q.query_id}|{','.join(map(str, q.terms))}|{q.text}\n".encode())
    h.update(np.asarray(log.stream_ids, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("num_queries, digest", [
    # seed-1 logs of the benchmark's paper-cbslru and lru-churn workloads,
    # recorded when terms were still drawn with Generator.choice
    (14_000, "40cce86a1a66daed28571fd7507f49de4ca1fd7cfb66926fc94e1e90a4bfe230"),
    (10_000, "23fab0c9a7718de1cf6e0190b68cf01fcfd3feca2d19edc9d8a1af9108dd55d1"),
])
def test_benchmark_logs_are_pinned(num_queries, digest):
    log = make_log_for(num_queries, distinct_queries=4_000, seed=1000)
    assert _log_digest(log) == digest


def test_log_repetition_exists(small_log):
    """Result caching only works if queries repeat."""
    assert small_log.distinct_fraction() < 0.5


def test_log_query_popularity_is_zipf_like():
    log = generate_query_log(
        QueryLogConfig(num_queries=20_000, distinct_queries=2_000,
                       vocab_size=1_000, seed=1)
    )
    _, counts = np.unique(log.stream_ids, return_counts=True)
    s = fit_zipf_exponent(counts, head_fraction=0.3)
    assert 0.5 < s < 1.5  # the paper cites a Zipf-like law


def test_log_term_frequencies_consistent(small_log):
    freqs = small_log.term_frequencies()
    total_terms = sum(len(q.terms) for q in small_log)
    assert sum(freqs.values()) == total_terms


def test_same_key_queries_share_id():
    log = generate_query_log(
        QueryLogConfig(num_queries=100, distinct_queries=2000,
                       vocab_size=30, seed=2, min_terms=1, max_terms=2)
    )
    by_key: dict = {}
    for q in log.pool:
        if q.key in by_key:
            assert q.query_id == by_key[q.key]
        else:
            by_key[q.key] = q.query_id
