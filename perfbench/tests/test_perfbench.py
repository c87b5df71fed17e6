"""Self-tests of the benchmark: generators, tail statistic, tracer, compare.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random

import pytest

import compare
import run
import workloads
from spans import Tracer

SMALL = workloads.Spec(30_000, {10: 5, 100: 5, 1000: 3}, 4, 2, 10, 2)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    a = workloads.make(name, 7, SMALL)
    b = workloads.make(name, 7, SMALL)
    c = workloads.make(name, 8, SMALL)
    assert a.text == b.text and a.patterns == b.patterns and a.windows == b.windows
    assert a.cli_patterns == b.cli_patterns
    assert workloads.fingerprint(a) == workloads.fingerprint(b)
    fa, fc = workloads.fingerprint(a), workloads.fingerprint(c)
    assert all(x != y for x, y in zip(fa, fc)), "another seed must change text, patterns and windows"
    assert len(a.text) == SMALL.text_bytes
    for m, pats in a.patterns.items():
        assert len(pats) == SMALL.patterns_per_length[m]
        assert all(len(p) == m and p in a.text for p in pats)


def test_tail_leaves_ten_samples_above():
    vals = list(range(40))
    random.Random(1).shuffle(vals)
    value, pct = run.tail(vals, 40)
    assert sum(v > value for v in vals) == 10
    assert pct == 75.0
    # a longer run reports the same percentile, with more samples above it
    value, pct = run.tail(list(range(60)), 40)
    assert (value, pct) == (44, 75.0)
    assert run.tail([3.0, 1.0, 2.0], 3) == (2.0, 50.0)


def test_p50_takes_each_operations_slower_call_of_the_first_two_rounds():
    # three operations over three rounds; the third round does not count
    calls = [1.0, 5.0, 2.0,  4.0, 1.0, 1.0,  9.0, 9.0, 9.0]
    assert run.MIN_ROUNDS == 2
    assert run.p50_of_slowest(calls, 3) == 4.0  # median of 4, 5, 2


def test_self_times_under_one_locate_sum_to_its_duration():
    from espindex import esp, index

    text = workloads.make("versions", 3, SMALL).text
    idx = index.encode(esp.build_grammar(text))
    original = index.EspIndex.locate
    tr = Tracer()
    import traced

    traced.install(tr)
    try:
        with tr.span("bench.locate", query=5):
            hits = idx.locate(text[1000:1100])
    finally:
        tr.uninstall()
    assert index.EspIndex.locate is original
    assert 1001 in hits
    spans = [s for s in tr.spans if s[2] == 5]
    locate = next(s for s in spans if s[3] == "index.locate")
    assert {s[3] for s in spans} >= {"index.pattern_evidence", "index.reverse_lookup",
                                     "esp.plan_level", "succinct.BitVector.select"}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s[0])
    subtree, todo = [], [locate[0]]
    while todo:
        sid = todo.pop()
        subtree.append(sid)
        todo.extend(children.get(sid, ()))
    self_t = tr.self_times()
    assert len(subtree) > 1
    assert all(self_t[sid] >= 0 for sid in subtree)
    assert sum(self_t[sid] for sid in subtree) == pytest.approx(locate[5] - locate[4], abs=1e-9)


def _series(base, n=10, jitter=0.01, seed=0):
    """n values within +-jitter of base."""
    rng = random.Random(seed)
    return [base * (1 + rng.uniform(-jitter, jitter)) for _ in range(n)]


def test_compare_verdicts_on_synthetic_pairs():
    parent = _series(100.0, seed=1)
    assert compare.verdict(parent, [p * 0.8 for p in parent], "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, _series(100.0, seed=2), "lower", 0.1)["verdict"] == "same"
    # a higher-is-better metric improving
    assert compare.verdict(parent, [p * 1.2 for p in parent], "higher", 0.1)["verdict"] == "better"
    # nine pairs are too few to claim a gain, however clear
    assert compare.verdict(parent[:9], [p * 0.8 for p in parent[:9]], "lower", 0.1)["verdict"] == "same"
    # a gain is void when the change fails more operations
    assert compare.verdict(parent, [p * 0.8 for p in parent], "lower", 0.1,
                           extra_failures=True)["verdict"] == "same"
    # spread wider than the bound: unresolved unless every change run is better
    wide = [50.0, 150.0] * 5
    assert compare.verdict(wide, [w * 1.05 for w in wide], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(wide, [40.0] * 10, "lower", 0.1)["verdict"] != "unresolved"


def test_compare_report_has_one_row_per_workload():
    def result(v, failed=0):
        return {"correct": not failed, "attempted": 10, "failed": failed,
                "metrics": {"latency_ms": {"value": v, "unit": "ms"}}}

    doc = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
           "pairs": []}
    for wl, factor in (("a", 0.5), ("b", 1.0)):
        for i, p in enumerate(_series(10.0, seed=3)):
            doc["pairs"].append({"workload": wl, "seed": i, "first": "parent",
                                 "parent": result(p), "change": result(p * factor)})
    table = compare.report(doc)
    assert sorted(table) == ["a", "b"]
    assert table["a"]["latency_ms"]["verdict"] == "better"
    assert table["b"]["latency_ms"]["verdict"] == "same"
    assert len(compare.format_rows(table).splitlines()) == 2
