"""The traced run: per-layer metrics from spans around the library's entry points.

Wrappers are installed on attributes of ``espindex.esp``, ``.succinct``,
``.index`` and ``.cli`` in this process only and removed afterwards; no
source file changes.  The run does one set-up, one load and one round of
every timed class traced; each query also runs untraced just before its traced
call, and the ratio of the two totals is the tracing overhead.  Query-layer figures are means per ``locate`` call
of one pattern-length class (suffix ``.p10``, ``.p100``, ``.p1000``);
``_s`` figures are inclusive span durations unless named as self time.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from spans import Tracer

CLI_STARTUP_CALLS = 5
QUERY_CLASSES = ("p10", "p100", "p1000", "extract")


def install(tr: Tracer) -> None:
    from espindex import cli, esp, index, succinct

    def type2(plan) -> Tuple[int, int]:
        mask = plan.ukind == esp.TYPE2
        return int((plan.uend - plan.ustart)[mask].sum()), int(plan.m)

    tr.wrap(esp, "build_grammar", "esp.build_grammar", observe=lambda g: (g.height, g.n))
    tr.wrap(esp, "plan_level", "esp.plan_level", observe=type2)
    for cls in (succinct.BitVector, succinct.LargeAlphabetSequence):
        short = cls.__name__
        tr.wrap(cls, "__init__", f"succinct.{short}.construct")
        tr.wrap(cls, "select", f"succinct.{short}.select")
        tr.wrap(cls, "rank", f"succinct.{short}.rank")
    tr.wrap(succinct.BitVector, "from_words", "succinct.BitVector.construct")
    tr.wrap(index, "encode", "index.encode")
    tr.wrap(index, "crc64", "index.crc64")
    tr.wrap(index, "unpack_ints", "index.unpack_ints")
    E = index.EspIndex
    tr.wrap(E, "__init__", "index.construct")
    tr.wrap(E, "serialize", "index.serialize")
    tr.wrap(E, "deserialize", "index.deserialize")
    tr.wrap(E, "locate", "index.locate", observe=len)
    tr.wrap(E, "pattern_evidence", "index.pattern_evidence",
            observe=lambda ev: 0 if ev is None else len(ev.runs))
    tr.wrap(E, "reverse_lookup", "index.reverse_lookup")
    tr.wrap(E, "core_occurrences", "index.core_occurrences", observe=len)
    tr.wrap(E, "verify_candidate", "index.verify_candidate")
    tr.wrap(E, "extract", "index.extract")
    tr.wrap(cli, "main", "cli.main")


def _traced_phases(bench, tr: Tracer) -> Tuple[float, float, Dict[str, List[int]]]:
    """Set-up, load and one round of every in-process class under spans, each
    operation its own query id.  Each query also runs once untraced just
    before its traced call; returns (untraced s, traced s, query ids)."""
    qids: Dict[str, List[int]] = defaultdict(list)
    with tr.span("bench.setup", query=1):
        bench.setup(bench.index_path)
    with tr.span("bench.load", query=2):
        bench.load()
    qid = 2
    plain_s = traced_s = 0.0
    for name, ops in bench.classes().items():
        if name not in QUERY_CLASSES:
            continue
        for label, op, check in ops:
            qid += 1
            qids[name].append(qid)
            try:
                with tr.suspended():
                    t0 = time.perf_counter()
                    op()
                    plain_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                with tr.span(f"bench.{name}", query=qid):
                    got = op()
                traced_s += time.perf_counter() - t0
            except Exception as exc:  # counted as a failed operation
                bench.checks.record(label, False, exc)
                continue
            bench.checks.record(label, check(got))
    return plain_s, traced_s, qids


def _cli_in_process(bench, tr: Tracer, first_qid: int) -> Tuple[List[int], List[int]]:
    """``cli.main`` for every CLI pattern in this process; (query ids, stdout sizes)."""
    from espindex import cli

    qids, sizes = [], []
    for i, pat in enumerate(bench.w.cli_patterns):
        buf = io.StringIO()
        q = first_qid + i
        with tr.span("bench.cli", query=q), contextlib.redirect_stdout(buf):
            code = cli.main(["locate", "-x", bench.index_path, "-q", pat.hex(), "--hex"])
        out = buf.getvalue().encode("ascii")
        ok = code == 0 and bench.cli_expected(pat) == (0, *bench.parse_cli_locate(out))
        bench.checks.record(f"in-process cli locate #{i}", ok)
        qids.append(q)
        sizes.append(len(out))
    return qids, sizes


def _cli_startup_ms(bench) -> float:
    """Median wall time of a CLI call that exits before loading (missing index)."""
    missing = bench.index_path + ".missing"
    times = []
    for _ in range(CLI_STARTUP_CALLS):
        t0 = time.perf_counter()
        proc = bench.cli("locate", "-x", missing, "-q", "00", "--hex")
        times.append((time.perf_counter() - t0) * 1e3)
        bench.checks.record("cli on a missing index exits 2", proc.returncode == 2)
    return statistics.median(times)


def layer_metrics(tr: Tracer, qids: Dict[str, List[int]]) -> Dict[str, float]:
    by_query: Dict[int, list] = defaultdict(list)
    for s in tr.spans:
        by_query[s[2]].append(s)
    self_t = tr.self_times()
    out: Dict[str, float] = {}

    def total(spans, name):
        return sum(s[5] - s[4] for s in spans if s[3] == name)

    def calls(spans, *names):
        return sum(1 for s in spans if s[3] in names)

    setup, load = by_query[1], by_query[2]
    build = [s for s in setup if s[3] == "esp.build_grammar"][0]
    plans = [s for s in setup if s[3] == "esp.plan_level"]
    out["esp.build_s"] = build[5] - build[4]
    out["esp.plan_level_s"] = sum(s[5] - s[4] for s in plans)
    out["esp.plan_level_calls"] = len(plans)
    out["esp.rule_creation_s"] = self_t[build[0]]
    t2 = sum(tr.notes[s[0]][0] for s in plans)
    parsed = sum(tr.notes[s[0]][1] for s in plans)
    out["esp.type2_share"] = t2 / parsed
    out["esp.levels"], out["esp.rules"] = tr.notes[build[0]]
    out["index.serialize_s"] = total(setup, "index.serialize")

    construct = ("succinct.BitVector.construct", "succinct.LargeAlphabetSequence.construct")
    out["succinct.construct_s"] = sum(total(load, n) for n in construct)
    out["index.deserialize_s"] = total(load, "index.deserialize")
    out["index.crc64_s"] = total(load, "index.crc64")
    out["index.unpack_s"] = total(load, "index.unpack_ints")
    out["index.construct_s"] = sum(self_t[s[0]] for s in load if s[3] == "index.construct")

    selects = ("succinct.BitVector.select", "succinct.LargeAlphabetSequence.select")
    ranks = ("succinct.BitVector.rank", "succinct.LargeAlphabetSequence.rank")
    for cls in ("p10", "p100", "p1000"):
        per = [by_query[q] for q in qids[cls]]
        nq = len(per)
        flat = [s for spans in per for s in spans]

        def mean_s(name):
            return total(flat, name) / nq

        # a call that raised has a span but no note
        hits = sum(tr.notes.get(s[0], 0) for s in flat if s[3] == "index.locate")
        core_first = 0
        for spans in per:
            cores = sorted((s for s in spans if s[3] == "index.core_occurrences"), key=lambda s: s[4])
            core_first += tr.notes.get(cores[0][0], 0) if cores else 0
        runs = [tr.notes.get(s[0], 0) for s in flat if s[3] == "index.pattern_evidence"]
        sfx = "." + cls
        out["index.locate_s" + sfx] = mean_s("index.locate")
        out["esp.query_plan_level_s" + sfx] = mean_s("esp.plan_level")
        out["succinct.select_s" + sfx] = sum(total(flat, n) for n in selects) / nq
        out["succinct.select_calls_per_query" + sfx] = calls(flat, *selects) / nq
        out["succinct.rank_calls_per_query" + sfx] = calls(flat, *ranks) / nq
        out["index.evidence_s" + sfx] = mean_s("index.pattern_evidence")
        out["index.reverse_lookup_s" + sfx] = mean_s("index.reverse_lookup")
        out["index.reverse_lookups_per_query" + sfx] = calls(flat, "index.reverse_lookup") / nq
        out["index.evidence_runs_per_query" + sfx] = sum(runs) / nq
        out["index.core_occurrences_s" + sfx] = mean_s("index.core_occurrences")
        out["index.core_occurrences_calls_per_query" + sfx] = calls(flat, "index.core_occurrences") / nq
        out["index.core_occ_total" + sfx] = core_first
        out["index.hits_total" + sfx] = hits
        out["index.core_occ_per_hit" + sfx] = core_first / max(hits, 1)
        out["index.verify_s" + sfx] = mean_s("index.verify_candidate")
        out["index.verify_calls_per_query" + sfx] = calls(flat, "index.verify_candidate") / nq
        out["index.verify_fallback_share" + sfx] = sum(
            1 for spans in per if any(s[3] == "index.verify_candidate" for s in spans)
        ) / nq

    ext = [s for q in qids["extract"] for s in by_query[q] if s[3] == "index.extract"]
    out["index.extract_s"] = sum(s[5] - s[4] for s in ext) / len(ext)
    cli_main = [s for q in qids["cli"] for s in by_query[q] if s[3] == "cli.main"]
    out["cli.main_ms"] = 1e3 * sum(s[5] - s[4] for s in cli_main) / len(cli_main)
    return out


def run(bench, spans_path: str) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics for the bench's workload; spans saved to spans_path."""
    bench.setup(bench.index_path)  # warms imports and caches untraced
    tr = Tracer()
    install(tr)
    try:
        plain_s, traced_s, qids = _traced_phases(bench, tr)
        qids["cli"], sizes = _cli_in_process(bench, tr, 1 + max(max(v) for v in qids.values()))
    finally:
        tr.uninstall()
    metrics = layer_metrics(tr, qids)
    metrics["cli.output_bytes_per_call"] = sum(sizes) / len(sizes)
    metrics["cli.startup_ms"] = _cli_startup_ms(bench)
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
    tr.save(spans_path)
    return metrics, {"spans": len(tr.spans), "untraced_s": plain_s, "traced_s": traced_s}
