"""Acceptance battery: one test per exit criterion, each printing a
[PASS]/[FAIL] line.  Run with ``pytest -s tests/test_acceptance.py``.

Criterion 9 builds a large repetitive fixture; by default a scaled one
(12 MB).  Set ESP_ACCEPT_FULL=1 for the full 50 MB run.
"""

from __future__ import annotations

import io
import math
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from espindex import esp
from espindex.esp import alphabet_reduction, build_grammar, log_star, plan_level
from espindex.index import (
    ChecksumError,
    EspIndex,
    MagicError,
    TruncationError,
    VersionError,
    encode,
)
from espindex.oracle import naive_reverse_dict, naive_search

from conftest import near_duplicates, text_family


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_1_round_trip():
    rng = random.Random(101)
    with criterion(1, "round trip over >= 1000 fixtures (exact)"):
        t0 = time.perf_counter()
        fixtures = 0
        sizes = (
            [rng.randrange(1, 2000) for _ in range(940)]
            + [rng.randrange(2000, 60000) for _ in range(50)]
            + [10**5] * 6
            + [10**6] * 4
        )
        for i, size in enumerate(sizes):
            text = text_family(rng, i, size)
            g = build_grammar(text)
            idx = encode(g)
            assert idx.extract(1, idx.u) == text
            if size > 1:
                assert g.height <= math.ceil(math.log2(size)) + 1
            fixtures += 1
        elapsed = time.perf_counter() - t0
        assert fixtures >= 1000
        assert elapsed < 300, f"round-trip battery took {elapsed:.0f}s"
        print(f"  {fixtures} fixtures in {elapsed:.1f}s")


def test_criterion_2_oracle_equality():
    rng = random.Random(202)
    grid = [1, 2, 10, 20, 50, 100, 200, 500, 1000]
    with criterion(2, "count/locate equal naive search on >= 10^4 pairs (exact)"):
        pairs = 0
        for ti in range(32):
            size = rng.choice([3000, 8000, 20000, 50000])
            text = text_family(rng, ti, size)
            idx = encode(build_grammar(text))
            for m in grid:
                if m > len(text):
                    continue
                for _ in range(24):
                    st = rng.randrange(0, len(text) - m + 1)
                    pat = text[st : st + m]
                    assert idx.locate(pat) == naive_search(text, pat)
                    pairs += 1
                for _ in range(11):
                    st = rng.randrange(0, len(text) - m + 1)
                    mutated = bytearray(text[st : st + m])
                    mutated[rng.randrange(m)] ^= 0xFF
                    pat = bytes(mutated)
                    assert idx.locate(pat) == naive_search(text, pat)
                    pairs += 1
        assert pairs >= 10**4
        print(f"  {pairs} (text, pattern) pairs")


def test_criterion_3_encoding_identities():
    rng = random.Random(303)
    with criterion(3, "encoding identities and reverse-lookup totality (exact)"):
        absent_checked = 0
        for ti in range(12):
            text = text_family(rng, ti, rng.randrange(500, 20000))
            g = build_grammar(text)
            idx = encode(g)
            n = idx.n
            ones = np.flatnonzero(idx.B.to_array() == 1) + 1
            assert np.array_equal(ones - np.arange(1, n + 1), g.d1)
            assert np.array_equal(
                np.asarray([idx.A.access(k) for k in range(1, n + 1)]), g.d2
            )
            for k in range(1, n + 1):
                assert idx.B.select(1, k) - k == g.d1[k - 1]
                assert idx.reverse_lookup(int(g.d1[k - 1]), int(g.d2[k - 1])) == k
            table = naive_reverse_dict(g)
            total = g.sigma + n
            while absent_checked < (ti + 1) * 850:
                i = rng.randrange(1, total + 1)
                j = rng.randrange(1, total + 1)
                if (i, j) in table:
                    continue
                assert idx.reverse_lookup(i, j) is None
                absent_checked += 1
        # the worked fixture reproduces the three hand-simulated lookups
        left = np.int64([0, 0, 0, 1, 1, 2, 3])
        right = np.int64([0, 0, 0, 2, 3, 3, 1])
        fx = EspIndex(sigma=2, n=4, u=3, root=6,
                      alphabet=np.uint8([97, 98]), left=left, right=right)
        assert "".join(map(str, fx.B.to_array())).startswith("0110101")
        assert fx.reverse_lookup(1, 3) == 2
        assert fx.reverse_lookup(2, 3) == 3
        assert fx.reverse_lookup(3, 3) is None
        assert absent_checked >= 10**4
        print(f"  {absent_checked} absent digrams probed")


def test_criterion_4_structural_bounds():
    rng = random.Random(404)
    with criterion(4, "height, landmark gaps, level shrinkage (exact)"):
        gap_checks = 0
        for ti in range(40):
            text = text_family(rng, ti, rng.randrange(2, 20000))
            levels = []
            g = build_grammar(text, record_levels=levels)
            assert g.height <= math.ceil(math.log2(max(len(text), 2))) + 1
            for lv, (a, b) in enumerate(zip(levels, levels[1:]), start=1):
                assert math.ceil(len(a) / 3) <= len(b) <= len(a) // 2
                plan = plan_level(
                    a, g.level_threshold(lv), g.level_alphabet_bound(lv)
                )
                lms = plan.landmarks
                # consecutive landmarks of one unit are 2 or 3 apart
                unit = np.searchsorted(plan.ustart, lms, side="right")
                inside = unit[1:] == unit[:-1]
                assert set(np.diff(lms)[inside].tolist()) <= {2, 3}
                gap_checks += lms.size
        assert gap_checks > 1000
        print(f"  {gap_checks} landmark gaps checked")


def test_criterion_5_worked_parse_pin():
    with criterion(5, "ababababbab parses with the 13241 equality shape (exact)"):
        levels = []
        build_grammar(b"ababababbab", record_levels=levels)
        lv1 = levels[1].tolist()
        assert len(lv1) == 5
        assert lv1[0] == lv1[4]
        assert len({lv1[0], lv1[1], lv1[2], lv1[3]}) == 4


def test_criterion_6_landmark_locality():
    rng = random.Random(606)
    with criterion(6, "single edits move landmarks only inside the local window"):
        for _ in range(1000):
            size = rng.randrange(60, 400)
            s = [rng.randrange(1, 256)]
            while len(s) < size:
                v = rng.randrange(1, 256)
                if v != s[-1]:
                    s.append(v)
            before = set(alphabet_reduction(s, alphabet_bound=255).tolist())
            e = rng.randrange(1, size - 1)
            choices = [v for v in range(1, 256)
                       if v not in (s[e - 1], s[e], s[e + 1])]
            edited = list(s)
            edited[e] = rng.choice(choices)
            after = set(alphabet_reduction(edited, alphabet_bound=255).tolist())
            radius = log_star(size) + 5
            moved = before ^ after
            assert all(e - radius <= p <= e + radius for p in moved), (
                sorted(moved), e, radius)


def test_criterion_7_completeness_and_agreement():
    rng = random.Random(707)
    with criterion(7, "candidate completeness and verifier agreement (exact)"):
        accepted = rejected = 0
        for ti in range(22):
            text = text_family(rng, ti, rng.randrange(100, 8000))
            idx = encode(build_grammar(text))
            for _ in range(10):
                m = rng.randrange(2, min(len(text), 400) + 1)
                st = rng.randrange(0, len(text) - m + 1)
                pat = text[st : st + m]
                ev = idx.pattern_evidence(pat)
                assert ev is not None
                cand, _ = idx._candidates(ev, m)
                assert set(naive_search(text, pat)) <= set(cand.tolist())
                # the confirmation locate runs, on a sample of the candidates,
                # against extraction of each window
                sample = cand.tolist()
                if len(sample) > 60:
                    sample = sorted(rng.sample(sample, 60))
                want = [c for c in sample if idx.verify_candidate(c, pat)]
                assert idx._confirm(ev, np.int64(sample)).tolist() == want
                accepted += len(want)
                rejected += len(sample) - len(want)
        assert accepted + rejected >= 2000
        assert accepted > 0 and rejected > 0
        print(f"  {accepted} accepted and {rejected} rejected candidates, "
              "all as extraction decides")


def test_criterion_8_serialization():
    rng = random.Random(808)
    with criterion(8, "save/load answer-identity and corrupt-file errors (exact)"):
        text = near_duplicates(rng, 40000, copies=4)
        idx = encode(build_grammar(text))
        buf = io.BytesIO()
        idx.serialize(buf)
        data = buf.getvalue()
        idx2 = EspIndex.deserialize(data)
        queries = 0
        for _ in range(500):
            m = rng.randrange(1, 200)
            st = rng.randrange(0, len(text) - m + 1)
            pat = text[st : st + m]
            assert idx.locate(pat) == idx2.locate(pat)
            assert idx.extract(st + 1, m) == idx2.extract(st + 1, m)
            queries += 2
        assert queries >= 1000
        bad = bytearray(data)
        bad[:8] = b"XXXXXXXX"
        with pytest.raises(MagicError):
            EspIndex.deserialize(bytes(bad))
        for version in (b"77", b"01"):  # a later format, and the one with lengths
            bad = bytearray(data)
            bad[6:8] = version
            with pytest.raises(VersionError):
                EspIndex.deserialize(bytes(bad))
        with pytest.raises(TruncationError):
            EspIndex.deserialize(data[:-20])
        bad = bytearray(data)
        bad[700] ^= 0x10
        with pytest.raises(ChecksumError):
            EspIndex.deserialize(bytes(bad))


def test_criterion_9_scaled_performance(tmp_path):
    rng = random.Random(909)
    full = os.environ.get("ESP_ACCEPT_FULL") == "1"
    copies = 25 if full else 6
    label = "scaled performance report (soft, reported)"
    with criterion(9, label):
        seed = rng.randbytes(2 * 10**6)
        parts = []
        for _ in range(copies):
            buf = bytearray(seed)
            for _ in range(int(len(buf) * 0.001)):
                buf[rng.randrange(len(buf))] = rng.randrange(256)
            parts.append(bytes(buf))
        text = b"".join(parts)
        t0 = time.perf_counter()
        g = build_grammar(text)
        idx = encode(g)
        build_s = time.perf_counter() - t0
        path = tmp_path / "big.idx"
        nbytes = idx.save(str(path))
        lat = []
        for _ in range(10):
            st = rng.randrange(1, idx.u - 1000 + 2)
            pat = idx.extract(st, 1000)
            t0 = time.perf_counter()
            idx.count(pat)
            lat.append((time.perf_counter() - t0) * 1e3)
        lat.sort()
        print(f"  [REPORT] text_bytes={len(text)} copies={copies}")
        print(f"  [REPORT] build_seconds={build_s:.1f} rules={idx.n} height={idx.height}")
        print(f"  [REPORT] index_bytes={nbytes} "
              f"smaller_than_text={nbytes < len(text)} "
              f"ratio={nbytes / len(text):.3f}")
        print(f"  [REPORT] count_ms_p50={lat[len(lat)//2]:.1f} "
              f"count_ms_max={lat[-1]:.1f} (|P|=1000, 10 samples)")
        # sanity only: the report must come from a functioning index
        st = rng.randrange(1, idx.u - 64)
        assert idx.extract(st, 64) == text[st - 1 : st + 63]
