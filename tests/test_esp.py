import math
from typing import List, Tuple

import numpy as np
import pytest

from espindex import esp
from espindex.esp import (
    TYPE1,
    TYPE2,
    TYPE3,
    BuildReverseDict,
    _label_iterations,
    alphabet_reduction,
    build_grammar,
    expand,
    factorize_types,
    log_star,
    parse_level,
    plan_level,
)
from espindex.index import _LEFT_MARGIN_EXTRA, _RIGHT_ANCHOR_MARGIN, _stable_group_range

from conftest import text_family


def run_free(rng, size, hi=255):
    out = [rng.randrange(1, hi + 1)]
    while len(out) < size:
        v = rng.randrange(1, hi + 1)
        if v != out[-1]:
            out.append(v)
    return out


# Per-block landmark and tiling routines that plan_level's one segmented pass
# replaced; kept unchanged as the reference the pass is checked against.


def _landmarks_scalar(vals, alphabet_bound: int) -> np.ndarray:
    """Scalar twin of the vectorized landmark pipeline (same results)."""
    lab = list(vals)
    m = len(lab)
    for _ in range(_label_iterations(alphabet_bound)):
        prev = lab[0] ^ 1
        nxt = []
        for v in lab:
            x = v ^ prev
            p = (x & -x).bit_length() - 1
            nxt.append(2 * p + ((v >> p) & 1))
            prev = v
        lab = nxt
    for v in range(max(lab), 2, -1):
        for i in range(m):
            if lab[i] != v:
                continue
            left = lab[i - 1] if i > 0 else -1
            right = lab[i + 1] if i < m - 1 else -1
            if left != 0 and right != 0:
                lab[i] = 0
            elif left != 1 and right != 1:
                lab[i] = 1
            else:
                lab[i] = 2
    is_max = [False] * m
    for i in range(1, m):
        if lab[i] > lab[i - 1] and (i == m - 1 or lab[i] > lab[i + 1]):
            is_max[i] = True
    lms = []
    for i in range(1, m):
        if is_max[i]:
            lms.append(i)
        elif lab[i] < lab[i - 1] and (i == m - 1 or lab[i] < lab[i + 1]):
            if not (is_max[i - 1] or (i + 1 < m and is_max[i + 1])):
                lms.append(i)
    if len(lms) >= 2 and lms[-1] == m - 2 and lms[-1] - lms[-2] == 2:
        lms[-1] = m - 1
    return np.asarray(lms, dtype=np.int64)


def _type2_groups(m: int, lms: np.ndarray) -> Tuple[List[int], List[int], List[int]]:
    """Tile a type2 block of length m with groups anchored at landmarks.

    Returns (starts, sizes, anchors); anchor -1 marks boundary artifacts
    (leading pad pairs) that no landmark owns.
    """
    if m == 2:
        return [0], [2], [-1]
    if m == 3:
        return [0], [3], [-1]
    starts: List[int] = []
    sizes: List[int] = []
    anchors: List[int] = []
    k = lms.size
    if k == 0:
        raise AssertionError("type2 block of length >= 4 produced no landmarks")
    lead = int(lms[0]) - 1
    if lead == 2:
        starts.append(0)
        sizes.append(2)
        anchors.append(-1)
    for idx in range(k):
        q = int(lms[idx])
        gstart, gend = q - 1, q + 1
        nxt = int(lms[idx + 1]) - 1 if idx + 1 < k else m
        if nxt - gend == 1:  # lone symbol before the next pair joins this group
            gend += 1
        anchor = q
        if idx == 0 and lead == 1:
            if gend - gstart == 2:
                gstart = 0  # leading single joins the first pair as a triple
            else:
                starts.append(0)
                sizes.append(2)
                anchors.append(-1)
                gstart = 2  # rebalance: 1 + 3 would make a 4-wide group
                anchor = -1
        starts.append(gstart)
        sizes.append(gend - gstart)
        anchors.append(anchor)
    # the tiling must be exact; anything else is a landmark-spacing bug
    pos = 0
    for st, sz in zip(starts, sizes):
        if st != pos or sz not in (2, 3):
            raise AssertionError(f"bad type2 tiling at {st} (size {sz}, expected start {pos})")
        pos += sz
    if pos != m:
        raise AssertionError(f"type2 tiling covers {pos} of {m} symbols")
    return starts, sizes, anchors


def reference_plan(arr, threshold, alphabet_bound):
    """plan_level's starts, sizes, uglo and ughi, and a dict from each type2
    unit of length >= 4 to its (landmarks, anchors), assembled unit by unit
    from the references above."""
    kinds, bs, be = esp._factorize_arrays(arr, threshold)
    ukind, ustart, uend = esp._merge_units(kinds, bs, be, arr.size)
    starts, sizes, uglo, ughi, t2info = [], [], [], [], {}
    for ui, (kind, a, b) in enumerate(zip(ukind.tolist(), ustart.tolist(), uend.tolist())):
        uglo.append(len(starts))
        if kind == TYPE2 and b - a >= 4:
            lms = _landmarks_scalar(arr[a:b].tolist(), alphabet_bound)
            st, sz, anc = _type2_groups(b - a, lms)
            starts += [a + x for x in st]
            sizes += sz
            t2info[ui] = (lms + a, np.int64([x + a if x >= 0 else -1 for x in anc]))
        else:
            n = (b - a) // 2
            starts += [a + 2 * j for j in range(n)]
            sizes += [2] * (n - 1) + [b - a - 2 * (n - 1)]
        ughi.append(len(starts))
    return np.int64(starts), np.int64(sizes), np.int64(uglo), np.int64(ughi), t2info


def multi_block(rng):
    """Run-free blocks of 2-200 symbols (across the 64-symbol size at which
    the parser used to switch routines) with runs of 2-3 between them; the
    string may stop one or two symbols short of its last run's end."""
    hi = rng.choice((3, 8, 255, 100000))
    s, blocks = [], []
    for _ in range(rng.randrange(1, 8)):
        size = rng.choice((rng.randrange(2, 4), rng.randrange(4, 65), rng.randrange(65, 201)))
        block = run_free(rng, size, hi)
        while s and block[0] == s[-1]:
            block = run_free(rng, size, hi)
        run = rng.choice([v for v in range(1, min(hi, 4) + 1) if v != block[-1]])
        s += block + [run] * rng.randrange(2, 4)
        blocks.append(block)
    return np.int64(s[: rng.randrange(len(s) - 2, len(s) + 1)]), hi, blocks


def plan_windows(rng):
    """(string, threshold, alphabet bound) cases for plan_level: 400
    multi-block strings, then windows of level strings as pattern_evidence
    parses them.  Also returns every run-free block with its bound."""
    cases, blocks = [], []
    for _ in range(400):
        s, hi, bs = multi_block(rng)
        cases.append((s, log_star(s.size), hi))
        blocks += [(b, hi) for b in bs]
    for trial in range(36):
        levels = []
        g = build_grammar(text_family(rng, trial, rng.randrange(200, 4000)),
                          record_levels=levels)
        for lv, a in enumerate(levels[:-1], start=1):
            for _ in range(4):
                i = rng.randrange(0, a.size - 1)
                j = rng.randrange(i + 2, min(a.size, i + 400) + 1)
                cases.append((a[i:j], g.level_threshold(lv), g.level_alphabet_bound(lv)))
    return cases, blocks


def stable_group_range_reference(plan, t2info, label_rounds):
    """Reference for _stable_group_range: a loop over the groups of each edge
    unit, reading the anchors from reference_plan's per-unit dict."""
    nunits = plan.ukind.size
    last = nunits - 1

    lo = int(plan.ughi[0])
    if plan.ukind[0] == TYPE2 and 0 in t2info:
        _, anchors = t2info[0]
        need = label_rounds + _LEFT_MARGIN_EXTRA
        base = int(plan.uglo[0])
        for gi in range(base, int(plan.ughi[0])):
            if int(anchors[gi - base]) >= need:
                lo = gi
                break

    hi = int(plan.uglo[last])
    if plan.ukind[last] == TYPE2 and last in t2info:
        _, anchors = t2info[last]
        ustart = int(plan.ustart[last])
        ulen = plan.m - ustart
        base = int(plan.uglo[last])
        for gi in range(int(plan.ughi[last]) - 1, base - 1, -1):
            a = int(anchors[gi - base])
            if a >= 0 and (a - ustart) <= ulen - _RIGHT_ANCHOR_MARGIN:
                hi = gi + 1
                break
    if (
        nunits >= 2
        and plan.ukind[last] != TYPE1
        and plan.m - int(plan.ustart[last]) == 2
    ):
        hi = min(hi, int(plan.uglo[last - 1]))

    return lo, hi


class TestLogStar:
    def test_small_values(self):
        assert log_star(1) == 1
        assert log_star(2) == 1
        assert log_star(16) == 3  # lg 16 = 4, lg 4 = 2, lg 2 = 1
        assert log_star(17) == 4

    def test_bounded_by_five(self):
        for u in (65537, 10**6, 10**9, 2**64, 2**65536):
            assert log_star(u) <= 5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_star(0)


class TestFactorize:
    def test_pure_repetition(self):
        blocks = factorize_types([2, 2])
        assert len(blocks) == 1 and blocks[0].kind == TYPE1

    def test_mixed_block_text(self):
        # a=1, b=2: type2 prefix, "bb" repetition, short "ab" tail
        s = [1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2]
        blocks = factorize_types(s)
        assert [b.kind for b in blocks] == [TYPE2, TYPE1, TYPE3]
        assert (blocks[0].start, blocks[0].end) == (0, 7)
        assert (blocks[1].start, blocks[1].end) == (7, 9)

    def test_threshold_turns_type2_into_type3(self):
        blocks = factorize_types([1, 2, 3], threshold=4)
        assert [b.kind for b in blocks] == [TYPE3]
        assert len(blocks[0]) == 3

    def test_blocks_tile_with_correct_kinds(self, rng):
        for _ in range(300):
            s = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 200))]
            thr = log_star(len(s))
            blocks = factorize_types(s)
            pos = 0
            for b in blocks:
                assert b.start == pos
                pos = b.end
                seg = s[b.start : b.end]
                has_run = any(x == y for x, y in zip(seg, seg[1:]))
                if b.kind == TYPE1:
                    assert len(set(seg)) == 1 and len(seg) >= 2
                elif b.kind == TYPE2:
                    assert not has_run and len(seg) >= thr
                else:
                    assert not has_run and len(seg) < thr
            assert pos == len(s)


class TestAlphabetReduction:
    def test_label_step_examples(self):
        # one block, bound 6: exactly one label round
        one = np.ones(2, dtype=bool)
        # position 2 of [4,5]: lowest differing bit p=0, bit(0,5)=1 -> label 1
        assert int(esp._labels(np.int64([4, 5]), one, 6)[1]) == 1
        # [5,4]: p=0, bit(0,4)=0 -> label 0
        assert int(esp._labels(np.int64([5, 4]), one, 6)[1]) == 0

    def test_rejects_runs(self):
        with pytest.raises(ValueError):
            alphabet_reduction([3, 3, 4])

    def test_gaps_two_or_three(self, rng):
        for _ in range(500):
            s = run_free(rng, rng.randrange(4, 150))
            lms = alphabet_reduction(s, alphabet_bound=255)
            gaps = np.diff(lms)
            assert lms.size >= 1
            assert all(g in (2, 3) for g in gaps), (s, lms.tolist())
            assert lms[0] >= 1

    def test_gap_property_long_strings(self, rng):
        for _ in range(20):
            s = run_free(rng, 5000)
            lms = alphabet_reduction(s, alphabet_bound=255)
            assert set(np.diff(lms).tolist()) <= {2, 3}

    def test_segmented_plan_matches_per_unit_reference(self, rng):
        cases, blocks = plan_windows(rng)
        for block, hi in blocks:  # alphabet_reduction is the pass on one block
            assert np.array_equal(alphabet_reduction(block, alphabet_bound=hi),
                                  _landmarks_scalar(block, hi))
        joined = rebalanced = long_units = 0
        for s, thr, bound in cases:
            plan = plan_level(s, thr, bound)
            starts, sizes, uglo, ughi, t2info = reference_plan(s, thr, bound)
            assert np.array_equal(plan.starts, starts)
            assert np.array_equal(plan.sizes, sizes)
            assert np.array_equal(plan.uglo, uglo)
            assert np.array_equal(plan.ughi, ughi)
            # the two columns hold the per-unit pieces; groups outside type2
            # units of length >= 4 are unanchored
            assert np.array_equal(plan.landmarks,
                                  np.concatenate([np.int64([])] + [lms for lms, _ in t2info.values()]))
            anchors = np.full(starts.size, -1, dtype=np.int64)
            for ui, (_, anc) in t2info.items():
                anchors[uglo[ui]:ughi[ui]] = anc
            assert np.array_equal(plan.anchors, anchors)
            for ui, (lms, _) in t2info.items():
                u0 = int(plan.ustart[ui])
                long_units += int(plan.uend[ui]) - u0 > 64
                if lms[0] - u0 == 2:  # a leading single
                    first = int(plan.uglo[ui])
                    joined += int(sizes[first]) == 3
                    rebalanced += int(sizes[first]) == 2
        assert joined > 0 and rebalanced > 0 and long_units > 0

    def test_locality_of_edits(self, rng):
        # flipping one symbol moves landmark decisions only inside a window
        # of log_star + 5 around the edit (see the round-trip consistency
        # the parser relies on)
        for _ in range(300):
            s = run_free(rng, rng.randrange(40, 200))
            lms = set(alphabet_reduction(s, alphabet_bound=255).tolist())
            e = rng.randrange(1, len(s) - 1)
            choices = [v for v in range(1, 256) if v != s[e - 1] and v != s[e + 1] and v != s[e]]
            s2 = list(s)
            s2[e] = rng.choice(choices)
            lms2 = set(alphabet_reduction(s2, alphabet_bound=255).tolist())
            radius = log_star(len(s)) + 5
            for p in lms ^ lms2:
                assert e - radius <= p <= e + radius


class TestStableGroupRange:
    @staticmethod
    def compare(s, thr, bound):
        """The range from the anchor column and from the reference loop."""
        s = np.int64(s)
        plan = plan_level(s, thr, bound)
        t2info = reference_plan(s, thr, bound)[4]
        rounds = _label_iterations(bound)
        got = _stable_group_range(plan, rounds)
        assert got == stable_group_range_reference(plan, t2info, rounds), (s.tolist(), thr)
        return got

    def test_matches_reference_on_plan_windows(self, rng):
        cases, _ = plan_windows(rng)
        ranges = [self.compare(s, thr, bound) for s, thr, bound in cases]
        assert sum(lo < hi for lo, hi in ranges) > 50

    def test_edge_cases_match_reference(self, rng):
        big = run_free(rng, 60, 9)
        while big[0] == 1 or big[-1] == 2:  # keep the runs around it apart
            big = run_free(rng, 60, 9)
        cases = [
            # type2 units shorter than 4 at the left, the right or both edges
            ([5, 6, 7, 1, 1] + big + [2, 2], 3),
            ([1, 1] + big + [2, 2, 8, 9, 4], 3),
            ([5, 6, 7, 1, 1] + big + [2, 2, 8, 9, 4], 3),
            ([5, 6, 1, 1] + big + [2, 2, 8, 9], 2),
            # a 2-long run-free stretch at the right edge (type3, then type2),
            # and a lone symbol there, which joins the run before it
            ([1, 1] + big + [2, 2, 7, 9], 3),
            (big + [2, 2, 7, 9], 2),
            ([1, 1] + big + [2, 2, 7], 3),
            # single-unit windows: one run, one short type2 unit, one type2
            # unit of length >= 4
            ([4] * 12, 3),
            ([1, 2, 3], 3),
            (big, 3),
            (big[:12], 3),
        ]
        ranges = [self.compare(s, thr, 9) for s, thr in cases]
        assert ranges[9][0] < ranges[9][1]  # the long type2 window keeps stable groups
        assert ranges[7][0] >= ranges[7][1]  # a lone run has none


class TestParseLevel:
    def test_repetition_pair(self):
        rd = BuildReverseDict(2)
        out = parse_level(np.int64([1, 1]), rd)
        assert out.tolist() == [2]
        assert rd.map == {(1, 1): 2}

    def test_odd_repetition(self):
        # aaaaa: one pair then a 2-3 split sharing the pair variable
        rd = BuildReverseDict(2)
        out = parse_level(np.int64([1, 1, 1, 1, 1]), rd)
        assert out.tolist() == [2, 3]
        assert rd.map[(1, 1)] == 2
        assert rd.map[(1, 2)] == 3  # second variable covers one a plus the pair

    def test_worked_text_level_one(self):
        s = np.int64([1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2])
        rd = BuildReverseDict(3)
        out = (parse_level(s, rd) - 2).tolist()
        assert out == [1, 3, 2, 4, 1]

    def test_shrinkage_bounds(self, rng):
        for _ in range(200):
            s = [rng.randrange(1, 6) for _ in range(rng.randrange(2, 400))]
            rd = BuildReverseDict(6)
            out = parse_level(np.int64(s), rd)
            assert math.ceil(len(s) / 3) <= out.size <= len(s) // 2

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            parse_level(np.int64([1]), BuildReverseDict(2))


class TestBuildGrammar:
    def test_single_byte_degenerate(self):
        g = build_grammar(b"a")
        assert g.n == 0
        assert g.root == 1
        assert g.lengths[g.root] == 1
        assert expand(g, g.root) == b"a"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_grammar(b"")

    def test_round_trip_families(self, rng):
        for trial in range(150):
            size = rng.randrange(1, 3000)
            t = text_family(rng, trial, size)
            g = build_grammar(t)
            assert expand(g, g.root) == t
            g.validate()

    def test_height_bound(self, rng):
        for trial in range(60):
            t = text_family(rng, trial, rng.randrange(2, 5000))
            g = build_grammar(t)
            assert g.height <= math.ceil(math.log2(len(t))) + 1

    def test_batch_equals_reference(self, rng):
        texts = [text_family(rng, trial, rng.randrange(1, 900)) for trial in range(80)]
        texts += [text_family(rng, kind, rng.randrange(10_000, 30_000)) for kind in (0, 1, 3, 4, 5)]
        shared_left = 0
        for t in texts:
            lv1, lv2 = [], []
            g1 = build_grammar(t, record_levels=lv1)
            g2 = build_grammar(t, reference=True, record_levels=lv2)
            for name in ("left", "right", "lengths", "level_of"):
                assert np.array_equal(getattr(g1, name), getattr(g2, name)), name
            assert g1.root == g2.root
            assert g1.level_lens == g2.level_lens
            assert len(lv1) == len(lv2)
            assert all(np.array_equal(a, b) for a, b in zip(lv1, lv2))
            # a triple's outer rule has a right child from its own round; count
            # rounds where one shares its left child with a first-stage rule,
            # which the batch numbering must place after that rule
            var = np.arange(g1.sigma + 1, g1.left.size)
            lv = g1.level_of[var]
            outer = g1.level_of[g1.right[var]] == lv
            first_stage = set(zip(lv[~outer].tolist(), g1.left[var][~outer].tolist()))
            shared_left += any(k in first_stage for k in zip(lv[outer].tolist(), g1.left[var][outer].tolist()))
        assert shared_left > 0

    def test_monotone_left_children(self, rng):
        for trial in range(60):
            t = text_family(rng, trial, rng.randrange(2, 2000))
            g = build_grammar(t)
            d1 = g.d1
            assert np.all(d1[:-1] <= d1[1:])

    def test_digram_uniqueness(self, rng):
        for trial in range(40):
            t = text_family(rng, trial, rng.randrange(2, 2000))
            g = build_grammar(t)
            pairs = set(zip(g.d1.tolist(), g.d2.tolist()))
            assert len(pairs) == g.n

    def test_level_shrinkage_recorded(self, rng):
        levels = []
        t = text_family(rng, 0, 1000)
        build_grammar(t, record_levels=levels)
        for a, b in zip(levels, levels[1:]):
            assert math.ceil(len(a) / 3) <= len(b) <= len(a) // 2

    def test_level_string_expansion_consistent(self, rng):
        # every recorded level string must derive the original text
        t = text_family(rng, 5, 700)
        levels = []
        g = build_grammar(t, record_levels=levels)
        for s in levels:
            assert b"".join(expand(g, int(x)) for x in s) == t

    def test_worked_text_shape(self):
        levels = []
        build_grammar(b"ababababbab", record_levels=levels)
        lv1 = levels[1].tolist()
        assert len(lv1) == 5
        assert lv1[0] == lv1[4]
        assert len(set(lv1)) == 4  # everything else distinct

    def test_parsing_consistency_shared_core(self, rng):
        # two occurrences of the same long block share a variable covering a
        # sizable chunk of it; constant frozen from measurements at this scale
        from espindex.index import encode

        c = 16
        for _ in range(5):
            alpha = rng.randbytes(rng.randrange(200, 400))
            t = (
                rng.randbytes(rng.randrange(50, 150))
                + alpha
                + rng.randbytes(rng.randrange(50, 150))
                + alpha
                + rng.randbytes(rng.randrange(50, 150))
            )
            idx = encode(build_grammar(t))
            ev = idx.pattern_evidence(alpha)
            assert ev is not None
            q, _ = ev.runs[ev.core_index]
            cover = idx.symbol_length(q)
            floor = len(alpha) - c * log_star(len(t)) * math.log2(len(alpha))
            assert cover >= floor
            # the shared core generates both occurrences as candidates
            cand, _ = idx._candidates(ev, len(alpha))
            starts = {t.index(alpha) + 1}
            starts.add(t.index(alpha, t.index(alpha) + 1) + 1)
            assert starts <= set(cand.tolist())
