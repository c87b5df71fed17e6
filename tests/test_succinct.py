import random

import numpy as np
import pytest

from espindex import build_grammar, encode
from espindex.succinct import BitVector, LargeAlphabetSequence


class TestBitVector:
    def test_rank_examples(self):
        bv = BitVector("0110101")
        assert bv.rank(1, 0) == 0
        assert bv.rank(1, 6) == 4
        assert bv.rank(0, 3) == 2

    def test_select_examples(self):
        bv = BitVector("0110101")
        assert bv.select(1, 1) == 2
        assert bv.select(0, 3) == 6
        assert bv.select(0, 4) is None  # only three zeros: not-found, not error

    def test_range_errors(self):
        bv = BitVector("0110101")
        with pytest.raises(IndexError):
            bv.rank(1, 7)
        with pytest.raises(IndexError):
            bv.rank(0, -1)
        with pytest.raises(IndexError):
            bv.select(1, 0)

    def test_rank_zero_plus_rank_one(self):
        rng = random.Random(1)
        bv = BitVector([rng.randrange(2) for _ in range(3000)])
        for i in (0, 1, 17, 511, 512, 513, 2999):
            assert bv.rank(0, i) + bv.rank(1, i) == i + 1

    @pytest.mark.parametrize("density", [0.02, 0.5, 0.97])
    def test_against_linear_scan(self, density):
        rng = random.Random(int(density * 100))
        bits = [1 if rng.random() < density else 0 for _ in range(20000)]
        bv = BitVector(bits)
        prefix = np.cumsum(bits)
        ones_pos = [i + 1 for i, b in enumerate(bits) if b]
        zeros_pos = [i + 1 for i, b in enumerate(bits) if not b]
        for _ in range(2000):
            i = rng.randrange(len(bits))
            assert bv.rank(1, i) == prefix[i]
            assert bv.rank(0, i) == i + 1 - prefix[i]
        for k in range(1, len(ones_pos) + 1, 7):
            assert bv.select(1, k) == ones_pos[k - 1]
        for k in range(1, len(zeros_pos) + 1, 7):
            assert bv.select(0, k) == zeros_pos[k - 1]
        assert bv.select(1, len(ones_pos) + 1) is None

    def test_select_rank_inversion(self):
        rng = random.Random(9)
        bv = BitVector([rng.randrange(2) for _ in range(5000)])
        for c in (0, 1):
            total = bv.ones if c else bv.zeros
            for k in range(1, total + 1, 11):
                p = bv.select(c, k)
                assert bv.rank(c, p - 1) == k  # rank at the 1-based position, inclusive

    def test_large_vector_random_probes(self):
        rng = random.Random(3)
        n = 10**6
        bits = np.frombuffer(rng.randbytes(n), dtype=np.uint8) & 1
        bv = BitVector(bits)
        prefix = np.cumsum(bits, dtype=np.int64)
        for _ in range(10**4):
            i = rng.randrange(n)
            assert bv.rank(1, i) == prefix[i]
        ones = int(prefix[-1])
        ones_pos = np.flatnonzero(bits == 1) + 1
        for _ in range(2000):
            k = rng.randrange(1, ones + 1)
            assert bv.select(1, k) == ones_pos[k - 1]

    def test_directory_overhead_within_target(self):
        bv = BitVector([1, 0] * (10**5))
        assert bv.directory_overhead() <= 0.25

    def test_empty_and_tiny(self):
        bv = BitVector([])
        assert len(bv) == 0 and bv.ones == 0
        assert bv.select(1, 1) is None
        one = BitVector([1])
        assert one.rank(1, 0) == 1 and one.select(1, 1) == 1

    def test_word_roundtrip(self):
        rng = random.Random(4)
        bits = [rng.randrange(2) for _ in range(777)]
        bv = BitVector(bits)
        bv2 = BitVector.from_words(bv.words.copy(), bv.length)
        assert np.array_equal(bv.to_array(), bv2.to_array())
        assert bv2.rank(1, 776) == bv.rank(1, 776)


class TestLargeAlphabetSequence:
    def test_access_examples(self):
        seq = LargeAlphabetSequence([2, 3, 3, 1])
        assert seq.access(1) == 2
        assert seq.access(4) == 1
        with pytest.raises(IndexError):
            seq.access(5)

    def test_rank_examples(self):
        seq = LargeAlphabetSequence([2, 3, 3, 1])
        assert seq.rank(3, 0) == 0  # empty prefix is legal
        assert seq.rank(3, 3) == 2
        assert seq.rank(7, 4) == 0  # absent symbol
        with pytest.raises(IndexError):
            seq.rank(3, 5)

    def test_select_examples(self):
        seq = LargeAlphabetSequence([2, 3, 3, 1])
        assert seq.select(3, 1) == 2
        assert seq.select(3, 2) == 3
        assert seq.select(3, 3) is None

    def test_against_linear_scan(self):
        rng = random.Random(7)
        n, bound = 10**5, 10**4
        vals = [rng.randrange(1, bound + 1) for _ in range(n)]
        seq = LargeAlphabetSequence(vals, bound=bound)
        # exhaustive grid on a small prefix plus random probes
        for i in range(1, 60):
            assert seq.access(i) == vals[i - 1]
        for _ in range(10**4):
            c = rng.randrange(1, bound + 1)
            i = rng.randrange(0, n + 1)
            assert seq.rank(c, i) == vals[:i].count(c)
        for _ in range(2000):
            c = rng.choice(vals)
            k = rng.randrange(1, vals.count(c) + 1)
            positions = [j + 1 for j, v in enumerate(vals) if v == c]
            assert seq.select(c, k) == positions[k - 1]

    def test_select_enumerates_positions(self):
        rng = random.Random(8)
        vals = [rng.randrange(1, 50) for _ in range(4000)]
        seq = LargeAlphabetSequence(vals)
        for c in range(1, 50):
            got = []
            k = 1
            while True:
                p = seq.select(c, k)
                if p is None:
                    break
                got.append(p)
                k += 1
            assert got == [j + 1 for j, v in enumerate(vals) if v == c]

    def test_rank_select_inversion(self):
        rng = random.Random(2)
        vals = [rng.randrange(1, 30) for _ in range(5000)]
        seq = LargeAlphabetSequence(vals)
        for c in range(1, 30):
            total = seq.count(c)
            for k in range(1, total + 1, 3):
                assert seq.rank(c, seq.select(c, k)) == k

    def test_repeated_queries_stable(self):
        seq = LargeAlphabetSequence([5, 1, 5, 2])
        assert [seq.rank(5, 4) for _ in range(3)] == [2, 2, 2]
        assert [seq.select(5, 2) for _ in range(3)] == [3, 3, 3]

    @pytest.mark.parametrize("n, symbols, bound", [
        (5000, range(1, 301), 300),
        (70000, range(1, 4), 3),  # positions need 17 bits
        (0, range(1, 2), 0),
        (0, range(1, 2), 7),
        (1, range(1, 2), 1),
        (300, range(1, 2), 1),  # one symbol throughout
        (4000, range(2, 600, 3), 600),  # absent symbols
        (2000, range(1, 51), 90_000),  # bound far above the largest symbol
        (40_000, range(1, 40_005), 40_004),  # the index's shape: bound = sigma + n
        (70_000, range(1, 70_257), 70_256),  # ... with 64-bit keys
        (1023, (1, 2, 3, 2**21 - 1), 2**21 - 1),  # key bits exactly 32
        (1023, (1, 2, 3, 2**22 - 1), 2**22 - 1),  # 33: bound + 1 needs one more bit
    ])
    def test_position_index_matches_argsort(self, n, symbols, bound):
        vals = np.random.default_rng(n + bound).choice(np.array(symbols), n)
        seq = LargeAlphabetSequence(vals, bound=bound)
        keys = seq._keys
        shift = n.bit_length()
        bits = (bound + 1).bit_length() + shift
        assert keys.dtype == (np.uint32 if bits <= 32 else np.uint64)
        assert keys.size == n and np.all(keys[1:] > keys[:-1])
        order = np.argsort(vals, kind="stable")
        assert np.array_equal(keys >> keys.dtype.type(shift), vals[order])
        assert np.array_equal(keys & keys.dtype.type((1 << shift) - 1), order)
        # symbol c's keys are the slice [starts[c-1], starts[c]) of the CSR
        # position index that the keys replace
        starts = np.searchsorted(vals[order], np.arange(1, bound + 2))
        cs = np.arange(1, bound + 1) if bound <= 100_000 else np.unique(vals)
        firsts = np.searchsorted(keys, cs.astype(keys.dtype) << keys.dtype.type(shift))
        assert np.array_equal(firsts, starts[cs - 1])
        few = cs[:300]
        assert [seq.count(int(c)) for c in few] == (starts[few] - starts[few - 1]).tolist()
        if bound >= n >= 256:
            # positions and starts took 2 or 4 bytes each, one per position
            # and one per symbol in [1, bound + 1]
            width = 2 if n < 1 << 16 else 4
            assert keys.nbytes <= width * (n + bound + 1)

    def test_position_keys_must_fit_a_word(self):
        with pytest.raises(ValueError):
            LargeAlphabetSequence([1], bound=1 << 63)  # 64 + 1 bits

    def test_size_report(self, capsys):
        # soft bound: a small constant of n * lg(bound) bits; reported only
        rng = random.Random(11)
        n, bound = 10**5, 10**4
        seq = LargeAlphabetSequence([rng.randrange(1, bound + 1) for _ in range(n)],
                                    bound=bound)
        target = n * max(bound.bit_length(), 1)
        actual = (seq.values.nbytes + seq._keys.nbytes) * 8
        with capsys.disabled():
            print(f"\n  [REPORT] sequence bits: {actual} "
                  f"(target n*lg(bound) = {target}, x{actual / target:.1f})")
        assert actual > 0


class TestBatched:
    """Array calls of rank and select against np.flatnonzero and prefix-count
    oracles, and scalar calls (batches of one) against array calls."""

    @pytest.mark.parametrize("density", [0.02, 0.5, 0.97])
    def test_bit_vector_against_flatnonzero(self, density):
        rng = np.random.default_rng(int(density * 100))
        bits = (rng.random(20011) < density).astype(np.uint8)
        bv = BitVector(bits)
        for c in (0, 1):
            where = np.flatnonzero(bits == c) + 1
            ks = rng.permutation(np.arange(1, where.size + 4))  # 3 past the end
            expect = np.where(ks <= where.size, where[np.minimum(ks, where.size) - 1], 0)
            assert np.array_equal(bv.select(c, ks), expect)
            assert bv.select(c, [where.size])[0] == where[-1]  # the last c
            assert np.array_equal(bv.rank(c, np.arange(bits.size)),
                                  np.cumsum(bits == c))
            few = np.r_[ks[:100], where.size + 1]
            assert [bv.select(c, int(k)) for k in few] == [int(p) or None for p in bv.select(c, few)]
            assert [bv.rank(c, int(i)) for i in few - 1] == bv.rank(c, few - 1).tolist()

    def test_bit_vector_edges(self):
        bv = BitVector("0110101")
        assert bv.select(0, []).size == 0 and bv.rank(1, []).size == 0
        assert bv.select(0, [3, 4]).tolist() == [6, 0]  # last zero, then past it
        with pytest.raises(IndexError):
            bv.select(1, [1, 0])
        with pytest.raises(IndexError):
            bv.rank(1, [0, 7])
        with pytest.raises(ValueError):
            bv.select(2, [1])
        whole = BitVector(np.ones(2048, dtype=np.uint8))  # ends on a block boundary
        assert whole.rank(1, [1023, 2047]).tolist() == [1024, 2048]
        assert whole.select(1, [2048, 2049]).tolist() == [2048, 0]

    def test_empty_bit_vector_of_rule_less_grammar(self):
        bv = encode(build_grammar(b"z")).B
        assert bv.length == 0
        assert bv.select(0, [1, 2]).tolist() == [0, 0]
        assert bv.select(0, 1) is None
        assert bv.select(1, [1]).tolist() == [0]
        assert bv.rank(0, []).size == 0
        for bad in (0, [0]):
            with pytest.raises(IndexError):
                bv.rank(0, bad)

    def test_sequence_against_flatnonzero(self):
        self.check_sequence_against_flatnonzero(5000, 300, np.uint32)
        self.check_sequence_against_flatnonzero(5000, 2**20, np.uint64)  # 21 + 13 key bits

    def check_sequence_against_flatnonzero(self, n, bound, key_dtype):
        rng = np.random.default_rng(5)
        top = min(bound, 300)
        vals = rng.integers(1, top - 20, n)  # the top symbols never occur
        seq = LargeAlphabetSequence(vals, bound=bound)
        assert seq._keys.dtype == key_dtype
        cs = rng.integers(-1, top + 3, 4000)  # includes 0 and symbols past the top
        cs[2:5] = (bound, bound + 1, bound + 2)
        prefixes = rng.integers(0, n + 1, cs.size)
        prefixes[:2] = (0, n)
        expect_rank = [np.count_nonzero(vals[:i] == c) for c, i in zip(cs, prefixes)]
        assert seq.rank(cs, prefixes).tolist() == expect_rank
        where = {c: np.flatnonzero(vals == c) + 1 for c in {*cs.tolist(), int(vals[0])}}
        ks = rng.integers(1, 40, cs.size)
        expect_sel = [int(where[c][k - 1]) if k <= where[c].size else 0
                      for c, k in zip(cs, ks)]
        assert seq.select(cs, ks).tolist() == expect_sel
        c = int(vals[0])  # one symbol for the whole batch
        assert seq.select(c, np.arange(1, where[c].size + 2)).tolist() == \
            where[c].tolist() + [0]
        assert seq.rank(c, np.arange(n + 1)).tolist() == \
            np.concatenate(([0], np.cumsum(vals == c))).tolist()
        few = slice(0, 300)  # absent, out-of-range and past-the-end cases included
        assert [seq.rank(int(c), int(i)) for c, i in zip(cs[few], prefixes[few])] == \
            expect_rank[few]
        assert [seq.select(int(c), int(k)) for c, k in zip(cs[few], ks[few])] == \
            [p or None for p in expect_sel[few]]

    @pytest.mark.parametrize("bound, key_dtype", [(300, np.uint32), (2**20, np.uint64)])
    def test_successor_against_rank_then_select(self, bound, key_dtype):
        # successor(c, i) is select(c, rank(c, i) + 1), 0 where absent, and
        # the first 1-based position past i holding c in a linear scan
        rng = np.random.default_rng(bound)
        n = 3000
        vals = rng.integers(1, 280, n)  # symbols 280..bound never occur
        seq = LargeAlphabetSequence(vals, bound=bound)
        assert seq._keys.dtype == key_dtype
        cs = rng.integers(-2, 300, 5000)
        cs[:6] = (0, -1, bound, bound + 1, vals[0], vals[-1])
        prefixes = rng.integers(0, n + 1, cs.size)
        prefixes[:12] = (0,) * 6 + (n,) * 6
        cs[6:12] = cs[:6]
        ranked = seq.rank(cs, prefixes) + 1
        expect = seq.select(cs, ranked)
        got = seq.successor(cs, prefixes)
        assert got.dtype == np.int64 and got.tolist() == expect.tolist()
        scan = []
        for c, i in zip(cs.tolist(), prefixes.tolist()):
            at = np.flatnonzero(vals[i:] == c)
            scan.append(i + int(at[0]) + 1 if at.size else 0)
        assert got.tolist() == scan
        assert np.count_nonzero(got) and not got.all()  # both outcomes occur
        c = int(vals[0])  # one symbol for the whole batch
        assert seq.successor(c, np.arange(n + 1)).tolist() == \
            seq.select(c, seq.rank(c, np.arange(n + 1)) + 1).tolist()
        few = slice(0, 300)  # a scalar query is a batch of one, None where 0
        assert [seq.successor(int(c), int(i)) for c, i in zip(cs[few], prefixes[few])] == \
            [p or None for p in scan[few]]
        assert type(seq.successor(c, 0)) is int and seq.successor(c, 0) == 1
        for prefix in (-1, n + 1):
            for bad in ((c, prefix), ([c], [prefix]), ([c, c], [0, prefix])):
                with pytest.raises(IndexError):
                    seq.successor(*bad)

    def test_successor_edges(self):
        seq = LargeAlphabetSequence([2, 3, 3, 1])
        assert seq.successor([3, 3, 3, 3, 3], [0, 1, 2, 3, 4]).tolist() == [2, 2, 3, 0, 0]
        assert seq.successor([2, 1, 4, 0, -1], [0, 0, 0, 0, 0]).tolist() == [1, 4, 0, 0, 0]
        assert seq.successor([], []).size == 0
        assert seq.successor(3, 3) is None and seq.successor(1, 3) == 4
        empty = LargeAlphabetSequence([])
        assert empty.successor([1, 0], [0, 0]).tolist() == [0, 0]
        assert empty.successor(1, 0) is None
        for bad in ((1, 1), ([1], [-1])):
            with pytest.raises(IndexError):
                empty.successor(*bad)

    def test_sequence_edges(self):
        seq = LargeAlphabetSequence([2, 3, 3, 1])
        assert seq.select([3, 3, 3], [1, 2, 3]).tolist() == [2, 3, 0]
        assert seq.rank([], []).size == 0
        assert type(seq.rank(3, 4)) is int and type(seq.select(3, 2)) is int
        for prefix in (-1, 5):
            for bad in ((3, prefix), ([3], [prefix])):
                with pytest.raises(IndexError):
                    seq.rank(*bad)
        for bad in ((3, 0), ([3], [0])):
            with pytest.raises(IndexError):
                seq.select(*bad)
        empty = LargeAlphabetSequence([])
        assert empty.select([1], [1]).tolist() == [0] and empty.select(1, 1) is None
        assert empty.rank([1], [0]).tolist() == [0] and empty.rank(1, 0) == 0
