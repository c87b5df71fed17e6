"""The self-index: succinct grammar encoding and count/locate/extract queries.

The grammar's left-child array (monotone after construction) is stored as a
gap-unary bit vector ``B``; the right-child array as a rank/select sequence
``A``.  Nothing else is stored: expansion lengths are derived from the two
when an index is built or loaded, one round of rules at a time.  The
digram-to-rule map that existed at build time is simulated at query time:

    p = #{k : d1(k) < i}                    (= select_0(B, i) - i)
    r = select_j(A, rank_j(A, p) + 1)       (= A.successor(j, p))
    rule = r  if d1(r) = i  else  none

Rules with left child i follow rule p, and ``r`` is the first rule after p
with right child j, so ``d1(r) >= i`` and ``r`` has children (i, j) exactly
when ``d1(r) = i``; no upper end of the left child's range is needed.  ``p``
is one ``searchsorted`` on the decoded left-child column that the index
keeps resident, ``r`` one successor probe on ``A``'s keys, and ``d1(r)`` a
gather from that column; ``B`` stays the file's encoding of the column.

Positions exposed by this module are 1-based throughout; the CLI converts to
0-based at its boundary.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Tuple, Union

import numpy as np

from . import esp
from .esp import Grammar, log_star
from .succinct import BitVector, LargeAlphabetSequence

__all__ = [
    "EspIndex",
    "Evidence",
    "encode",
    "IndexLoadError",
    "MagicError",
    "VersionError",
    "TruncationError",
    "ChecksumError",
]

MAGIC = b"ESPIDX02"


class IndexLoadError(Exception):
    """Base class for index file problems."""


class MagicError(IndexLoadError):
    pass


class VersionError(IndexLoadError):
    pass


class TruncationError(IndexLoadError):
    pass


class ChecksumError(IndexLoadError):
    pass


# ---------------------------------------------------------------------------
# bit packing and CRC-64
# ---------------------------------------------------------------------------


def pack_ints(values: np.ndarray, width: int) -> np.ndarray:
    """Pack non-negative ints into little-endian u64 words, LSB-first."""
    vals = np.asarray(values, dtype=np.uint64)
    n = vals.size
    if width < 1 or width > 64:
        raise ValueError("width must be in [1, 64]")
    nwords = (n * width + 63) // 64
    words = np.zeros(nwords, dtype=np.uint64)
    if n == 0:
        return words
    bitpos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    widx = (bitpos >> np.uint64(6)).astype(np.int64)
    boff = bitpos & np.uint64(63)
    np.bitwise_or.at(words, widx, vals << boff)
    spill = (boff + np.uint64(width)) > np.uint64(64)
    if spill.any():
        np.bitwise_or.at(
            words,
            widx[spill] + 1,
            vals[spill] >> (np.uint64(64) - boff[spill]),
        )
    return words


def unpack_ints(words: np.ndarray, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_ints`."""
    w = np.asarray(words, dtype=np.uint64)
    if width < 1 or width > 64:
        raise ValueError("width must be in [1, 64]")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    bitpos = np.arange(count, dtype=np.uint64) * np.uint64(width)
    widx = (bitpos >> np.uint64(6)).astype(np.int64)
    boff = bitpos & np.uint64(63)
    out = w[widx] >> boff
    spill = (boff + np.uint64(width)) > np.uint64(64)
    if spill.any():
        out[spill] |= w[widx[spill] + 1] << (np.uint64(64) - boff[spill])
    if width < 64:
        out &= np.uint64((1 << width) - 1)
    return out.astype(np.int64)


_CRC64_POLY = 0xC96C5795D7870F42  # CRC-64/XZ, reflected


def _crc64_tables() -> List[List[int]]:
    t0 = []
    for b in range(256):
        crc = b
        for _ in range(8):
            crc = (crc >> 1) ^ (_CRC64_POLY if crc & 1 else 0)
        t0.append(crc)
    tables = [t0]
    for k in range(1, 8):
        prev = tables[k - 1]
        tables.append([t0[prev[b] & 0xFF] ^ (prev[b] >> 8) for b in range(256)])
    return tables


_CRC_TABLES = _crc64_tables()
_MASK64 = 0xFFFFFFFFFFFFFFFF
# the tables in the order bytes 0..7 of a little-endian word use them, flat:
# byte j with value v selects _CRC_FLAT[256 * j + v]
_CRC_FLAT = np.array(_CRC_TABLES[::-1], dtype=np.uint64).reshape(-1)
_CRC_BYTE_BASE = np.arange(8, dtype=np.intp) * 256
_UNIT_REGISTERS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)  # [v, k]: bit k of v


def _crc64_lanes(nwords: int) -> Tuple[int, int]:
    """(lanes, steps) of :func:`crc64` for ``nwords`` whole words.

    About 2*sqrt(nwords) lanes balance the numpy steps against the per-lane
    Python fold; the first lanes*steps words run lane-parallel.
    """
    lanes = max(1, 2 * math.isqrt(nwords))
    return lanes, nwords // lanes


def crc64(data: Union[bytes, bytearray, memoryview], crc: int = 0) -> int:
    """CRC-64/XZ, slice-by-8 with lanes in lockstep.

    The register update is linear over GF(2), so the leading words are cut
    into equal chunks whose registers, each started at zero, advance together:
    one table gather per word step.  64 more lanes, seeded with the unit
    registers and fed zero words, end as the columns of the map that carries
    a register over one chunk of zeros (the idea of zlib's
    ``crc32_combine``).  Starting from ``crc``'s register, the chunk
    registers are folded in order through byte tables of that map; the
    remaining words and bytes go through the scalar slice-by-8 loop.
    """
    mv = memoryview(data)
    n = len(mv)
    reg = crc ^ _MASK64
    lanes, steps = _crc64_lanes(n // 8)
    head = 8 * lanes * steps
    if steps:
        words = np.zeros((steps, lanes + 64), dtype=np.uint64)
        words[:, :lanes] = np.frombuffer(mv[:head], dtype="<u8").reshape(lanes, steps).T
        regs = np.zeros(lanes + 64, dtype=np.uint64)
        regs[lanes:] = _UNIT_REGISTERS
        for row in words:
            x = (regs ^ row).astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
            regs = np.bitwise_xor.reduce(_CRC_FLAT[x + _CRC_BYTE_BASE], axis=1)
        cols = regs[lanes:].reshape(8, 1, 8)
        z0, z1, z2, z3, z4, z5, z6, z7 = np.bitwise_xor.reduce(
            np.where(_BYTE_BITS, cols, np.uint64(0)), axis=2
        ).tolist()
        for r in regs[:lanes].tolist():
            reg = r ^ (
                z0[reg & 0xFF]
                ^ z1[(reg >> 8) & 0xFF]
                ^ z2[(reg >> 16) & 0xFF]
                ^ z3[(reg >> 24) & 0xFF]
                ^ z4[(reg >> 32) & 0xFF]
                ^ z5[(reg >> 40) & 0xFF]
                ^ z6[(reg >> 48) & 0xFF]
                ^ z7[reg >> 56]
            )
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC_TABLES
    end8 = n - (n % 8)
    if end8 > head:
        for w in np.frombuffer(mv[head:end8], dtype="<u8").tolist():
            x = reg ^ w
            reg = (
                t7[x & 0xFF]
                ^ t6[(x >> 8) & 0xFF]
                ^ t5[(x >> 16) & 0xFF]
                ^ t4[(x >> 24) & 0xFF]
                ^ t3[(x >> 32) & 0xFF]
                ^ t2[(x >> 40) & 0xFF]
                ^ t1[(x >> 48) & 0xFF]
                ^ t0[(x >> 56) & 0xFF]
            )
    for b in mv[end8:]:
        reg = t0[(reg ^ b) & 0xFF] ^ (reg >> 8)
    return reg ^ _MASK64


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """Run-length-compressed symbol string characterizing the pattern.

    Concatenated expansions of ``runs`` equal the pattern.  ``core`` lists
    (symbol, 0-based character offset in P) alternatives, one of which is a
    parse-tree node in every occurrence: their occurrences generate every
    candidate match.  Usually the core is the core run's symbol alone; when
    the pattern parse finds no stable group at level 1, the core run is one
    raw terminal and ``core`` holds the level-1 rules that can cover it.
    """

    runs: Tuple[Tuple[int, int], ...]  # (symbol, multiplicity)
    core_index: int
    core_pattern_offset: int  # 0-based character offset of the core run in P
    total_length: int
    core: Tuple[Tuple[int, int], ...]  # (symbol, offset) alternatives


# ---------------------------------------------------------------------------
# level metadata derivation (shared by encode and load)
# ---------------------------------------------------------------------------


def _derive_level_starts(sigma: int, d1: np.ndarray, u: int) -> np.ndarray:
    """First symbol id of every parsing round, then one past the last rule.

    Rules are numbered round by round and belong to the round after their
    left child's, so with ``d1`` monotone the rules of rounds 1..k are those
    whose left child lies before round k: one ``searchsorted`` per round.  A
    round that adds no rule means some rule's left child is itself or later.
    Every round groups its symbols in twos and threes, so a text of length u
    takes at most ceil(log2 u) rounds; rules that need more than one round
    beyond that are refused before the rest are walked.
    """
    total = sigma + d1.size + 1
    max_rounds = (u - 1).bit_length() + 1  # ceil(log2 u) + 1
    starts = [1, sigma + 1]
    while starts[-1] < total:
        if len(starts) - 2 == max_rounds:
            raise IndexLoadError(f"rules take more than {max_rounds} parsing rounds")
        nxt = sigma + 1 + int(np.searchsorted(d1, starts[-1]))
        if nxt == starts[-1]:
            raise IndexLoadError("cyclic or malformed rule structure")
        starts.append(nxt)
    return np.int64(starts)


def _derive_lengths(
    sigma: int, left: np.ndarray, right: np.ndarray, level_starts: np.ndarray
) -> np.ndarray:
    """Expansion length of every symbol, one numpy pass per parsing round.

    Within a round, two stages as in :meth:`EspIndex._contains_mask`: the
    first settles the rules whose children come from earlier rounds, the
    second the outer rules of 3-groups, whose right child is a first-stage
    rule of the same round.  A symbol outside every round keeps length 0.
    """
    lengths = np.zeros(left.size, dtype=np.int64)
    lengths[1 : sigma + 1] = 1
    for lo, hi in zip(level_starts[1:-1].tolist(), level_starts[2:].tolist()):
        seg, l, r = lengths[lo:hi], left[lo:hi], right[lo:hi]
        for _ in range(2):
            np.add(lengths[l], lengths[r], out=seg)
    return lengths


def _derive_level_lens(
    left: np.ndarray,
    right: np.ndarray,
    level_starts: np.ndarray,
    height: int,
    root: int,
    u: int,
) -> List[int]:
    """Length of the symbol string entering each parsing round.

    Counts top-down how often each symbol is a node of the string its round
    outputs.  A rule passes its count to its children, but an outer rule
    (X, I) of a 3-group passes it to X and past I to I's children.  Every
    target lies in an earlier round: one scatter-add per round.
    """
    occ = np.zeros(left.size, dtype=np.int64)
    occ[root] = 1
    lens = [u] + [0] * (height - 1)
    for lv in range(height, 0, -1):
        lo, hi = int(level_starts[lv]), int(level_starts[lv + 1])
        seg, l, r = occ[lo:hi], left[lo:hi], right[lo:hi]
        if lv < height:
            lens[lv] = int(seg.sum())
        outer = r >= lo  # right child created in the same round
        targets = np.concatenate((l, np.where(outer, left[r], r), right[r[outer]]))
        np.add.at(occ, targets, np.concatenate((seg, seg, seg[outer])))
    return lens


# margins (in symbols) an edge-touching type2 block keeps clear of unknown
# context before its groups count as stable during pattern parsing: landmark
# decisions reach label_rounds+5 symbols left and 5 right, end conventions
# and the landmark end-shift reach 3 more from the right edge
_LEFT_MARGIN_EXTRA = 6
_RIGHT_ANCHOR_MARGIN = 8

# root-to-node descents one confirmation wave may run: a wave checks about
# _CONFIRM_BUDGET // candidates copies, and never fewer than twice the last
# wave's.  Confirmation CPU ms per pattern (best of 5, median over up to 120
# benchmark patterns per class at seed 1000; 2 vCPUs, CPython 3.11, numpy
# 2.4) for budgets 0 (waves of 1, 2, 4, ...) / 256 / 1024 / 2048:
#   versions |P|=1000 (3 candidates, 88 copies)   0.90 / 0.42 / 0.27 / 0.26
#   genome   |P|=100  (10 candidates, 32 copies)  0.88 / 0.41 / 0.27 / 0.26
#   logs     |P|=100  (263 candidates, 36 copies) 1.15 / 0.72 / 0.77 / 1.78
#   genome   |P|=10   (5047 candidates, 7 copies) 3.29 / 3.23 / 3.17 / 3.76
# Past about 1024, one wide wave checks copies that a narrower first wave
# would have spared by dropping most candidates.
_CONFIRM_BUDGET = 1024


def _stable_group_range(plan: "esp.LevelPlan", label_rounds: int) -> Tuple[int, int]:
    """Group index range [lo, hi) whose tiling cannot depend on symbols
    outside the parsed window.  lo >= hi means nothing is stable.

    Only anchored groups can be stable at an edge.  Groups outside type2
    units of length >= 4 have anchor -1, so each edge reads the anchors of
    its unit without a kind test.
    """
    nunits = plan.ukind.size
    last = nunits - 1

    g0, g1 = int(plan.uglo[0]), int(plan.ughi[0])
    ok = np.flatnonzero(plan.anchors[g0:g1] >= label_rounds + _LEFT_MARGIN_EXTRA)
    lo = g0 + int(ok[0]) if ok.size else g1

    g0, g1 = int(plan.uglo[last]), int(plan.ughi[last])
    anchors = plan.anchors[g0:g1]
    ok = np.flatnonzero((anchors >= 0) & (anchors <= plan.m - _RIGHT_ANCHOR_MARGIN))
    hi = g0 + int(ok[-1]) + 1 if ok.size else g0
    # a 2-long run-free stretch at the window's right edge may collapse to a
    # lone symbol in context (its last symbol can join a run seen only with
    # more text) and then merge into the unit before it: that unit is
    # unstable too
    if (
        nunits >= 2
        and plan.ukind[last] != esp.TYPE1
        and plan.m - int(plan.ustart[last]) == 2
    ):
        hi = min(hi, int(plan.uglo[last - 1]))

    return lo, hi


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------


class EspIndex:
    """Succinct self-index over one text; immutable once constructed."""

    def __init__(
        self,
        sigma: int,
        n: int,
        u: int,
        root: int,
        alphabet: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
    ):
        self.sigma = int(sigma)
        self.n = int(n)
        self.u = int(u)
        self.root = int(root)
        self.alphabet = np.ascontiguousarray(alphabet, dtype=np.uint8)
        self._left = np.ascontiguousarray(left, dtype=np.int64)
        self._right = np.ascontiguousarray(right, dtype=np.int64)
        self.byte_to_term = np.zeros(256, dtype=np.int64)
        self.byte_to_term[self.alphabet] = np.arange(1, self.sigma + 1)

        d1 = self._left[self.sigma + 1 :]
        if self.n and np.any(d1[1:] < d1[:-1]):
            raise ValueError("left-child array must be monotone")
        total_syms = self.sigma + self.n
        # gap-unary bits padded with zeros so every symbol value has a
        # preceding zero; a rule-less grammar stores no bits at all
        bits = np.zeros(self.n + total_syms if self.n else 0, dtype=np.uint8)
        if self.n:
            ones_at = d1 + np.arange(1, self.n + 1) - 1  # 0-based bit positions
            bits[ones_at] = 1
        self.B = BitVector(bits)
        # A's symbols are a view of the right-child column, not a copy
        self.A = LargeAlphabetSequence(self._right[self.sigma + 1 :], bound=total_syms)

        starts = _derive_level_starts(self.sigma, d1, self.u)
        # round k made symbols starts[k] .. starts[k+1] - 1 (round 0: terminals)
        self.height = int(np.searchsorted(starts, self.root, side="right")) - 1
        # rules above the root's round are cut off: they keep length 0 and
        # fail the load checks
        self.level_starts = starts[: self.height + 2]
        self._lengths = _derive_lengths(self.sigma, self._left, self._right, self.level_starts)
        self.level_lens = _derive_level_lens(
            self._left, self._right, self.level_starts, self.height, self.root, self.u
        )

    # -- basic accessors ------------------------------------------------------

    def symbol_length(self, x: int) -> int:
        if not 1 <= x <= self.sigma + self.n:
            raise IndexError(f"symbol {x} out of range")
        return int(self._lengths[x])

    def d1(self, k: int) -> int:
        """Left child of rule k, via select on B."""
        if not 1 <= k <= self.n:
            raise IndexError(f"rule ordinal {k} out of range [1, {self.n}]")
        return self.B.select(1, k) - k

    def d2(self, k: int) -> int:
        """Right child of rule k, via access on A."""
        if not 1 <= k <= self.n:
            raise IndexError(f"rule ordinal {k} out of range [1, {self.n}]")
        return self.A.access(k)

    def level_threshold(self, level: int) -> int:
        if not 1 <= level <= max(self.height, 1):
            raise IndexError(f"level {level} out of range")
        return log_star(self.level_lens[level - 1])

    def level_bound(self, level: int) -> int:
        """Largest symbol id in existence when parsing round ``level`` began."""
        if not 1 <= level <= max(self.height, 1):
            raise IndexError(f"level {level} out of range")
        return int(self.level_starts[level]) - 1

    # -- reverse dictionary simulation -----------------------------------------

    def reverse_lookup(self, lefts, rights):
        """Rule ordinal k with children ``(lefts, rights)``.  Absence is
        normal: for one pair an int, or ``None``; for arrays of pairs
        ``(lefts[t], rights[t])`` an int64 array, 0 where no rule has those
        children."""
        i = np.asarray(lefts, dtype=np.int64)
        j = np.asarray(rights, dtype=np.int64)
        scalar = i.ndim == 0 and j.ndim == 0
        i, j = np.atleast_1d(i, j)
        # ids out of range need no mask: no rule has a left child below 1 or
        # above sigma + n, and a right child out of range is not in A
        d1 = self._left[self.sigma :]  # d1[k]: left child of rule k (k >= 1)
        p = np.searchsorted(d1[1:], i)  # rules with left child i follow rule p
        r = self.A.successor(j, p)  # 0 where absent: then 0 whatever d1[0] is
        out = np.where(d1[r] == i, r, 0)
        return (int(out[0]) or None) if scalar else out

    # -- pattern machinery --------------------------------------------------------

    def _lookup(self, lefts: np.ndarray, rights: np.ndarray, _stats: Optional[dict]) -> np.ndarray:
        """:meth:`reverse_lookup` of a batch, counted in ``_stats`` as one
        of ``lookups`` and ``lefts.size`` of ``lookup_items``."""
        if _stats is not None:
            _stats["lookups"] += 1
            _stats["lookup_items"] += lefts.size
        return self.reverse_lookup(lefts, rights)

    def pattern_evidence(self, pattern: bytes, _stats: Optional[dict] = None) -> Optional[Evidence]:
        """Parse the pattern like the builder would, resolving digrams through
        the reverse-dictionary simulation, and keep boundary symbols raw.
        Each level resolves all its digrams in two batched lookups.

        None means the pattern cannot occur: it uses a byte the text lacks,
        a digram strictly inside the stable region has no rule, or, with no
        stable group at level 1, some byte has no level-1 rule to cover it
        (see :meth:`_level1_covers`).  ``_stats`` receives ``lookups``
        (reverse-lookup batches, those of a parse that finds no rule
        included) and ``lookup_items`` (digrams probed in them).
        """
        m = len(pattern)
        if m == 0:
            raise ValueError("empty pattern")
        if _stats is not None:
            _stats.update(lookups=0, lookup_items=0)
        if m > self.u:
            return None
        ids = self.byte_to_term[np.frombuffer(pattern, dtype=np.uint8)]
        if ids.min(initial=1) == 0:
            return None
        whole = m == self.u  # no outside context exists for the full text
        w = ids
        left_parts: List[np.ndarray] = []
        right_parts: List[np.ndarray] = []
        level = 1
        while w.size > 1 and level <= self.height:
            thr = self.level_threshold(level)
            bound = self.level_bound(level)
            plan = esp.plan_level(w, thr, bound)
            if whole:
                glo, ghi = 0, plan.starts.size
            else:
                glo, ghi = _stable_group_range(plan, esp._label_iterations(bound))
            if glo >= ghi:
                left_parts.append(w)
                w = w[:0]
                break
            starts = plan.starts[glo:ghi]
            sizes = plan.sizes[glo:ghi]
            left_parts.append(w[: starts[0]])
            right_parts.append(w[starts[-1] + sizes[-1] :])
            # one probe for every first-stage digram: the pair of a 2-group,
            # the inner (right) pair of a 3-group; then one for the outer rules
            tri = sizes == 3
            first = starts + tri
            k = self._lookup(w[first], w[first + 1], _stats)
            if not k.all():
                return None
            nxt = self.sigma + k
            if tri.any():
                k = self._lookup(w[starts[tri]], nxt[tri], _stats)
                if not k.all():
                    return None
                nxt[tri] = self.sigma + k
            w = nxt
            level += 1
        syms = np.concatenate(left_parts + [w] + right_parts[::-1])
        runs: List[Tuple[int, int]] = []
        for s in syms.tolist():
            if runs and runs[-1][0] == s:
                runs[-1] = (s, runs[-1][1] + 1)
            else:
                runs.append((s, 1))
        best, best_len, off, core_off = 0, -1, 0, 0
        for idx, (s, r) in enumerate(runs):
            slen = int(self._lengths[s])
            if slen > best_len or (slen == best_len and s < runs[best][0]):
                best, best_len, core_off = idx, slen, off
            off += slen * r
        if off != m:
            raise AssertionError(f"evidence expansion covers {off} of {m} chars")
        core = ((runs[best][0], core_off),)
        if level == 1 and not w.size:  # no stable group: every symbol is a raw terminal
            lift = self._level1_covers(ids, _stats)
            if lift is not None:
                core_off, core = lift
                if not core:
                    return None
                # runs of raw terminals: the run index is the count of changes
                best = int(np.count_nonzero(ids[1 : core_off + 1] != ids[:core_off]))
        return Evidence(
            runs=tuple(runs),
            core_index=best,
            core_pattern_offset=core_off,
            total_length=m,
            core=core,
        )

    def _level1_covers(
        self, ids: np.ndarray, _stats: Optional[dict] = None
    ) -> Optional[Tuple[int, Tuple[Tuple[int, int], ...]]]:
        """Lift one raw terminal of a pattern (terminal ids ``ids``) to the
        level-1 rules that can cover it.

        ESP groups the whole text in twos and threes, so in every occurrence
        the character at 0-based offset k, 1 <= k <= m-3, has a level-1
        parent inside the window.  The node covering it is labeled
        pair(P[k-1], P[k]) from offset k-1, pair(P[k], P[k+1]) from k, or the
        outer rule (P[k], pair(P[k+1], P[k+2])) from k: a 3-group's inner
        node is one of the two pairs.  Rules are unique per digram, so two
        batched lookups give every k its alternatives.

        Returns (k, alternatives) as (symbol, offset) pairs for the k with
        the fewest, ties going to the middle, among positions whose terminal
        differs from both neighbours (a run keeps its chain filter).  An
        empty tuple means some k has no alternative, so the pattern cannot
        occur.  None when no position qualifies.  ``_stats``, when given,
        counts the two lookups as :meth:`pattern_evidence` does.
        """
        m = ids.size
        ks = np.arange(1, m - 2)
        lone = np.flatnonzero((ids[ks] != ids[ks - 1]) & (ids[ks] != ids[ks + 1]))
        if not lone.size:
            return None
        pair = self._lookup(ids[:-1], ids[1:], _stats)  # pair[j]: (P[j], P[j+1])
        inner = pair[ks + 1]
        has = inner > 0
        outer = np.zeros(ks.size, dtype=np.int64)
        outer[has] = self._lookup(ids[ks[has]], self.sigma + inner[has], _stats)
        alts = np.stack((pair[ks - 1], pair[ks], outer))  # rule ordinals, 0: none
        count = np.count_nonzero(alts, axis=0)
        if not count.all():
            return int(ks[count.argmin()]), ()
        # fewer alternatives first; |2k - (m-1)| <= m breaks ties to the middle
        cost = count[lone] * (m + 1) + np.abs(2 * ks[lone] - (m - 1))
        j = int(lone[cost.argmin()])
        k = int(ks[j])
        return k, tuple(
            (self.sigma + int(a), o) for a, o in zip(alts[:, j].tolist(), (k - 1, k, k)) if a
        )

    def _contains_mask(self, q) -> np.ndarray:
        """Symbols whose expansion tree contains a node labeled q, or one of
        the symbols in q (those included).

        No rule of a round before q's own can contain q, so the sweep starts
        at the earliest such round: the round of q's smallest symbol, since
        ids rise round by round.  Within a round, two passes: the first
        settles rules whose children come from earlier rounds, the second the
        outer rules of 3-groups, whose right child is a first-stage rule of
        the same round.
        """
        mask = np.zeros(self.sigma + self.n + 1, dtype=bool)
        mask[q] = True
        first = int(np.searchsorted(self.level_starts, np.min(q), side="right")) - 1
        for lv in range(max(first, 1), self.height + 1):
            lo, hi = int(self.level_starts[lv]), int(self.level_starts[lv + 1])
            seg, l, r = mask[lo:hi], self._left[lo:hi], self._right[lo:hi]
            for _ in range(2):
                seg |= mask[l] | mask[r]
        return mask

    def core_occurrences(self, q) -> np.ndarray:
        """Parse-tree nodes labeled one symbol or any of several.

        For one symbol q: the 1-based start of every node labeled q,
        ascending.  For a sequence of distinct symbols: one (start, t) row
        per node labeled ``q[t]``, ascending by start, then t.  One mask
        sweep and one walk serve every symbol; the walk descends through hit
        nodes too, since one symbol can occur inside another's expansion.
        """
        qs = np.atleast_1d(np.asarray(q, dtype=np.int64))
        if not qs.size or qs.min() < 1 or qs.max() > self.sigma + self.n:
            raise IndexError(f"symbol {q} out of range")
        nq = qs.size
        mask = self._contains_mask(qs)
        found: List[np.ndarray] = []  # start * nq + t of every hit
        targets = list(enumerate(qs.tolist()))
        nodes = np.int64([self.root] if mask[self.root] else [])
        offs = np.int64([1])
        while nodes.size:
            for t, x in targets:
                at = offs[nodes == x]
                if at.size:
                    found.append(at * nq + t)
            l = self._left[nodes]
            r = self._right[nodes]
            lo = offs
            ro = offs + self._lengths[l]
            kl = mask[l]
            kr = mask[r]
            nodes = np.concatenate((l[kl], r[kr]))
            offs = np.concatenate((lo[kl], ro[kr]))
        keys = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
        keys.sort()
        if np.ndim(q) == 0:
            return keys
        return np.stack((keys // nq, keys % nq), axis=1)

    def verify_candidate(self, start: int, pattern: bytes) -> bool:
        """True iff the text window at ``start`` equals the pattern."""
        m = len(pattern)
        if start < 1 or start + m - 1 > self.u:
            raise IndexError(f"window [{start}, {start + m}) out of range")
        return self.extract(start, m) == pattern

    # -- queries ---------------------------------------------------------------

    @staticmethod
    def _chain_lengths(occ: np.ndarray, step: int) -> np.ndarray:
        """For each occurrence, how many occurrences follow it spaced ``step``."""
        ends = np.flatnonzero(np.diff(occ) != step)
        ends = np.concatenate((ends, np.int64([occ.size - 1])))
        grp_end = ends[np.searchsorted(ends, np.arange(occ.size))]
        return grp_end - np.arange(occ.size) + 1

    def _candidates(self, ev: Evidence, m: int) -> Tuple[np.ndarray, int]:
        """Ascending candidate starts (pre-confirmation): the union of
        occurrence - offset over the core's alternatives, and the number of
        occurrences of all alternatives.

        Nodes labeled one symbol never share a start, so one alternative's
        candidates are already strictly increasing; several are merged.
        """
        offs = np.int64([o for _, o in ev.core])
        occ = self.core_occurrences([x for x, _ in ev.core])
        cand = occ[:, 0] - offs[occ[:, 1]]
        q, r = ev.runs[ev.core_index]
        if r > 1:  # the core run's symbol alone: a lifted core's run is one copy
            cand = cand[self._chain_lengths(occ[:, 0], int(self._lengths[q])) >= r]
        if offs.size > 1:
            cand = np.unique(cand)
        return cand[(cand >= 1) & (cand + m - 1 <= self.u)], len(occ)

    def _nodes_at(self, pos: np.ndarray, want_len: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(symbol, start) of the first node no longer than ``want_len[t]`` on
        the root-to-leaf path through 1-based position ``pos[t]``.

        Lengths strictly decrease down a path, so a symbol of length L is a
        tree node starting at p exactly when the node found for (p, L) is
        that symbol and starts at p.
        """
        node = np.full(pos.shape, self.root, dtype=np.int64)
        rem = pos - 1  # offset of pos inside the node reached so far
        act = np.flatnonzero(want_len < self._lengths[self.root])
        x, r, want = node[act], rem[act], want_len[act]
        while act.size:
            l = self._left[x]
            ll = self._lengths[l]
            right = r >= ll
            x = np.where(right, self._right[x], l)
            np.subtract(r, ll, out=r, where=right)
            more = want < self._lengths[x]
            if not more.all():
                done = ~more
                node[act[done]] = x[done]
                rem[act[done]] = r[done]
                act, x, r, want = act[more], x[more], r[more], want[more]
        return node, pos - rem

    def _confirm(
        self, ev: Evidence, cand: np.ndarray, _stats: Optional[dict] = None
    ) -> np.ndarray:
        """The candidates of :meth:`_candidates` at which the text matches the
        pattern whose evidence is ``ev``, in their given order.

        In a true occurrence every evidence symbol is a tree node, and nodes
        covering the window prove it.  The core run's copies are covered by
        construction of the candidates: they are nodes labeled the core
        symbol, or the one lifted copy lies inside a node labeled one of its
        alternatives.  Each copy of every other run is confirmed as a node at
        its offset, longest symbols first, in waves of about
        ``_CONFIRM_BUDGET // candidates`` copies that at least double: one
        wave when candidates times copies fit the budget, and 1, 2, 4, ...
        copies while candidates are many.  ``_stats`` receives ``copies`` and
        ``waves``.
        """
        syms, offs = [], []
        off = 0
        for ri, (sym, mult) in enumerate(ev.runs):
            slen = int(self._lengths[sym])
            if ri != ev.core_index:
                syms += [sym] * mult
                offs += range(off, off + slen * mult, slen)
            off += slen * mult
        lens = self._lengths[syms]
        order = np.argsort(-lens, kind="stable")
        syms, offs, lens = np.int64(syms)[order], np.int64(offs)[order], lens[order]
        lo, width, waves = 0, 0, 0
        while lo < syms.size and cand.size:
            width = max(2 * width, _CONFIRM_BUDGET // cand.size, 1)
            wave = slice(lo, lo + width)
            pos = (cand[:, None] + offs[wave]).ravel()
            node, start = self._nodes_at(pos, np.tile(lens[wave], cand.size))
            hit = (node == np.tile(syms[wave], cand.size)) & (start == pos)
            cand = cand[hit.reshape(cand.size, -1).all(axis=1)]
            lo, waves = lo + width, waves + 1
        if _stats is not None:
            _stats.update(waves=waves, copies=int(syms.size))
        return cand

    def locate(self, pattern: bytes, _stats: Optional[dict] = None) -> List[int]:
        """All 1-based start positions of the pattern, ascending, no duplicates.

        ``_stats`` receives ``lookups`` and ``lookup_items`` (the reverse
        lookups of :meth:`pattern_evidence`), ``occ_c`` (tree occurrences of
        every core alternative), ``candidates`` (after the chain and range
        filters), ``evidence_runs``, ``copies`` (evidence copies outside the
        core run) and ``waves`` (the batched descents of :meth:`_nodes_at`
        that confirmed them).
        """
        if len(pattern) == 0:
            raise ValueError("empty pattern")
        ev = self.pattern_evidence(pattern, _stats)
        if ev is None:
            if _stats is not None:
                _stats.update(occ_c=0, candidates=0, evidence_runs=0, copies=0, waves=0)
            return []
        cand, occ_c = self._candidates(ev, len(pattern))
        if _stats is not None:
            _stats.update(occ_c=occ_c, candidates=int(cand.size), evidence_runs=len(ev.runs))
        return self._confirm(ev, cand, _stats).tolist()

    def count(self, pattern: bytes) -> int:
        """Number of occurrences (the size of locate's answer)."""
        return len(self.locate(pattern))

    def extract(self, i: int, m: int) -> bytes:
        """Text window T[i .. i+m-1] (1-based), reconstructed from the grammar."""
        if m < 0:
            raise IndexError("negative extraction length")
        if m == 0:
            if not 1 <= i <= self.u + 1:
                raise IndexError(f"position {i} out of range")
            return b""
        if i < 1 or i + m - 1 > self.u:
            raise IndexError(f"window [{i}, {i + m}) out of range [1, {self.u}]")
        pieces: List[int] = []
        stack = [(self.root, 1)]
        hi = i + m
        lengths, left, right = self._lengths, self._left, self._right
        while stack:
            x, st = stack.pop()
            en = st + int(lengths[x])
            if en <= i or st >= hi:
                continue
            if st >= i and en <= hi:
                pieces.append(x)
                continue
            l = int(left[x])
            stack.append((int(right[x]), st + int(lengths[l])))
            stack.append((l, st))
        ids = esp._expand_ids(self.sigma, left, right, np.int64(pieces))
        return self.alphabet[ids - 1].tobytes()

    # -- sizes and serialization --------------------------------------------------

    def _d2_width(self) -> int:
        return max(1, (self.sigma + self.n).bit_length())

    def component_bits(self) -> dict:
        """On-disk payload bits of the two stored components."""
        return {"B": self.B.length, "A": self.n * self._d2_width()}

    def resident_bytes(self) -> dict:
        """Bytes held in memory per component.  A buffer shared by two
        components counts once, under the first: ``A``'s symbols are a view of
        the right-child column and count there."""
        parts = {
            "left": [self._left],
            "right": [self._right],
            "lengths": [self._lengths],
            "B": [self.B.words, self.B._block_ones, self.B._block_zeros],
            "A": [self.A.values, self.A._keys],
        }
        seen = set()
        out = {}
        for name, arrays in parts.items():
            out[name] = 0
            for a in arrays:
                while isinstance(a.base, np.ndarray):
                    a = a.base
                if id(a) not in seen:
                    seen.add(id(a))
                    out[name] += a.nbytes
        return out

    def stats(self) -> dict:
        comp = self.component_bits()
        return {
            "u": self.u,
            "sigma": self.sigma,
            "n": self.n,
            "root": self.root,
            "height": self.height,
            "b_bits": comp["B"],
            "a_bits": comp["A"],
        }

    def serialize(self, sink: BinaryIO) -> int:
        """Write the self-describing index file; returns bytes written."""
        buf = io.BytesIO()
        buf.write(MAGIC)
        buf.write(struct.pack("<QQQQ", self.u, self.sigma, self.n, self.root))
        table = np.zeros(256, dtype="<u2")
        table[self.alphabet] = np.arange(1, self.sigma + 1, dtype="<u2")
        buf.write(table.tobytes())
        buf.write(struct.pack("<Q", self.B.length))
        buf.write(self.B.words.astype("<u8").tobytes())
        d2_width = self._d2_width()
        d2_words = pack_ints(self._right[self.sigma + 1 :], d2_width)
        buf.write(struct.pack("<BQ", d2_width, d2_words.size))
        buf.write(d2_words.astype("<u8").tobytes())
        payload = buf.getvalue()
        sink.write(payload)
        sink.write(struct.pack("<Q", crc64(payload)))
        return len(payload) + 8

    def save(self, path: str) -> int:
        with open(path, "wb") as fh:
            return self.serialize(fh)

    @classmethod
    def deserialize(cls, source: Union[BinaryIO, bytes, bytearray]) -> "EspIndex":
        data = source if isinstance(source, (bytes, bytearray)) else source.read()
        data = bytes(data)
        if len(data) < 8:
            raise MagicError("file too short for a magic number")
        if data[:8] != MAGIC:
            if data[:6] == MAGIC[:6]:
                raise VersionError(
                    f"unsupported format version {data[6:8]!r} (this build reads "
                    f"{MAGIC[6:8]!r}); rebuild the index with 'espindex build'"
                )
            raise MagicError(f"bad magic {data[:8]!r}")
        off = 8

        def take(count: int, what: str) -> bytes:
            nonlocal off
            if off + count > len(data):
                raise TruncationError(f"file ends inside {what}")
            chunk = data[off : off + count]
            off += count
            return chunk

        u, sigma, n, root = struct.unpack("<QQQQ", take(32, "header"))
        table = np.frombuffer(take(512, "alphabet map"), dtype="<u2").astype(np.int64)
        (b_bits,) = struct.unpack("<Q", take(8, "bit vector length"))
        b_wordcount = (b_bits + 63) // 64
        b_words = np.frombuffer(take(8 * b_wordcount, "bit vector"), dtype="<u8")
        d2_width, d2_wordcount = struct.unpack("<BQ", take(9, "A header"))
        d2_words = np.frombuffer(take(8 * d2_wordcount, "A payload"), dtype="<u8")
        if len(data) - off < 8:
            raise TruncationError("file ends inside the checksum")
        if len(data) - off > 8:
            raise TruncationError("trailing bytes after the checksum")
        stored_crc = struct.unpack("<Q", data[off:])[0]
        if crc64(data[:off]) != stored_crc:
            raise ChecksumError("checksum mismatch")
        # the encoding is canonical, so a loaded index writes back the bytes
        # it read: B holds sigma + 2n bits (none without rules), A is packed
        # at the width of the largest symbol id, and padding bits are clear.
        # b_bits < 2**64 bounds sigma + n, so the width is at most 64
        if b_bits != (sigma + 2 * n if n else 0):
            raise IndexLoadError("B's bit length is not sigma + 2n")
        if d2_width != max(1, (sigma + n).bit_length()):
            raise IndexLoadError("A's width is not the bit length of sigma + n")
        if (n * d2_width + 63) // 64 != d2_wordcount:
            raise TruncationError("A word count does not match n")
        if d2_wordcount and int(d2_words[-1]) >> (n * d2_width - 64 * (d2_wordcount - 1)):
            raise IndexLoadError("A's padding bits are not clear")

        present = np.flatnonzero(table)
        if present.size != sigma or not np.array_equal(
            np.sort(table[present]), np.arange(1, sigma + 1)
        ):
            raise IndexLoadError("alphabet map is not a permutation of 1..sigma")
        alphabet = present[np.argsort(table[present])].astype(np.uint8)

        bv = BitVector.from_words(b_words, int(b_bits))
        ones_pos = np.flatnonzero(bv.to_array() == 1)
        if ones_pos.size != n:
            raise IndexLoadError("bit vector does not encode n rules")
        d1 = ones_pos + 1 - np.arange(1, n + 1)
        d2 = unpack_ints(d2_words, d2_width, n)
        if n and (
            d1.min() < 1 or d1.max() > sigma + n or d2.min() < 1 or d2.max() > sigma + n
        ):
            raise IndexLoadError("rule references out of range")
        if not 1 <= root <= sigma + n:
            raise IndexLoadError("root symbol out of range")
        if not 1 <= u < 1 << 62:
            raise IndexLoadError("text length out of range")
        total = sigma + n + 1
        left = np.zeros(total, dtype=np.int64)
        right = np.zeros(total, dtype=np.int64)
        left[sigma + 1 :] = d1
        right[sigma + 1 :] = d2
        idx = cls(sigma=sigma, n=n, u=u, root=root, alphabet=alphabet, left=left, right=right)
        if not np.array_equal(idx.B.words, b_words):
            raise IndexLoadError("B's padding bits are not clear")
        # derived lengths are the expansion lengths only if each is at least 1
        # and the sum of its children's: then a child is strictly shorter than
        # its parent, so no rule can reach itself and every expansion ends.
        # With every length at most u < 2**62 the sums cannot overflow.
        lengths = idx._lengths
        rules = slice(sigma + 1, None)
        if (
            lengths[1:].min() < 1
            or lengths[1:].max() > u
            or np.any(lengths[rules] != lengths[left[rules]] + lengths[right[rules]])
        ):
            raise IndexLoadError("rule lengths do not add up to their children's")
        # all rules with one left child are made in one round and numbered
        # by (left, right), so with d1 monotone the keys (d1, d2) strictly
        # increase; a repeated digram would make reverse lookups miss a rule
        if np.any((d1[1:] == d1[:-1]) & (d2[1:] <= d2[:-1])):
            raise IndexLoadError("rule digrams are not strictly increasing")
        if idx.symbol_length(root) != u:
            raise IndexLoadError("root length disagrees with text length")
        return idx

    @classmethod
    def load(cls, path: str) -> "EspIndex":
        with open(path, "rb") as fh:
            return cls.deserialize(fh)


def encode(g: Grammar) -> EspIndex:
    """Build the succinct index from a grammar; the grammar may be discarded."""
    return EspIndex(
        sigma=g.sigma,
        n=g.n,
        u=g.u,
        root=g.root,
        alphabet=g.alphabet,
        left=g.left,
        right=g.right,
    )
