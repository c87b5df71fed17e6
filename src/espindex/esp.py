"""Grammar compression by edit-sensitive parsing.

Each round factorizes the current symbol string into maximal blocks:

* type1: a run ``a^k`` (k >= 2),
* type2: a run-free block of length >= the iterated-log threshold,
* type3: everything else,

then tiles every block with groups of 2 or 3 symbols.  Pairs become one rule
``A -> XY``; triples become two rules ``A -> YZ``, ``B -> XA`` (the inner
pair always groups the last two symbols, so every left child belongs to a
strictly earlier round).  Each round's rules are numbered in sorted
``(left, right)`` order when they are created, which keeps the concatenated
left-child array monotone.  Type2 blocks are tiled around
landmarks chosen by alphabet reduction; landmark decisions depend only on a
bounded window of nearby symbols, which is what makes equal substrings parse
consistently regardless of context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "TYPE1",
    "TYPE2",
    "TYPE3",
    "Block",
    "Grammar",
    "BuildReverseDict",
    "log_star",
    "factorize_types",
    "alphabet_reduction",
    "parse_level",
    "build_grammar",
    "expand",
    "plan_level",
]

TYPE1, TYPE2, TYPE3 = 1, 2, 3

_TOWER = (2, 4, 16, 65536, 1 << 65536)


def log_star(u: int) -> int:
    """Iterated logarithm: least i with the i-fold binary log of u at most 1."""
    if u < 1:
        raise ValueError("log_star requires u >= 1")
    for i, t in enumerate(_TOWER, start=1):
        if u <= t:
            return i
    return len(_TOWER) + 1


@dataclass(frozen=True)
class Block:
    kind: int
    start: int
    end: int  # half-open

    def __len__(self) -> int:
        return self.end - self.start


def _as_symbols(s) -> np.ndarray:
    arr = np.asarray(s, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("symbol string must be one-dimensional")
    return arr


def _factorize_arrays(s: np.ndarray, threshold: int):
    """Maximal blocks as parallel arrays (kinds, starts, ends)."""
    m = s.size
    change = np.flatnonzero(s[1:] != s[:-1]) + 1
    rstart = np.concatenate((np.zeros(1, np.int64), change))
    rend = np.concatenate((change, np.int64([m])))
    single = (rend - rstart) == 1
    # adjacent length-1 runs merge into one run-free stretch
    keep = np.ones(rstart.size, dtype=bool)
    keep[1:] = ~(single[1:] & single[:-1])
    bstart = rstart[keep]
    bend = np.concatenate((bstart[1:], np.int64([m])))
    blen = bend - bstart
    kinds = np.where(
        single[keep],
        np.where(blen >= threshold, TYPE2, TYPE3),
        TYPE1,
    ).astype(np.int64)
    return kinds, bstart, bend


def factorize_types(s, threshold: Optional[int] = None) -> List[Block]:
    """Tile ``s`` with maximal type1/type2/type3 blocks.

    ``threshold`` defaults to ``log_star(len(s))``, the run-free length a
    block needs to count as type2.
    """
    arr = _as_symbols(s)
    if arr.size < 1:
        raise ValueError("cannot factorize an empty string")
    thr = log_star(arr.size) if threshold is None else threshold
    kinds, bs, be = _factorize_arrays(arr, thr)
    return [Block(int(k), int(a), int(b)) for k, a, b in zip(kinds, bs, be)]


# ---------------------------------------------------------------------------
# alphabet reduction and landmarks
# ---------------------------------------------------------------------------


def _label_iterations(alphabet_bound: int) -> int:
    """Rounds of label reduction, fixed by the value bound alone.

    Content-independent scheduling matters: two occurrences of the same
    substring must run the same number of rounds or their landmarks drift.
    """
    t = 0
    cur = max(int(alphabet_bound), 1)
    while True:
        nxt = 2 * (cur.bit_length() - 1) + 1  # largest possible new label
        if nxt >= cur:
            return t
        cur = nxt
        t += 1


# least of 0, 1, 2 differing from both neighbours, indexed by min(neighbour, 3);
# a missing neighbour (-1) reads the last row or column
_NB = np.array([0, 1, 2, 3, -1])
_PICK = np.where((_NB[:, None] != 0) & (_NB != 0), 0,
                 np.where((_NB[:, None] != 1) & (_NB != 1), 1, 2))


def _labels(vals: np.ndarray, inside: np.ndarray, alphabet_bound: int) -> np.ndarray:
    """Ternary labels of the blocks ``inside`` marks, -1 elsewhere.

    A block is a maximal run of True in ``inside``; it must be run-free, and
    two blocks must not touch.  Each round gives position i the label
    2p + bit(p, vals[i]), p the least bit in which vals[i] differs from its
    left neighbour; a block's first position is compared with a sentinel that
    differs in bit 0.  Labels above 2 are then replaced, one value class at a
    time, by the least value in {0,1,2} differing from both neighbours in the
    block (keeps run-freeness).
    """
    fresh = ~(inside & np.concatenate(([False], inside[:-1])))  # block starts, outside
    lab, prev = vals, np.empty_like(vals)
    for _ in range(_label_iterations(alphabet_bound)):
        prev[1:] = lab[:-1]
        x = lab ^ prev
        x[fresh] = 1
        p = np.log2(x & -x).astype(np.int64)  # exact: a power of two
        lab = 2 * p + ((lab >> p) & 1)
    lab = np.concatenate((np.where(inside, lab, -1), [-1]))  # lab[-1] pads both ends
    for v in range(int(lab.max()), 2, -1):
        idx = (lab == v).nonzero()[0]
        lab[idx] = _PICK[np.minimum(lab[idx - 1], 3), np.minimum(lab[idx + 1], 3)]
    return lab[:-1]


def _landmark_rule(a, b, c, d, e):
    """Whether c is a landmark, from the labels a..e at offsets -2..2 (-1:
    outside a block): a local maximum, or a local minimum with no maximum
    next to it.  A block's first symbol never is (a landmark pairs with its
    left neighbour); a block end on the right does not count against it."""
    def peak(left, x, right):
        return (x > left) & (x > right) & (left >= 0)

    dip = (c >= 0) & (c < b) & ((c < d) | (d < 0))
    return peak(b, c, d) | (dip & ~peak(a, b, c) & ~peak(c, d, e))


# the rule tabulated over labels 0, 1, 2 and -1, which reads the last index
_LANDMARK = _landmark_rule(*np.meshgrid(*[np.array([0, 1, 2, -1])] * 5, indexing="ij"))


def _landmarks(vals: np.ndarray, inside: np.ndarray, alphabet_bound: int) -> np.ndarray:
    """Landmarks of the blocks ``inside`` marks (see ``_labels``).

    A block's final gap-2 landmark one short of the block end is shifted
    onto the end so the trailing single never dangles.
    """
    pad = np.concatenate(([-1, -1], _labels(vals, inside, alphabet_bound), [-1, -1]))
    lm = _LANDMARK[pad[:-4], pad[1:-3], pad[2:-2], pad[3:-1], pad[4:]]
    last = (pad[2:-2] >= 0) & (pad[3:-1] < 0)
    # landmarks are never adjacent, so a gap of 2 lies inside one block
    move = lm[:-3] & lm[2:-1] & last[3:]
    lm[2:-1] ^= move
    lm[3:] |= move
    return lm.nonzero()[0]


def alphabet_reduction(block, alphabet_bound: Optional[int] = None) -> np.ndarray:
    """Landmark positions (0-based) of a run-free block of length >= 2.

    ``alphabet_bound`` is the largest symbol value the block may contain; it
    fixes the relabeling schedule and must be supplied consistently when
    landmark agreement across strings matters.
    """
    vals = _as_symbols(block)
    if vals.size < 2:
        raise ValueError("alphabet reduction needs a block of length >= 2")
    if np.any(vals[1:] == vals[:-1]):
        raise ValueError("block is not run-free (adjacent equal symbols)")
    bound = int(vals.max()) if alphabet_bound is None else int(alphabet_bound)
    return _landmarks(vals, np.ones(vals.size, dtype=bool), bound)


# ---------------------------------------------------------------------------
# level plan: blocks -> groups
# ---------------------------------------------------------------------------


@dataclass
class LevelPlan:
    m: int
    starts: np.ndarray  # group start positions
    sizes: np.ndarray  # 2 or 3
    ukind: np.ndarray  # merged block (unit) kinds
    ustart: np.ndarray
    uend: np.ndarray
    uglo: np.ndarray  # unit -> first group index
    ughi: np.ndarray  # unit -> one past last group index
    landmarks: np.ndarray  # sorted landmark positions of all type2 units of length >= 4
    anchors: np.ndarray  # group -> the landmark it was cut for; -1 where none owns it


def _merge_units(kinds, bs, be, m):
    """Absorb length-1 type3 blocks into the neighbouring block (left, or the
    following block when leftmost) so every parsed unit has length >= 2."""
    drop = (kinds == TYPE3) & ((be - bs) == 1)
    keep = ~drop
    ukind = kinds[keep]
    ustart = bs[keep].copy()
    if drop.size and drop[0]:
        ustart[0] = 0
    uend = np.concatenate((ustart[1:], np.int64([m])))
    return ukind, ustart, uend


def plan_level(s, threshold: Optional[int] = None, alphabet_bound: Optional[int] = None) -> LevelPlan:
    """Grouping decisions for one parsing round (no rule creation).

    Units of type1, type3 and type2 blocks shorter than 4 are cut into pairs,
    the last group taking an odd tail.  Type2 blocks of length >= 4 are
    relabelled together in one pass over the string and cut one symbol
    before each landmark; a group is anchored at the landmark it was cut for.
    The plan holds the landmarks and each group's anchor as two columns;
    groups outside type2 blocks of length >= 4 have anchor -1.
    """
    arr = _as_symbols(s)
    m = arr.size
    if m < 2:
        raise ValueError("a parsing round needs at least 2 symbols")
    thr = log_star(m) if threshold is None else int(threshold)
    bound = int(arr.max()) if alphabet_bound is None else int(alphabet_bound)
    kinds, bs, be = _factorize_arrays(arr, thr)
    ukind, ustart, uend = _merge_units(kinds, bs, be, m)
    ulen = uend - ustart
    big = (ukind == TYPE2) & (ulen >= 4)
    in_big = np.repeat(big, ulen)  # a run always separates two type2 blocks

    lms = _landmarks(arr, in_big, bound)
    # plain units: a cut at every second symbol, an odd tail joining the last pair
    cut = ~in_big & ((np.arange(m) - np.repeat(ustart, ulen)) % 2 == 0)
    cut[uend[~big] - 1] = False
    cut[ustart] = True
    cut[lms - 1] = True
    anchor = np.full(m, -1, dtype=np.int64)
    anchor[lms - 1] = lms
    # a block whose first landmark is its third symbol leads with a single:
    # it joins a following pair as a triple; a following triple is
    # rebalanced to 2 + 2 (1 + 3 would make a 4-wide group), both unanchored
    head = ustart[big]
    head = head[(anchor[head] < 0) & (anchor[head + 1] >= 0)]
    cut[head + 1] = False
    pair = cut[head + 3]
    anchor[head[pair]] = head[pair] + 2
    cut[head[~pair] + 2] = True

    starts = cut.nonzero()[0]
    sizes = np.concatenate((starts[1:], [m])) - starts
    if sizes.min() < 2 or sizes.max() > 3:  # a landmark-spacing bug
        bad = ((sizes < 2) | (sizes > 3)).argmax()
        raise AssertionError(f"bad type2 tiling: group at {starts[bad]} has size {sizes[bad]}")
    uglo = np.searchsorted(starts, ustart)
    ughi = np.concatenate((uglo[1:], [starts.size]))

    return LevelPlan(
        m=m,
        starts=starts,
        sizes=sizes,
        ukind=ukind,
        ustart=ustart,
        uend=uend,
        uglo=uglo,
        ughi=ughi,
        landmarks=lms,
        anchors=anchor[starts],
    )


# ---------------------------------------------------------------------------
# rule creation
# ---------------------------------------------------------------------------


class BuildReverseDict:
    """Digram -> symbol map used during construction and discarded afterward."""

    def __init__(self, first_id: int):
        self.map: Dict[Tuple[int, int], int] = {}
        self.first_id = first_id
        self.lefts: List[int] = []
        self.rights: List[int] = []

    def lookup(self, x: int, y: int) -> Optional[int]:
        return self.map.get((x, y))

    def lookup_or_create(self, x: int, y: int) -> int:
        z = self.map.get((x, y))
        if z is None:
            z = self.first_id + len(self.lefts)
            self.map[(x, y)] = z
            self.lefts.append(x)
            self.rights.append(y)
        return z

    def __len__(self) -> int:
        return len(self.lefts)


def parse_level(s, rdict: BuildReverseDict, threshold: Optional[int] = None,
                alphabet_bound: Optional[int] = None) -> np.ndarray:
    """One parsing round: replace each 2/3-symbol group by a variable.

    Reference implementation; creates rules through ``rdict`` in left-to-right
    group order.  Triples always produce ``A -> last two`` then ``B -> first,
    A``.
    """
    arr = _as_symbols(s)
    if arr.size < 2:
        raise ValueError("parse_level needs at least 2 symbols")
    plan = plan_level(arr, threshold, alphabet_bound)
    out = np.empty(plan.starts.size, dtype=np.int64)
    for gi in range(plan.starts.size):
        st = int(plan.starts[gi])
        if plan.sizes[gi] == 2:
            out[gi] = rdict.lookup_or_create(int(arr[st]), int(arr[st + 1]))
        else:
            inner = rdict.lookup_or_create(int(arr[st + 1]), int(arr[st + 2]))
            out[gi] = rdict.lookup_or_create(int(arr[st]), inner)
    return out


def _rename_level(lefts: np.ndarray, rights: np.ndarray, base_id: int, prev_max: int):
    """Reference renaming of one round's rules from creation order to the
    monotone numbering ``build_grammar`` gives them directly.

    Rules are ordered by (left child, right child); right children that
    reference this round's own rules (inner pairs of triples) compare by the
    referenced rule's rank, which always exceeds any lower-round symbol.
    Returns (perm, pi): ``perm[k]`` is the creation slot placed k-th;
    ``pi[slot]`` is the slot's final rank.
    """
    count = lefts.size
    inner = rights > prev_max
    a_idx = np.flatnonzero(~inner)
    slot_rank = np.full(count, -1, dtype=np.int64)
    a_ord = np.lexsort((rights[a_idx], lefts[a_idx]))
    slot_rank[a_idx[a_ord]] = np.arange(a_idx.size)
    d2res = rights.copy()
    if inner.any():
        ref = rights[inner] - base_id
        if np.any(slot_rank[ref] < 0):
            raise AssertionError("inner reference does not point at a first-stage rule")
        d2res[inner] = prev_max + 1 + slot_rank[ref]
    perm = np.lexsort((d2res, lefts))
    pi = np.empty(count, dtype=np.int64)
    pi[perm] = np.arange(count)
    return perm, pi


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


@dataclass
class Grammar:
    """Binary grammar from edit-sensitive parsing.

    Arrays are indexed by symbol id: 0 is reserved, terminals occupy
    [1, sigma], variables [sigma+1, sigma+n].  ``left``/``right`` are 0 for
    terminals; ``lengths[x]`` is the length of the string x derives;
    ``level_of[x]`` the parsing round that created x (0 for terminals).
    """

    sigma: int
    alphabet: np.ndarray  # byte value of each terminal, ascending
    left: np.ndarray
    right: np.ndarray
    lengths: np.ndarray
    level_of: np.ndarray
    root: int
    level_lens: List[int]  # input string length of each parsing round

    @property
    def n(self) -> int:
        return self.left.size - self.sigma - 1

    @property
    def u(self) -> int:
        return int(self.lengths[self.root])

    @property
    def height(self) -> int:
        return int(self.level_of[self.root])

    @property
    def d1(self) -> np.ndarray:
        return self.left[self.sigma + 1 :]

    @property
    def d2(self) -> np.ndarray:
        return self.right[self.sigma + 1 :]

    def level_alphabet_bound(self, level: int) -> int:
        """Largest symbol id in existence when the given round started."""
        if not 1 <= level <= max(self.height, 1):
            raise IndexError(f"level {level} out of range")
        counts = np.bincount(self.level_of[self.sigma + 1 :], minlength=level)
        return self.sigma + int(counts[1:level].sum())

    def level_threshold(self, level: int) -> int:
        return log_star(self.level_lens[level - 1])

    def validate(self) -> None:
        """Structural invariants; raises AssertionError on violation."""
        n, sigma = self.n, self.sigma
        assert self.left.size == self.right.size == self.lengths.size == sigma + n + 1
        assert np.all(self.lengths[1 : sigma + 1] == 1)
        d1, d2 = self.d1, self.d2
        if n:
            assert np.all(d1 >= 1) and np.all(d2 >= 1)
            assert np.all(d1[:-1] <= d1[1:]), "left-child array is not monotone"
            ids = np.arange(sigma + 1, sigma + n + 1)
            assert np.all(self.lengths[ids] == self.lengths[d1] + self.lengths[d2])
            digrams = set(zip(d1.tolist(), d2.tolist()))
            assert len(digrams) == n, "duplicate digram"
        if self.level_lens:
            assert self.lengths[self.root] == self.level_lens[0]


def expand(g: Grammar, x: int) -> bytes:
    """The string derived from symbol ``x``, as bytes."""
    if not 1 <= x <= g.sigma + g.n:
        raise IndexError(f"symbol {x} out of range")
    ids = _expand_ids(g.sigma, g.left, g.right, np.int64([x]))
    return g.alphabet[ids - 1].tobytes()


def _expand_ids(sigma: int, left: np.ndarray, right: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Terminal ids of the concatenated expansions of symbols ``xs`` under
    child arrays ``left`` and ``right``, one whole layer of variables per pass."""
    cur = xs
    while True:
        var = cur > sigma
        if not var.any():
            return cur
        counts = var.astype(np.int64) + 1
        out = np.empty(int(counts.sum()), dtype=np.int64)
        pos = np.cumsum(counts) - counts
        out[pos] = np.where(var, left[cur], cur)
        out[pos[var] + 1] = right[cur[var]]
        cur = out


def build_grammar(data: bytes, reference: bool = False,
                  record_levels: Optional[List[np.ndarray]] = None) -> Grammar:
    """Parse ``data`` to a single root symbol.

    Each round's rules get their final ids at once: one sort ranks the
    first-stage digrams (pairs, and the last two symbols of triples), and a
    second numbers them together with the outer rules of triples in sorted
    ``(left, right)`` order.  ``reference=True`` is the oracle for that
    numbering: it creates rules through an associative map in left-to-right
    order and renames them afterwards; both produce identical grammars.
    ``record_levels``, when given a list, receives a copy of every
    intermediate symbol string (diagnostics and tests).
    """
    if len(data) == 0:
        raise ValueError("cannot index an empty text")
    raw = np.frombuffer(data, dtype=np.uint8)
    alphabet = np.unique(raw)
    sigma = int(alphabet.size)
    table = np.zeros(256, dtype=np.int64)
    table[alphabet] = np.arange(1, sigma + 1)
    s = table[raw]

    left_parts: List[np.ndarray] = []
    right_parts: List[np.ndarray] = []
    level_parts: List[np.ndarray] = []
    lengths = np.ones(sigma + 1, dtype=np.int64)
    lengths[0] = 0
    level_lens: List[int] = []
    next_base = sigma + 1
    level = 0

    while s.size > 1:
        level += 1
        level_lens.append(int(s.size))
        if record_levels is not None:
            record_levels.append(s.copy())
        thr = log_star(s.size)
        bound = next_base - 1
        if reference:
            rd = BuildReverseDict(next_base)
            out = parse_level(s, rd, thr, bound)
            lefts = np.asarray(rd.lefts, dtype=np.int64)
            rights = np.asarray(rd.rights, dtype=np.int64)
            perm, pi = _rename_level(lefts, rights, next_base, next_base - 1)
            own = rights >= next_base
            rights[own] = next_base + pi[rights[own] - next_base]
            lefts, rights, s = lefts[perm], rights[perm], next_base + pi[out - next_base]
        else:
            plan = plan_level(s, thr, bound)
            st, tri = plan.starts, plan.sizes == 3
            first = s[st]
            # first-stage digrams (a pair, or a triple's last two symbols) ranked
            fkeys, rank = np.unique((np.where(tri, s[st + 1], first) << 32) | s[st + plan.sizes - 1],
                                    return_inverse=True)
            # an outer key (X, next_base + rank) sorts after every first-stage
            # key with left child X, so one more sort numbers the whole round
            keys, ids = np.unique(np.concatenate((fkeys, (first[tri] << 32) | (next_base + rank[tri]))),
                                  return_inverse=True)
            ids += next_base
            lefts, rights = keys >> 32, keys & 0xFFFFFFFF
            own = rights >= next_base
            rights[own] = ids[rights[own] - next_base]
            s = ids[rank]
            s[tri] = ids[fkeys.size:]
        count = lefts.size
        inner = rights >= next_base
        # same-round right children are first-stage rules, whose lengths the
        # first line completes; lengths[0] == 0 masks them out of it
        new_len = lengths[lefts] + lengths[np.where(inner, 0, rights)]
        new_len[inner] += new_len[rights[inner] - next_base]
        lengths = np.concatenate((lengths, new_len))
        left_parts.append(lefts)
        right_parts.append(rights)
        level_parts.append(np.full(count, level, dtype=np.int64))
        next_base += count

    if record_levels is not None:
        record_levels.append(s.copy())
    root = int(s[0])
    n = next_base - sigma - 1
    zero = np.zeros(sigma + 1, dtype=np.int64)
    g = Grammar(
        sigma=sigma,
        alphabet=alphabet,
        left=np.concatenate([zero] + left_parts) if n else zero.copy(),
        right=np.concatenate([zero] + right_parts) if n else zero.copy(),
        lengths=lengths,
        level_of=np.concatenate([zero] + level_parts) if n else zero.copy(),
        root=root,
        level_lens=level_lens if level_lens else [1],
    )
    return g
