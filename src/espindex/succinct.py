"""Rank/select dictionaries: plain bit vectors and integer sequences over large alphabets.

Position conventions (used consistently by the whole package):

* ``BitVector.rank(c, i)`` counts symbol ``c`` in the inclusive 0-based prefix
  ``B[0..i]``.
* ``BitVector.select(c, k)`` returns the 1-based position of the k-th ``c``.
* ``LargeAlphabetSequence.rank(c, i)`` counts ``c`` among the first ``i``
  symbols (``i`` may be 0); ``access``/``select`` are 1-based.  Its rank and
  select are one ``searchsorted`` each on a sorted array of
  ``(symbol << shift) | position`` keys (rank takes the difference of two),
  and ``successor(c, i)``, which is ``select(c, rank(c, i) + 1)``, is one.

``select`` or ``successor`` past the last occurrence is a normal outcome,
not an error: the reverse-dictionary simulation in the index depends on it.

One method serves each rank, select and successor, for one query or many.
The position, prefix or ordinal argument is an integer or a one-dimensional
integer array; a sequence's symbol argument is one symbol or an array of the
same length.  A scalar query runs as a batch of one and gives an int, or
``None`` for a select or successor past the last occurrence.  An array query
gives an int64 array, with 0 in that case (never a 1-based position).  An
ordinal below 1 or a rank or successor prefix out of range raises
``IndexError`` for the whole batch.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

__all__ = ["BitVector", "LargeAlphabetSequence"]

_WORDS_PER_BLOCK = 16  # rank directory granularity: one counter per 1024 bits
_BLOCK_SHIFT = _WORDS_PER_BLOCK.bit_length() - 1
_BLOCK_WORDS = np.arange(_WORDS_PER_BLOCK, dtype=np.int64)
# prefix sums over a block's word popcounts as one product with an upper
# triangle of ones; float32 is exact for counts up to 2**24
_PREFIX_SUM = np.triu(np.ones((_WORDS_PER_BLOCK, _WORDS_PER_BLOCK), dtype=np.float32))
# _LOW_BYTES[b]: mask of bytes 0..b of a word
_LOW_BYTES = np.array([(1 << (8 * (b + 1))) - 1 for b in range(8)], dtype=np.uint64)


def _select_in_byte_table() -> np.ndarray:
    """``table[b, r]``: offset of the (r+1)-th set bit of byte ``b`` (8 if none)."""
    table = np.full((256, 8), 8, dtype=np.int64)
    for b in range(256):
        ones = [bit for bit in range(8) if b >> bit & 1]
        table[b, : len(ones)] = ones
    return table


_SELECT_IN_BYTE = _select_in_byte_table()


def _to_bit_array(bits: Union[np.ndarray, Iterable[int], str]) -> np.ndarray:
    if isinstance(bits, str):
        bits = [int(ch) for ch in bits]
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


def _check_bit(c: int) -> None:
    if c not in (0, 1):
        raise ValueError("bit symbol must be 0 or 1")


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).astype(np.int64)


class BitVector:
    """Immutable bit string with directory-assisted rank and select.

    The payload is packed into 64-bit words (LSB-first within a word).  Two
    directories, ``_block_ones`` and ``_block_zeros``, hold the count of ones
    and of zeros before each block of ``_WORDS_PER_BLOCK`` (16) words, plus a
    final total.  rank adds the popcounts of the block's words before the
    position to the block's entry; select binary-searches the directory of
    its bit, takes a popcount prefix sum over the block's words to find the
    word, and finds the bit through a per-byte table.  Together the two
    directories cost 12.5% of the payload.
    """

    __slots__ = ("words", "length", "ones", "_blocks", "_block_ones", "_block_zeros")

    def __init__(self, bits: Union[np.ndarray, Iterable[int], str]):
        arr = _to_bit_array(bits)
        self.length = int(arr.size)
        nwords = (self.length + 63) // 64
        padded = np.zeros(nwords * 64, dtype=np.uint8)
        padded[: self.length] = arr
        self._build(np.packbits(padded.reshape(-1, 8)[:, ::-1]).view(np.uint64))

    @classmethod
    def from_words(cls, words: np.ndarray, length: int) -> "BitVector":
        bv = object.__new__(cls)
        bv.length = int(length)
        words = np.asarray(words, dtype=np.uint64)
        if words.size != (bv.length + 63) // 64:
            raise ValueError("word count does not match bit length")
        bv._build(words)
        return bv

    def _build(self, words: np.ndarray) -> None:
        # one copy, zero-padded to whole blocks, with bits past the length
        # cleared; ``words`` and ``_blocks`` (one row per block) are views of it
        nblocks = (words.size + _WORDS_PER_BLOCK - 1) // _WORDS_PER_BLOCK
        padded = np.zeros(nblocks * _WORDS_PER_BLOCK, dtype=np.uint64)
        padded[: words.size] = words
        if self.length % 64:
            padded[words.size - 1] &= np.uint64((1 << (self.length % 64)) - 1)
        self.words = padded[: words.size]
        self._blocks = padded.reshape(nblocks, _WORDS_PER_BLOCK)
        counts = np.bitwise_count(self.words).astype(np.uint64)
        per_block = np.zeros(nblocks, dtype=np.uint64)
        if counts.size:
            sums = np.add.reduceat(counts, np.arange(0, counts.size, _WORDS_PER_BLOCK))
            per_block[: sums.size] = sums
        # _block_ones[b] = ones strictly before block b; one extra entry = total
        self._block_ones = np.zeros(nblocks + 1, dtype=np.int64)
        np.cumsum(per_block, out=self._block_ones[1:])
        self.ones = int(self._block_ones[-1])
        bits_per_block = 64 * _WORDS_PER_BLOCK
        block_starts = np.arange(nblocks + 1, dtype=np.int64) * bits_per_block
        np.minimum(block_starts, self.length, out=block_starts)
        self._block_zeros = block_starts - self._block_ones

    @property
    def zeros(self) -> int:
        return self.length - self.ones

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range [0, {self.length})")
        return int((int(self.words[i >> 6]) >> (i & 63)) & 1)

    def rank(self, c: int, i):
        """Occurrences of bit ``c`` in the inclusive prefix ``B[0..i]``; an
        int for one position, an int64 array for an array of positions."""
        _check_bit(c)
        pos = np.asarray(i, dtype=np.int64)
        end = np.atleast_1d(pos) + 1  # exclusive prefix end
        if end.size and (end.min() < 1 or end.max() > self.length):
            raise IndexError(f"rank position out of range [0, {self.length})")
        word = end >> 6
        block = word >> _BLOCK_SHIFT
        # a prefix ending on the last block boundary adds no word of the
        # block past the end
        inblock = _popcount(self._blocks[np.minimum(block, self._blocks.shape[0] - 1)])
        before = _BLOCK_WORDS < (word - (block << _BLOCK_SHIFT))[:, None]
        ones = self._block_ones[block] + (inblock * before).sum(axis=1)
        mask = (np.uint64(1) << (end & 63).astype(np.uint64)) - np.uint64(1)
        ones += _popcount(self.words[np.minimum(word, self.words.size - 1)] & mask)
        out = ones if c == 1 else end - ones
        return int(out[0]) if pos.ndim == 0 else out

    def select(self, c: int, k):
        """1-based position of the k-th ``c``.  For one ordinal an int, or
        ``None`` if fewer than k exist; for an array of ordinals an int64
        array, 0 where fewer than k exist."""
        _check_bit(c)
        ordinal = np.asarray(k, dtype=np.int64)
        ks = np.atleast_1d(ordinal)
        if ks.size and ks.min() < 1:
            raise IndexError("select ordinals must be >= 1")
        out = np.zeros(ks.shape, dtype=np.int64)
        found = ks <= (self.ones if c == 1 else self.zeros)
        k = ks[found]
        if not k.size:
            return None if ordinal.ndim == 0 else out
        dir_ = self._block_ones if c == 1 else self._block_zeros
        block = np.searchsorted(dir_, k, side="left") - 1
        rest = k - dir_[block]  # ordinal within the block
        words = self._blocks[block]
        if c == 0:
            # complemented, the zero padding past the length adds zeros after
            # every real one, and k never exceeds the real count
            words = ~words
        cum = np.bitwise_count(words).astype(np.float32) @ _PREFIX_SUM
        w = np.argmax(cum >= rest[:, None], axis=1)
        rows = np.arange(k.size)
        word = words[rows, w]
        rest -= cum[rows, w].astype(np.int64) - _popcount(word)  # ordinal within the word
        low = _popcount(word[:, None] & _LOW_BYTES)
        b = np.argmax(low >= rest[:, None], axis=1)
        byte = (word >> (b << 3).astype(np.uint64)) & np.uint64(0xFF)
        rest -= low[rows, b] - _popcount(byte)  # ordinal within the byte
        bit = _SELECT_IN_BYTE[byte.astype(np.intp), rest - 1]
        out[found] = ((((block << _BLOCK_SHIFT) + w) << 6) | (b << 3)) + bit + 1
        return int(out[0]) if ordinal.ndim == 0 else out  # a scalar here was found

    def to_array(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return bits[: self.length]

    def directory_overhead(self) -> float:
        """Auxiliary directory bits relative to the payload (diagnostic)."""
        if self.length == 0:
            return 0.0
        aux = (self._block_ones.size + self._block_zeros.size) * 64
        return aux / self.length


class LargeAlphabetSequence:
    """access/rank/select over an integer sequence with symbols in ``[1, bound]``.

    Backed by the symbol array plus one sorted key array: ``_keys`` holds
    ``(symbol << shift) | position`` for every 0-based position, with
    ``shift = n.bit_length()``, so the keys group the positions by symbol,
    ascending within each group.  A probe ``(c, i)`` fits for any prefix
    ``i`` in ``[0, n]`` and any ``c`` up to ``bound + 1``, the symbol that
    stands in for one out of range.  rank is the distance between the ``searchsorted``
    of ``(c, i)`` and of ``(c, 0)``; select is one ``searchsorted`` of
    ``(c, 0)`` plus a gather and a symbol check, and successor the same
    with ``(c, i)``; access reads the symbol array.  The keys are uint32
    when ``(bound + 1).bit_length() + shift`` is at most 32 bits and uint64
    otherwise, and every probe is built in that dtype, so no call converts
    the key array.  The symbol array is the
    caller's, not a copy, when it is already an int64 array (the index
    passes a view of its right-child column).
    """

    __slots__ = ("values", "n", "bound", "_shift", "_span", "_past", "_keys")

    def __init__(self, values: Union[np.ndarray, Iterable[int]], bound: Optional[int] = None):
        vals = np.asarray(values, dtype=np.int64)
        if vals.ndim != 1:
            raise ValueError("sequence must be one-dimensional")
        self.n = int(vals.size)
        if self.n and int(vals.min()) < 1:
            raise ValueError("symbols must be >= 1")
        top = int(vals.max()) if self.n else 0
        self.bound = int(bound) if bound is not None else top
        if top > self.bound:
            raise ValueError(f"symbol {top} exceeds alphabet bound {self.bound}")
        self.values = vals
        shift = self.n.bit_length()
        bits = (self.bound + 1).bit_length() + shift
        if bits > 64:
            raise ValueError(f"{self.n} positions and symbols up to {self.bound} exceed 64 bits")
        dtype = np.uint32 if bits <= 32 else np.uint64
        self._shift = dtype(shift)
        self._span = dtype(1 << shift)  # one symbol's range of keys
        self._past = np.uint64(self.bound + 1)
        self._keys = (vals.astype(dtype) << self._shift) | np.arange(self.n, dtype=dtype)
        self._keys.sort()

    def __len__(self) -> int:
        return self.n

    def access(self, i: int) -> int:
        """Symbol at 1-based position ``i``."""
        if not 1 <= i <= self.n:
            raise IndexError(f"access position {i} out of range [1, {self.n}]")
        return int(self.values[i - 1])

    def _heads(self, symbols) -> np.ndarray:
        """Probe keys ``(c, 0)`` in the keys' dtype.  A symbol outside
        ``[1, bound]`` is probed as 0 or as ``bound + 1``, which no key
        carries (a negative one wraps past the bound as unsigned)."""
        c = np.asarray(symbols, dtype=np.int64).view(np.uint64)
        return np.minimum(c, self._past).astype(self._keys.dtype, copy=False) << self._shift

    def _probe(self, symbols, prefixes):
        """Heads ``(c, 0)`` and the index of the first key at or after
        ``(c, i)`` for each symbol and prefix (a prefix in [0, n])."""
        i = np.asarray(prefixes, dtype=np.int64)
        if i.size and i.view(np.uint64).max() > self.n:  # a negative one wraps past n
            raise IndexError(f"prefix out of range [0, {self.n}]")
        head = self._heads(symbols)
        return head, np.searchsorted(self._keys, head | i.astype(head.dtype))

    def _position(self, head, at):
        """1-based position of the key at index ``at`` if it carries the
        symbol of ``head``, else 0 (``None`` for one scalar query).  The key
        carries it when its xor with the head, its position, is below one
        span."""
        pos = self._keys[np.minimum(at, self.n - 1)] ^ head if self.n else head
        found = (at < self.n) & (pos < self._span)
        out = np.where(found, pos.astype(np.int64) + 1, 0)
        return (int(out) or None) if out.ndim == 0 else out

    def rank(self, symbols, prefixes):
        """Occurrences of each symbol among the first ``prefixes`` symbols
        (a prefix in [0, n]).  An int when both are scalars, else an int64
        array."""
        head, at = self._probe(symbols, prefixes)
        out = at - np.searchsorted(self._keys, head)
        return int(out) if out.ndim == 0 else out

    def select(self, symbols, ordinals):
        """1-based position of the k-th occurrence of each symbol, for k in
        ``ordinals``.  When both are scalars an int, or ``None`` if fewer
        than k exist; else an int64 array, 0 where fewer than k exist."""
        k = np.asarray(ordinals, dtype=np.int64)
        if k.size and k.min() < 1:
            raise IndexError("select ordinals must be >= 1")
        head = self._heads(symbols)
        # the key k - 1 places past the symbol's head is its k-th occurrence
        return self._position(head, np.searchsorted(self._keys, head) + (k - 1))

    def successor(self, symbols, prefixes):
        """1-based position of the first occurrence of each symbol after the
        first ``prefixes`` symbols, ``select(c, rank(c, i) + 1)``, in one
        ``searchsorted``: the first key at or after ``(c, i)``.  Scalars and
        absence as in :meth:`select`; a prefix outside [0, n] raises
        ``IndexError`` as in :meth:`rank`."""
        return self._position(*self._probe(symbols, prefixes))

    def count(self, c: int) -> int:
        return self.rank(c, self.n)
