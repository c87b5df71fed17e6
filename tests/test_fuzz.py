"""Structural fuzz of the index file: mutated payloads with a valid checksum.

An index file is untrusted input, and CRC-64 only detects accidents.  Every
mutant here carries a recomputed checksum, so only the structural checks of
``EspIndex.deserialize`` stand between it and the query code.  Each case must
either raise ``IndexLoadError`` or load into an index whose ``extract`` and
``locate`` behave: the right number of bytes, and ascending, duplicate-free,
in-range positions, within a time bound.  The encoding is canonical, so a
loaded mutant also writes back exactly the bytes it was loaded from.

Whether a loaded mutant answers *correctly* is not asserted: a file whose
rules are no longer the ESP parse of its own text can pass every structural
check, and only a re-parse of the grammar catches it.
"""

from __future__ import annotations

import io
import random
import struct
import time
from typing import Tuple

import pytest

from espindex import cli
from espindex.esp import build_grammar
from espindex.index import IndexLoadError, EspIndex, crc64, encode, pack_ints

from conftest import near_duplicates, random_text

CASES_PER_INDEX = 140
SECONDS_PER_CASE = 2.0

# ESPIDX02 layout: magic, then u, sigma, n, root as u64 at these offsets,
# the 512-byte alphabet map, B's bit length and words, then A's width (u8),
# word count (u64) and words, then the checksum
HEADER_U64 = {"u": 8, "sigma": 16, "n": 24, "root": 32}
B_BITS_AT = 552
EDGE_VALUES = (0, 1, 2, 63, 64, 65, 255, 1 << 31, 1 << 32, 1 << 62, 1 << 63, (1 << 64) - 1)


class Layout:
    """One serialized index, its payload without checksum and its field offsets."""

    def __init__(self, idx: EspIndex):
        buf = io.BytesIO()
        idx.serialize(buf)
        self.payload = buf.getvalue()[:-8]
        self.idx = idx
        self.b_words_at = B_BITS_AT + 8
        self.a_header_at = self.b_words_at + 8 * ((idx.B.length + 63) // 64)
        self.a_width = self.payload[self.a_header_at]
        self.a_words_at = self.a_header_at + 9
        assert (len(self.payload) - self.a_words_at) % 8 == 0


def with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<Q", crc64(payload))


def mutate(lay: Layout, rng: random.Random) -> Tuple[bytes, str]:
    """One mutated payload (without checksum) and the name of its mutation."""
    data = bytearray(lay.payload)
    kind = rng.choice(("bit_flip", "header_edge", "word_overwrite", "d2_value", "b_length",
                       "a_width"))
    if kind == "bit_flip":
        for _ in range(rng.randrange(1, 4)):
            bit = rng.randrange(8 * (len(data) - 8)) + 64  # the magic stays
            data[bit >> 3] ^= 1 << (bit & 7)
    elif kind == "header_edge":
        field = rng.choice(("u", "sigma", "n", "root", "b_bits", "a_width", "a_words"))
        value = rng.choice(EDGE_VALUES)
        if field in HEADER_U64:
            old = struct.unpack_from("<Q", data, HEADER_U64[field])[0]
            value = rng.choice((value, old - 1, old + 1)) % (1 << 64)
            struct.pack_into("<Q", data, HEADER_U64[field], value)
        elif field == "b_bits":
            struct.pack_into("<Q", data, B_BITS_AT, value)
        elif field == "a_width":
            data[lay.a_header_at] = value & 0xFF
        else:
            struct.pack_into("<Q", data, lay.a_header_at + 1, value)
    elif kind == "word_overwrite":
        region = rng.choice(((lay.b_words_at, lay.a_header_at), (lay.a_words_at, len(data))))
        at = region[0] + 8 * rng.randrange((region[1] - region[0]) // 8)
        word = rng.choice((0, (1 << 64) - 1, rng.getrandbits(64)))
        struct.pack_into("<Q", data, at, word)
    elif kind == "d2_value":
        idx = lay.idx
        d2 = idx._right[idx.sigma + 1 :].copy()
        d2[rng.randrange(d2.size)] = rng.randrange(1, idx.sigma + idx.n + 1)
        data[lay.a_words_at :] = pack_ints(d2, lay.a_width).astype("<u8").tobytes()
    elif kind == "b_length":
        old = struct.unpack_from("<Q", data, B_BITS_AT)[0]
        struct.pack_into("<Q", data, B_BITS_AT, max(0, old + rng.choice((-64, -2, -1, 1, 2, 64))))
    else:  # a_width, with a word count that matches it so the payload is decoded
        width = rng.choice((1, lay.a_width - 1, lay.a_width + 1, 63, 64))
        words = (lay.idx.n * width + 63) // 64
        body = bytes(data[lay.a_words_at :])
        body = body[: 8 * words].ljust(8 * words, b"\0")
        data[lay.a_header_at :] = struct.pack("<BQ", width, words) + body
    return bytes(data), kind


def check_loaded(idx: EspIndex, rng: random.Random) -> None:
    text = idx.extract(1, idx.u)
    assert len(text) == idx.u
    for _ in range(5):
        m = rng.randrange(1, min(idx.u, 40) + 1)
        st = rng.randrange(idx.u - m + 1)
        hits = idx.locate(text[st : st + m])
        assert hits == sorted(set(hits))
        assert all(1 <= h <= idx.u - m + 1 for h in hits)


@pytest.fixture(scope="module")
def layouts():
    texts = (
        near_duplicates(random.Random(11), 1500),
        random_text(random.Random(12), 1200, b"acgt"),
        b"".join(random.Random(3).choice([b"abcab", b"cabca", b"bbacb"]) for _ in range(120)),
    )
    return [Layout(encode(build_grammar(t))) for t in texts]


def test_mutated_files_load_or_are_refused(layouts, tmp_path):
    rng = random.Random(0xF022)
    refused, loaded, by_kind = [], 0, {}
    for lay in layouts:
        for _ in range(CASES_PER_INDEX):
            payload, kind = mutate(lay, rng)
            data = with_crc(payload)
            by_kind[kind] = by_kind.get(kind, 0) + 1
            t0 = time.process_time()
            try:
                idx = EspIndex.deserialize(data)
            except IndexLoadError:
                refused.append((kind, data))
            else:
                loaded += 1
                again = io.BytesIO()
                idx.serialize(again)
                assert again.getvalue() == data, kind
                check_loaded(idx, rng)
            assert time.process_time() - t0 < SECONDS_PER_CASE, kind
    assert len(by_kind) == 6
    assert loaded > 0 and len(refused) > len(layouts) * CASES_PER_INDEX // 2
    # the CLI reports a refused file as a format error: one case per mutation
    sent = {}
    for kind, data in refused:
        sent.setdefault(kind, data)
    for kind, data in sent.items():
        path = tmp_path / f"{kind}.idx"
        path.write_bytes(data)
        assert cli.main(["count", "-x", str(path), "-q", "ab"]) == 3, kind
