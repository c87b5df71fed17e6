"""Seeded workload generators: texts, pattern sets, extract windows, CLI calls.

Everything here is a pure function of (workload name, seed): the same seed
gives byte-identical outputs, a different seed gives different ones.  The
program under test only ever sees the generated bytes and files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

EXTRACT_LENGTH = 1024  # 4 KiB windows straddle a cost cliff in extract; see README


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; chosen so a run fits the benchmark's time box."""

    text_bytes: int
    patterns_per_length: Dict[int, int]
    extract_windows: int
    cli_calls: int
    cli_length: int  # pattern length used for the CLI calls
    load_calls: int  # EspIndex.load calls per round


@dataclass
class Workload:
    name: str
    seed: int
    text: bytes
    patterns: Dict[int, List[bytes]]  # |P| -> patterns sampled from the text
    windows: List[int]  # 0-based starts of EXTRACT_LENGTH windows
    cli_patterns: List[bytes]
    load_calls: int


def versions_text(rng: random.Random, size: int) -> bytes:
    """Three near-copies of one random-byte seed, 0.1% point mutations each
    (the scaled-performance generator of the acceptance battery)."""
    base = rng.randbytes(size // 3)
    parts = []
    for _ in range(3):
        buf = bytearray(base)
        for _ in range(len(buf) // 1000):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        parts.append(bytes(buf))
    return b"".join(parts)


def genome_text(rng: random.Random, size: int, base_len: int = 20_000) -> bytes:
    """Mutated copies of one short acgt base, 0.5% substitutions per copy."""
    base = bytes(rng.choices(b"acgt", k=base_len))
    parts = []
    total = 0
    while total < size:
        buf = bytearray(base)
        for _ in range(base_len // 200):
            buf[rng.randrange(base_len)] = rng.choice(b"acgt")
        parts.append(bytes(buf))
        total += base_len
    return b"".join(parts)[:size]


_LEVELS = ("INFO ", "INFO ", "INFO ", "DEBUG", "WARN ", "ERROR")
_PATHS = ("/api/v1/items", "/api/v1/users", "/api/v2/orders", "/health", "/static/app.js")
_STATUS = ("200", "200", "200", "201", "204", "304", "404", "500")


def logs_text(rng: random.Random, size: int) -> bytes:
    """Templated log lines: counters, hex ids, space and dash padding."""
    lines = []
    total = 0
    ts = 1_700_000_000_000 + rng.randrange(10**9)
    req = rng.randrange(10**6)
    users = ["%08x" % rng.getrandbits(32) for _ in range(64)]
    while total < size:
        ts += rng.randrange(1, 250)
        req += 1
        level = rng.choice(_LEVELS)
        worker = rng.randrange(16)
        lat = rng.randrange(1, 5000)
        line = (
            f"{ts // 1000}.{ts % 1000:03d} {level} [worker-{worker:02d}] "
            f"req={req:08d} user={rng.choice(users)} "
            f"{rng.choice(_PATHS):<16} status={rng.choice(_STATUS)} "
            f"latency={lat:>5}ms {'-' * rng.randrange(0, 12)}\n"
        )
        lines.append(line)
        total += len(line)
    return "".join(lines).encode("ascii")[:size]


GENERATORS = {"versions": versions_text, "genome": genome_text, "logs": logs_text}

# Texts are scaled, and operation counts sized, so that one round of every
# operation takes 9-16 s on a 2-vCPU machine, two or three rounds fill a 30 s
# run, and a whole run fits the benchmark's time box.
# The per-pattern costs spread widely (genome |P|=10: 5 to 90 ms, by the
# length of the core symbol and the number of evidence runs), so much of the
# run-to-run variation of a class's median comes from which patterns a seed
# draws, and the counts are as large as the time box allows.  logs' CLI calls
# use |P|=10 so that they print hundreds to thousands of positions; the others
# use |P|=100, which keeps the CLI figure about per-call costs (start-up,
# load, output) rather than search.  The load counts give each workload 1 to
# 1.6 s of loads per round (a load takes about 0.2, 0.016 and 0.05 s).
SPECS = {
    "versions": Spec(600_000, {10: 120, 100: 150, 1000: 50}, 400, 3, 100, 8),
    "genome": Spec(200_000, {10: 160, 100: 200, 1000: 60}, 400, 3, 100, 60),
    "logs": Spec(300_000, {10: 130, 100: 150, 1000: 50}, 400, 3, 10, 30),
}


def _sample(rng: random.Random, text: bytes, length: int, count: int) -> List[bytes]:
    return [text[s : s + length] for s in (rng.randrange(len(text) - length + 1) for _ in range(count))]


def make(name: str, seed: int, spec: Optional[Spec] = None) -> Workload:
    """The workload's text, patterns, windows and CLI patterns for ``seed``."""
    if name not in GENERATORS:
        raise KeyError(f"unknown workload {name!r}")
    spec = spec or SPECS[name]
    # one stream per role, so resizing one role leaves the others unchanged
    text = GENERATORS[name](random.Random(f"{name}/{seed}/text"), spec.text_bytes)
    patterns = {
        m: _sample(random.Random(f"{name}/{seed}/patterns/{m}"), text, m, k)
        for m, k in spec.patterns_per_length.items()
    }
    wrng = random.Random(f"{name}/{seed}/windows")
    windows = [wrng.randrange(len(text) - EXTRACT_LENGTH + 1) for _ in range(spec.extract_windows)]
    cli_patterns = _sample(random.Random(f"{name}/{seed}/cli"), text, spec.cli_length, spec.cli_calls)
    return Workload(name, seed, text, patterns, windows, cli_patterns, spec.load_calls)


def fingerprint(w: Workload) -> Tuple[str, str, str]:
    """Hashes of text, patterns and windows (determinism checks)."""
    h_pat = hashlib.sha256()
    for m in sorted(w.patterns):
        for p in w.patterns[m]:
            h_pat.update(len(p).to_bytes(4, "little") + p)
    for p in w.cli_patterns:
        h_pat.update(len(p).to_bytes(4, "little") + p)
    h_win = hashlib.sha256(b",".join(str(x).encode() for x in w.windows))
    return hashlib.sha256(w.text).hexdigest(), h_pat.hexdigest(), h_win.hexdigest()
