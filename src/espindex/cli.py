"""Command-line front end: build, query, inspect, and benchmark indexes.

Positions printed or accepted here are 0-based (the library is 1-based
internally).  Exit codes: 0 success, 1 usage, 2 I/O, 3 malformed or corrupt
index file, 4 query-domain errors.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from typing import List, Optional, Sequence, Tuple

from . import esp
from .index import EspIndex, IndexLoadError, encode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_QUERY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="espindex", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="index a text file")
    b.add_argument("-i", "--input", required=True, help="text file to index")
    b.add_argument("-o", "--output", required=True, help="index file to write")

    for name in ("count", "locate"):
        q = sub.add_parser(name, help=f"{name} patterns in an indexed text")
        q.add_argument("-x", "--index", required=True)
        q.add_argument("-q", "--query", action="append", default=[],
                       help="pattern (repeatable)")
        q.add_argument("-f", "--file", help="pattern file, one per line")
        q.add_argument("--hex", action="store_true",
                       help="patterns are hex-encoded bytes")
        q.add_argument("--format", choices=("plain", "tsv", "json"), default="plain")

    e = sub.add_parser("extract", help="print a text window")
    e.add_argument("-x", "--index", required=True)
    e.add_argument("-p", "--position", type=int, required=True, help="0-based start")
    e.add_argument("-l", "--length", type=int, required=True)

    s = sub.add_parser("stats", help="structural statistics of an index")
    s.add_argument("-x", "--index", required=True)
    s.add_argument("--format", choices=("plain", "json"), default="plain")

    bench = sub.add_parser("bench", help="query-latency micro-benchmark")
    bench.add_argument("-x", "--index", required=True)
    bench.add_argument("--lengths", default="10,20,50,100,200,500,1000",
                       help="comma-separated pattern lengths")
    bench.add_argument("--samples", type=int, default=50)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", choices=("tsv", "json"), default="tsv")
    return p


def _load_index(path: str) -> EspIndex:
    try:
        return EspIndex.load(path)
    except FileNotFoundError as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot open index: {exc}"))
    except IndexLoadError as exc:
        raise SystemExit(_fail(EXIT_FORMAT, f"bad index file: {exc}"))


def _fail(code: int, message: str) -> int:
    print(f"espindex: {message}", file=sys.stderr)
    return code


def _gather_patterns(args) -> List[Tuple[str, bytes]]:
    pats: List[Tuple[str, bytes]] = []
    for i, q in enumerate(args.query):
        # surrogateescape round-trips whatever bytes the shell handed us
        pats.append((f"q{i}", q.encode("utf-8", "surrogateescape")))
    if args.file:
        with open(args.file, "rb") as fh:
            data = fh.read()
        lines = data.split(b"\n")
        if data.endswith(b"\n"):
            lines.pop()  # the empty piece after the final newline is not a line
        pats.extend((f"f{j}", line) for j, line in enumerate(lines))
    if args.hex:
        pats = [(pid, bytes.fromhex(raw.decode("ascii"))) for pid, raw in pats]
    if not pats:
        raise _UsageError("no patterns given (use -q or -f)")
    return pats


def _cmd_build(args) -> int:
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read input: {exc}")
    if not data:
        return _fail(EXIT_USAGE, "input file is empty")
    t0 = time.perf_counter()
    grammar = esp.build_grammar(data)
    index = encode(grammar)
    build_s = time.perf_counter() - t0
    try:
        nbytes = index.save(args.output)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write index: {exc}")
    print(f"build_seconds\t{build_s:.3f}")
    print(f"text_bytes\t{index.u}")
    print(f"rules\t{index.n}")
    print(f"height\t{index.height}")
    print(f"index_bytes\t{nbytes}")
    return EXIT_OK


def _emit_query(pid: str, cnt: int, pos0: Optional[List[int]],
                micros: float, fmt: str, out: List[dict]) -> None:
    if fmt == "json":
        row = {"id": pid, "count": cnt, "micros": round(micros, 1)}
        if pos0 is not None:
            row["positions"] = pos0
        out.append(row)
        return
    fields = [pid, str(cnt)]
    if pos0 is not None:
        fields.append(" ".join(map(str, pos0)) if fmt == "plain" else ",".join(map(str, pos0)))
    fields.append(f"{micros:.1f}")
    sep = "\t"
    print(sep.join(fields))


def _cmd_query(args, want_positions: bool) -> int:
    index = _load_index(args.index)
    try:
        patterns = _gather_patterns(args)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"bad hex pattern: {exc}")
    rows: List[dict] = []
    status = EXIT_OK
    for pid, pat in patterns:
        if len(pat) == 0:
            print(f"espindex: {pid}: empty pattern", file=sys.stderr)
            status = EXIT_QUERY
            continue
        t0 = time.perf_counter()
        hits = index.locate(pat)
        micros = (time.perf_counter() - t0) * 1e6
        pos0 = [h - 1 for h in hits] if want_positions else None
        _emit_query(pid, len(hits), pos0, micros, args.format, rows)
    if args.format == "json":
        json.dump(rows, sys.stdout, indent=0)
        print()
    return status


def _cmd_extract(args) -> int:
    index = _load_index(args.index)
    if args.length < 0 or args.position < 0 or args.position + args.length > index.u:
        return _fail(EXIT_QUERY, f"window [{args.position}, {args.position + args.length})"
                                 f" outside text of {index.u} bytes")
    data = index.extract(args.position + 1, args.length)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_stats(args) -> int:
    index = _load_index(args.index)
    st = index.stats()
    comp_bytes = {k: (v + 7) // 8 for k, v in index.component_bits().items()}
    resident = index.resident_bytes()
    import os

    file_bytes = os.path.getsize(args.index)
    info = {
        "u": st["u"],
        "sigma": st["sigma"],
        "n": st["n"],
        "height": st["height"],
        "b_bytes": comp_bytes["B"],
        "a_bytes": comp_bytes["A"],
        "file_bytes": file_bytes,
        "compression_ratio": round(file_bytes / st["u"], 4) if st["u"] else 0.0,
    }
    for name, nbytes in resident.items():
        info[f"resident_{name.lower()}_bytes"] = nbytes
    info["resident_bytes"] = sum(resident.values())
    if args.format == "json":
        json.dump(info, sys.stdout, indent=0)
        print()
    else:
        for k, v in info.items():
            print(f"{k}\t{v}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    index = _load_index(args.index)
    try:
        lengths = [int(x) for x in args.lengths.split(",") if x.strip()]
    except ValueError:
        return _fail(EXIT_USAGE, "--lengths must be comma-separated integers")
    if not lengths or min(lengths) < 1:
        return _fail(EXIT_USAGE, "pattern lengths must be positive")
    if args.samples < 1:
        return _fail(EXIT_USAGE, "--samples must be positive")
    rng = random.Random(args.seed)
    header = (
        "length", "samples", "count_ms_mean", "count_ms_median",
        "locate_ms_mean", "locate_ms_median", "occ_mean", "occc_mean",
        "cand_mean", "waves_mean", "lookups_mean",
    )
    rows = []
    for length in lengths:
        if length > index.u:
            continue
        count_ms: List[float] = []
        locate_ms: List[float] = []
        occs: List[int] = []
        occ_cs: List[int] = []
        cands: List[int] = []
        waves: List[int] = []
        lookups: List[int] = []
        for _ in range(args.samples):
            start = rng.randrange(1, index.u - length + 2)
            pat = index.extract(start, length)
            t0 = time.perf_counter()
            cnt = index.count(pat)
            count_ms.append((time.perf_counter() - t0) * 1e3)
            stats: dict = {}
            t0 = time.perf_counter()
            hits = index.locate(pat, _stats=stats)
            locate_ms.append((time.perf_counter() - t0) * 1e3)
            occs.append(len(hits))
            occ_cs.append(stats["occ_c"])
            cands.append(stats["candidates"])
            waves.append(stats["waves"])
            lookups.append(stats["lookups"])
            assert cnt == len(hits)
        rows.append({
            "length": length,
            "samples": args.samples,
            "count_ms_mean": round(statistics.mean(count_ms), 3),
            "count_ms_median": round(statistics.median(count_ms), 3),
            "locate_ms_mean": round(statistics.mean(locate_ms), 3),
            "locate_ms_median": round(statistics.median(locate_ms), 3),
            "occ_mean": round(statistics.mean(occs), 2),
            "occc_mean": round(statistics.mean(occ_cs), 2),
            "cand_mean": round(statistics.mean(cands), 2),
            "waves_mean": round(statistics.mean(waves), 2),
            "lookups_mean": round(statistics.mean(lookups), 2),
        })
    if args.format == "json":
        json.dump(rows, sys.stdout, indent=0)
        print()
    else:
        print("\t".join(header))
        for row in rows:
            print("\t".join(str(row[k]) for k in header))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "count":
            return _cmd_query(args, want_positions=False)
        if args.command == "locate":
            return _cmd_query(args, want_positions=True)
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except SystemExit as exc:  # raised by _load_index with a prepared code
        return int(exc.code)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    return _fail(EXIT_USAGE, f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
