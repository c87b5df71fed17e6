#!/usr/bin/env python3
"""Seeded end-to-end benchmark of espindex: build, load, locate, extract, CLI.

    python3 perfbench/run.py --workload versions --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the one holding ``src/espindex``).  The
workload text, patterns, windows and CLI calls are generated from the seed;
the library and the CLI see only those bytes and the files built from them.
Queries run as a closed loop with one client, CLI calls one process at a
time.  Every answer is checked against a brute-force scan of the text,
outside the timed regions.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers on the library (see ``traced.py``) and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata and check results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(HERE, "_runs")  # temporary index files and span dumps

SETUP_OPS = 3  # per round; setup_s is the median of their slower calls (p50_of_slowest)
# Every operation runs in at least MIN_ROUNDS rounds, so that a pattern drawn
# by the seed weighs the same in every run however fast the machine is.  Two,
# so that with the round sizes of workloads.SPECS a run of a slow stretch
# still ends near --seconds.
MIN_ROUNDS = 2
# In-process classes whose operations are interleaved through a round, so
# that each samples the machine over the whole round rather than over the
# second or two its own operations take; the other classes run as blocks
# after them.
MIXED = ("p10", "p100", "p1000", "extract", "load")
TAIL_GAP = 10  # the tail is the highest percentile with this many samples above it


# ---------------------------------------------------------------------------
# clock and statistics
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its reaped children.

    Operations are timed by CPU time, not wall time.  They are single-threaded
    and compute-bound, and on a shared virtual machine wall time also counts
    the stretches in which the host runs other guests on this core: on a
    2-vCPU machine a fixed loop's wall time was up to twice its CPU time, by
    an amount that shifted from minute to minute.  A CLI call's time is its child process's CPU time
    plus what starting and reaping it cost this process.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def p50_of_slowest(calls: Sequence[float], ops: int) -> float:
    """Median over the ``ops`` operations of each one's slower call in the
    first MIN_ROUNDS rounds (``calls`` holds the rounds one after another).

    On the shared virtual machine, pure-Python code runs up to twice as fast
    while the host leaves the core to this guest, in stretches from under a
    second to minutes.  The median of all calls moves with the share of the
    run spent in such stretches, and a 30 s run often spends some of it there.
    An operation reads fast here only if both of its calls, about one round
    apart, did, so a run partly inside a fast stretch reads about as a run
    outside one (README, "Measured steadiness").  Only the first MIN_ROUNDS
    rounds count, so that the statistic is the same in every run.
    """
    return statistics.median(max(calls[i : MIN_ROUNDS * ops : ops]) for i in range(ops))


def tail(values: Sequence[float], least: int) -> Tuple[float, float]:
    """(value, percentile) of the tail of ``values``.

    The percentile is the highest that leaves TAIL_GAP samples above it when
    there are ``least`` samples, the count of a run with the fewest rounds, so
    that every run of a class reports the same percentile; a longer run has
    more samples above it.  With ``least`` at most TAIL_GAP, the median.
    """
    ordered = sorted(values)
    if least <= TAIL_GAP:
        return statistics.median(ordered), 50.0
    rank = -(-(least - TAIL_GAP) * len(ordered) // least)  # nearest rank, exact
    return ordered[rank - 1], 100.0 * (least - TAIL_GAP) / least


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checks:
    """Tallies operations attempted, failed (raised) and wrong (bad answer)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []

    def record(self, what: str, ok: bool, error: Optional[BaseException] = None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems.append(f"{what}: raised {error!r}")
        elif not ok:
            self.wrong += 1
            self.problems.append(f"{what}: wrong answer")

    @property
    def error_rate(self) -> float:
        return (self.failed + self.wrong) / self.attempted if self.attempted else 0.0

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "error_rate": self.error_rate,
            "problems": self.problems[:20],
        }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Bench:
    """One workload's files, index and timed operations."""

    def __init__(self, workload, workdir: str):
        from espindex import index as ix
        from espindex.oracle import naive_search

        self.w = workload
        self.ix = ix
        self.index_path = os.path.join(workdir, "text.idx")
        self.oracle = {
            p: naive_search(workload.text, p)
            for pats in [*workload.patterns.values(), workload.cli_patterns]
            for p in pats
        }
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.checks = Checks()
        self.index = None

    # -- set-up ----------------------------------------------------------------

    def setup(self, path: str) -> int:
        """Build, encode and save the text's index; returns the file size."""
        from espindex import esp

        return self.ix.encode(esp.build_grammar(self.w.text)).save(path)

    def same_as_index(self, path: str) -> bool:
        """True if the file at ``path`` equals the index file byte for byte."""
        with open(self.index_path, "rb") as a, open(path, "rb") as b:
            return a.read() == b.read()

    def load(self):
        """Load the saved index; returns (u, n, root) for the checks."""
        self.index = self.ix.EspIndex.load(self.index_path)
        return self.index.u, self.index.n, self.index.root

    def resident_bytes(self) -> int:
        """Bytes still allocated by a freshly loaded index (tracemalloc)."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            idx = self.ix.EspIndex.load(self.index_path)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del idx
        return held

    # -- timed operations and their checks -------------------------------------

    def classes(self) -> Dict[str, List[Tuple[str, Callable, Callable]]]:
        """Class -> [(label, operation, check)]; check(output) -> bool."""
        from workloads import EXTRACT_LENGTH

        idx, text = self.index, self.w.text
        out: Dict[str, List[Tuple[str, Callable, Callable]]] = {}
        for m, pats in self.w.patterns.items():
            out[f"p{m}"] = [
                (f"locate |P|={m} #{i}", lambda p=p: idx.locate(p),
                 lambda got, p=p: got == self.oracle[p])
                for i, p in enumerate(pats)
            ]
        out["extract"] = [
            (f"extract @{s}", lambda s=s: idx.extract(s + 1, EXTRACT_LENGTH),
             lambda got, s=s: got == text[s : s + EXTRACT_LENGTH])
            for s in self.w.windows
        ]
        out["cli"] = [
            (f"cli locate #{i}", lambda p=p: self.cli_locate(p),
             lambda got, p=p: got == self.cli_expected(p))
            for i, p in enumerate(self.w.cli_patterns)
        ]
        out["load"] = [
            (f"load #{i}", self.load, lambda got: got[0] == len(text))
            for i in range(self.w.load_calls)
        ]
        again = self.index_path + ".again"
        out["setup"] = [(f"set-up #{i} gives the same file", lambda: self.setup(again),
                         lambda got: self.same_as_index(again))
                        for i in range(SETUP_OPS)]
        return out

    def cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "espindex.cli", *args],
            capture_output=True, env=self.env, cwd=ROOT, timeout=120, check=False,
        )

    @staticmethod
    def parse_cli_locate(stdout: bytes) -> Tuple[int, List[int]]:
        """(count, 0-based positions) from one plain-format ``locate`` line."""
        fields = stdout.decode("ascii").rstrip("\n").split("\t")
        return int(fields[1]), [int(x) for x in fields[2].split()]

    def cli_expected(self, pattern: bytes) -> Tuple[int, int, List[int]]:
        """(exit code, count, 0-based positions) the CLI must produce."""
        hits = self.oracle[pattern]
        return 0, len(hits), [x - 1 for x in hits]

    def cli_locate(self, pattern: bytes) -> Tuple[int, int, List[int]]:
        proc = self.cli("locate", "-x", self.index_path, "-q", pattern.hex(), "--hex")
        if proc.returncode:
            return proc.returncode, -1, []
        return (0, *self.parse_cli_locate(proc.stdout))

    def run_rounds(self, classes, seconds: float) -> Tuple[Dict[str, List[float]],
                                                          Dict[str, List[float]]]:
        """Closed loop over rounds; returns class -> every call's CPU time (s),
        and class -> every call's wall time (s).

        One round runs every operation once, one after another: the MIXED
        classes' operations interleaved evenly, then each other class as a
        block.  The round's first operation, and every operation right after a
        load, also runs once untimed before it, so no timed call pays for the
        cache misses that the previous round's set-ups and CLI processes, or
        the load, left.  Rounds repeat while another one can end
        within ``seconds``, judging by the previous one, and at least
        MIN_ROUNDS run.
        """
        mixed = sorted(((i + 0.5) / len(classes[name]), name, i)
                       for name in MIXED for i in range(len(classes[name])))
        order = [(name, i) for _key, name, i in mixed] + [
            (name, i) for name, ops in classes.items() if name not in MIXED
            for i in range(len(ops))
        ]
        cold = {0} | {k + 1 for k in range(len(order) - 1)
                      if order[k][0] == "load" != order[k + 1][0]}
        times = {name: [] for name in classes}
        walls = {name: [] for name in classes}
        first: Dict[Tuple[str, int], object] = {}
        unstable = set()
        errors: Dict[Tuple[str, int], BaseException] = {}
        gc.collect()
        start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            for k, (name, i) in enumerate(order):
                if k in cold:
                    try:
                        classes[name][i][1]()
                    except Exception:  # the timed call below records the failure
                        pass
                w0, t0 = time.perf_counter(), cpu_seconds()
                try:
                    got = classes[name][i][1]()
                except Exception as exc:  # counted as a failed operation
                    errors.setdefault((name, i), exc)
                    got = None
                times[name].append(cpu_seconds() - t0)
                walls[name].append(time.perf_counter() - w0)
                if rounds == 0:
                    first[name, i] = got
                elif got != first[name, i]:
                    unstable.add((name, i))
            rounds += 1
            now = time.perf_counter()
            if rounds >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
                break
        for name, ops in classes.items():
            for i, (label, _op, check) in enumerate(ops):
                err = errors.get((name, i))
                ok = err is None and (name, i) not in unstable and check(first[name, i])
                self.checks.record(label, ok, err)
        return times, walls


def git_commit() -> str:
    """HEAD of the source tree, or "unknown" outside a git checkout."""
    # the ceiling keeps git from taking HEAD of a repository above the tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def metadata(w, args) -> dict:
    import numpy as np
    import workloads

    text_h, pat_h, win_h = workloads.fingerprint(w)
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "text_bytes": len(w.text),
        "text_sha256": text_h,
        "patterns_sha256": pat_h,
        "windows_sha256": win_h,
    }


def untraced(bench: Bench, seconds: float) -> Tuple[Dict[str, float], dict]:
    """End-to-end metrics, and the sample counts, tail percentiles and wall
    times that go with them."""
    w = bench.w
    index_bytes = bench.setup(bench.index_path)
    resident = bench.resident_bytes()
    bench.load()
    classes = bench.classes()
    times, walls = bench.run_rounds(classes, seconds)
    metrics = {
        "index_bytes_per_text_byte": index_bytes / len(w.text),
        "resident_bytes_per_text_byte": resident / len(w.text),
    }
    samples, tails, wall_p50, cpu_p50 = {}, {}, {}, {}
    for name, calls in times.items():
        ops = len(classes[name])
        samples[name] = {"operations": ops, "rounds": len(calls) // ops, "calls": len(calls)}
        wall_p50[name] = statistics.median(walls[name])
        cpu_p50[name] = statistics.median(calls)
        p50 = p50_of_slowest(calls, ops)
        if name in ("setup", "load"):
            metrics[f"{name}_s"] = p50
            continue
        if name == "cli":
            metrics["cli_locate_p50_ms"] = p50 * 1e3
            continue
        value, pct = tail(calls, ops * MIN_ROUNDS)
        prefix, suffix = ("extract", "") if name == "extract" else ("locate", f".{name}")
        metrics[f"{prefix}_p50_ms{suffix}"] = p50 * 1e3
        metrics[f"{prefix}_tail_ms{suffix}"] = value * 1e3
        tails[f"{prefix}_tail_ms{suffix}"] = {"percentile": round(pct, 2), "over": len(calls)}
    return metrics, {
        "timing": "CPU seconds per call (see cpu_seconds); every p50, setup_s "
                  "and load_s is the median over a class's operations of each "
                  "one's slower call in the first two rounds (see p50_of_slowest); "
                  "every tail is over all calls of its class",
        "samples": samples, "tails": tails,
        "median_of_all_calls_s": {"cpu": cpu_p50, "wall": wall_p50},
    }


def result_line(checks: Checks, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": checks.failed == 0 and checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed + checks.wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def load_units(trace: int) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "espindex", "__init__.py")):
        print(f"perfbench: no espindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = load_units(args.trace)
    w = workloads.make(args.workload, args.seed)
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=RUNS_DIR)
    try:
        bench = Bench(w, workdir)
        if args.trace:
            import traced

            spans_path = os.path.join(RUNS_DIR, f"spans-{w.name}-seed{args.seed}.npz")
            metrics, extra = traced.run(bench, spans_path)
        else:
            metrics, extra = untraced(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {k: metrics[k] for k in units}
    print(json.dumps({"meta": metadata(w, args), "checks": bench.checks.summary(), **extra}))
    print(result_line(bench.checks, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
