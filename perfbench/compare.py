#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics between a parent and a change.

    python3 perfbench/compare.py run --parent PARENT_TREE --change CHANGE_TREE --out pairs.json
    python3 perfbench/compare.py report pairs.json

``run`` makes MIN_PAIRS alternating pairs of untraced runs on every workload
of the change's BENCHMARK.json: pair i uses seed ``SEED0 + i`` on both trees,
and the side that runs first alternates.  Each tree is a source checkout
holding ``src/``, ``perfbench/`` and ``BENCHMARK.json``.  ``report`` prints
one row per workload with a verdict per metric:

* ``better``: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither side), and the medians differ by more than the parent's
  interquartile spread;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
* ``unresolved``: the parent's run-to-run spread (interquartile distance over
  median) exceeds the bound, unless every change run beats every parent run;
* ``same``: none of the above.

A gain is voided (``better`` becomes ``same``) when the change fails more
operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, Optional, Sequence

MIN_PAIRS = 10
WIN_SHARE = 0.9
SEED0 = 1000  # fixed, so that every comparison runs both trees on the same inputs


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float,
            extra_failures: bool = False) -> dict:
    """Verdict for one metric on one workload from paired runs."""
    lower = better == "lower"
    n = len(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if n >= 2 else (p_med, p_med, p_med)
    iqr = q3 - q1
    wins = sum(_better(c, p, lower) for p, c in zip(parent, change))
    delta = (c_med - p_med) / p_med if p_med else 0.0
    row = {"parent_median": p_med, "change_median": c_med, "delta": delta, "pairs": n,
           "wins": wins, "parent_spread": iqr / p_med if p_med else 0.0}
    improved = _better(c_med, p_med, lower) and abs(c_med - p_med) > iqr
    worse_by = delta if lower else -delta
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and improved and not extra_failures:
        row["verdict"] = "better"
    elif worse_by > bound:
        row["verdict"] = "worse"
    elif row["parent_spread"] > bound and not all(
        _better(c, p, lower) for c in change for p in parent
    ):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "same"
    return row


def report(doc: dict) -> Dict[str, Dict[str, dict]]:
    """workload -> metric -> verdict row, from a ``run`` output document."""
    metrics = doc["end_to_end"]
    out: Dict[str, Dict[str, dict]] = {}
    for wl in sorted({p["workload"] for p in doc["pairs"]}):
        pairs = [p for p in doc["pairs"] if p["workload"] == wl]
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        rows = {}
        for m in metrics:
            rows[m["name"]] = verdict(
                [p["parent"]["metrics"][m["name"]]["value"] for p in pairs],
                [p["change"]["metrics"][m["name"]]["value"] for p in pairs],
                m["better"], m["bound"], extra_failures=failed["change"] > failed["parent"],
            )
        rows["_failed"] = failed
        out[wl] = rows
    return out


def format_rows(table: Dict[str, Dict[str, dict]]) -> str:
    lines = []
    for wl, rows in table.items():
        failed = rows["_failed"]
        cells = [f"{name}={r['verdict']}({r['delta']:+.1%},{r['wins']}/{r['pairs']})"
                 for name, r in rows.items() if name != "_failed"]
        lines.append(f"{wl}\tfailed {failed['parent']}/{failed['change']}\t" + "  ".join(cells))
    return "\n".join(lines)


def _run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, check=False,
    )
    if proc.returncode:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr.decode(errors="replace")[-2000:])
    return json.loads(proc.stdout.decode().splitlines()[-1])


def run_pairs(parent: str, change: str, spec: dict) -> dict:
    """Alternating parent/change runs, MIN_PAIRS per workload of ``spec``."""
    doc = {"end_to_end": spec["end_to_end"], "pairs": []}
    for wl in (w["name"] for w in spec["workloads"]):
        for i in range(MIN_PAIRS):
            seed = SEED0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            res = {}
            for side in order:
                res[side] = _run_once(parent if side == "parent" else change, wl, seed,
                                      spec["run_seconds"])
            doc["pairs"].append({"workload": wl, "seed": seed, "first": order[0], **res})
            print(f"{wl} pair {i + 1}/{MIN_PAIRS} done", file=sys.stderr)
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="make alternating parent/change pairs")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="verdicts from a run's output")
    rep.add_argument("pairs_file")
    args = ap.parse_args(argv)

    if args.cmd == "run":
        with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        doc = run_pairs(args.parent, args.change, spec)
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
    else:
        with open(args.pairs_file) as fh:
            doc = json.load(fh)
    print(format_rows(report(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
