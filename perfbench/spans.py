"""In-memory span tracer that wraps library attributes at run time.

A wrapped callable records one span per call: id, parent span, query id,
name, start and end (``time.perf_counter`` seconds).  Spans opened by the
benchmark itself (``Tracer.span``) become the roots; every span opened while
a root is active carries the root's query id.  Spans stay in memory until
``Tracer.save`` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Span = Tuple[int, int, int, str, float, float]  # id, parent, query, name, start, end


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.notes: Dict[int, Any] = {}  # span id -> value observed from the result
        self.query = 0
        self._stack: List[int] = []
        self._next_id = 1
        self._installed: List[Tuple[Any, str, Any, Any]] = []

    # -- recording -------------------------------------------------------------

    def _call(self, name: str, fn: Callable, observe: Optional[Callable], args, kwargs):
        # the bookkeeping of span() written out inline: a context manager per
        # call would add about a microsecond to each of the hundreds of
        # thousands of wrapped calls in a traced run
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.query, name, t0, t1))
        if observe is not None:
            self.notes[sid] = observe(result)
        return result

    @contextlib.contextmanager
    def span(self, name: str, query: int = 0) -> Iterator[int]:
        """A benchmark-side span; a nonzero ``query`` tags everything under it."""
        outer_query = self.query
        if query:
            self.query = query
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.query, name, t0, t1))
            self.query = outer_query

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module function, method, or classmethod)
        with a recording wrapper until :meth:`uninstall`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name, fn, observe, args, kwargs)

        wrapper.__wrapped__ = fn
        installed = classmethod(wrapper) if is_cm else wrapper
        setattr(owner, attr, installed)
        self._installed.append((owner, attr, raw, installed))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw, _ = self._installed.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Run the body with the original attributes back in place."""
        for owner, attr, raw, _ in self._installed:
            setattr(owner, attr, raw)
        try:
            yield
        finally:
            for owner, attr, _, installed in self._installed:
                setattr(owner, attr, installed)

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part of it covered by child spans."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for sid, parent, _q, _n, t0, t1 in self.spans:
            children.setdefault(parent, []).append((t0, t1))
        out: Dict[int, float] = {}
        for sid, _p, _q, _n, t0, t1 in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end, t0), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def save(self, path: str) -> None:
        """Write every span as one structured array, names coded, to ``path`` (.npz)."""
        names = sorted({s[3] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        arr = np.array(
            [(s[0], s[1], s[2], code[s[3]], s[4], s[5]) for s in self.spans],
            dtype=[("id", "i8"), ("parent", "i8"), ("query", "i8"), ("name", "i4"),
                   ("start", "f8"), ("end", "f8")],
        )
        np.savez_compressed(path, spans=arr, names=np.array(names))
