"""The traced benchmark wraps library names: they must stay.

``perfbench/traced.py`` replaces library functions and methods by name (for
example ``BitVector.from_words`` and ``EspIndex.verify_candidate``) while a
traced run lasts.  Deleting or renaming one breaks the traced benchmark
without failing any library test, so this test installs every wrapper on
the current code, checks that ``locate`` answers the same under them, and
removes them again.
"""

from __future__ import annotations

import os
import random

from espindex.esp import build_grammar
from espindex.index import EspIndex, encode

from conftest import near_duplicates

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WRAPPERS = 22  # attributes traced.install replaces


def test_traced_install_wraps_live_names(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import traced

    t = near_duplicates(random.Random(7), 4000)
    idx = encode(build_grammar(t))
    pattern = t[1000:1012]
    want = idx.locate(pattern)
    original = EspIndex.locate
    tr = spans.Tracer()
    traced.install(tr)
    try:
        assert len(tr._installed) == WRAPPERS
        assert EspIndex.locate is not original
        got = idx.locate(pattern)
    finally:
        tr.uninstall()
    assert got == want and 1001 in want
    assert EspIndex.locate is original
    names = {s[3] for s in tr.spans}
    assert {"index.locate", "index.pattern_evidence", "index.core_occurrences"} <= names
