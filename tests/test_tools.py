"""Smoke tests of the command-line tools under tools/."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPCOUNT = os.path.join(ROOT, "tools", "opcount.py")


def _opcount(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, OPCOUNT, *args], capture_output=True, text=True)


def test_opcount_top_lists_the_own_events_of_a_warm_scan():
    # --top N adds each target's N functions with the most events of their
    # own, most first, as file:line:name; the totals are those without it
    plain, ranked = _opcount("warm-scan"), _opcount("warm-scan", "--top", "3")
    assert plain.returncode == ranked.returncode == 0, plain.stderr + ranked.stderr
    totals = json.loads(plain.stdout)
    result = json.loads(ranked.stdout)
    assert result["totals"] == totals and list(totals) == ["warm-scan"]
    top = result["top"]["warm-scan"]
    assert len(top) == 3
    assert all(re.fullmatch(r"ncgdirac/\w+\.py:\d+:\S+", name) for name in top)
    assert next(iter(top)).endswith(":spectrum_scan")
    events = list(top.values())
    assert events == sorted(events, reverse=True) and events[-1] > 0
    assert sum(events) <= totals["warm-scan"]


def test_opcount_refuses_a_top_of_zero():
    refused = _opcount("warm-scan", "--top", "0")
    assert refused.returncode == 2 and "--top needs a positive N" in refused.stderr
