"""Count the bytecodes that ncgdirac runs for its main operations.

Each count is the number of opcode events that ``sys.settrace`` reports
(with ``frame.f_trace_opcodes`` set) while one operation runs, after the
import.  Python's bytecodes are deterministic, so a count is the same on
every run of one tree and one interpreter, and two trees can be compared
with no timing noise.  Every target runs in a fresh process:

- ``build``: a checked ``build_t2``, the second checked build in the process
  (the first, untraced, fills the memos a long-lived process keeps);
- ``dirac``: ``ncgdirac dirac t2`` through ``cli.main``, stdout discarded;
- ``report-all``: ``ncgdirac report-all`` through ``cli.main``, stdout
  discarded;
- ``cold-scan``: ``spectrum_scan(t2, 8, 1.3)`` on a fresh checked build,
  which builds and certifies all 289 sectors;
- ``warm-scan``: then ``spectrum_scan(t2, 8, 0.7)`` on the same bundle,
  which reads the stored sectors.

Usage, from the root of a checkout:

    python3 tools/opcount.py                       # every target, this tree
    python3 tools/opcount.py build cold-scan       # some targets
    python3 tools/opcount.py --src ../other/src    # another tree's engine
    python3 tools/opcount.py build --top 10        # and where the events went

The result is one JSON object, target -> opcode events.  With ``--top N``
it is {"totals": that object, "top": target -> the N functions with the
most opcode events of their own, as file:line:name -> events}: each
event is charged to the function whose frame ran it, the file is relative
to the directory on ``sys.path`` that holds it, and the line is the first
of the function's code.  The totals are the same with or without it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ("build", "dirac", "report-all", "cold-scan", "warm-scan")


def count_opcodes(operation, *args, **kwargs) -> tuple[int, object]:
    """The opcode events of sys.settrace while operation(*args, **kwargs) runs, and its result.

    The call is made from this untraced frame, so no wrapper's bytecodes
    are counted.
    """
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "opcode":
            events += 1
        return local

    result = _traced(local, operation, args, kwargs)
    return events, result


def count_own_opcodes(operation, *args, **kwargs) -> tuple[Counter, object]:
    """The opcode events of each code object that operation(*args, **kwargs) runs, and its result.

    An event is charged to the code of the frame that runs it, so the
    counts are each function's own and sum to count_opcodes's total.
    """
    own = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            own[frame.f_code] += 1
        return local

    result = _traced(local, operation, args, kwargs)
    return own, result


def _traced(local, operation, args, kwargs):
    """operation(*args, **kwargs), with local as the trace function of every frame it runs."""

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        result = operation(*args, **kwargs)
    finally:
        sys.settrace(None)
    return result


def _count_cli(count, *argv: str):
    from ncgdirac import cli

    with contextlib.redirect_stdout(io.StringIO()):
        events, status = count(cli.main, list(argv))
    if status != 0:
        raise SystemExit(f"ncgdirac {' '.join(argv)} exited with status {status}")
    return events


def measure(target: str, count=count_opcodes):
    """The opcode events of one target, in this process, as count (count_opcodes or count_own_opcodes) reads them."""
    from ncgdirac.catalog import build_t2
    from ncgdirac.spectrum import spectrum_scan

    if target == "build":
        build_t2(check=True)
        return count(build_t2, check=True)[0]
    if target == "dirac":
        return _count_cli(count, "dirac", "t2")
    if target == "report-all":
        return _count_cli(count, "report-all")
    t2 = build_t2(check=True)
    if target == "cold-scan":
        return count(spectrum_scan, t2, 8, 1.3)[0]
    spectrum_scan(t2, 8, 1.3)
    return count(spectrum_scan, t2, 8, 0.7)[0]


def function_name(code) -> str:
    """file:line:name of a code object, the file relative to the sys.path entry that holds it."""
    path = os.path.abspath(code.co_filename)
    roots = [os.path.abspath(p or ".") for p in sys.path]
    holders = [r for r in roots if path.startswith(r + os.sep)]
    file = os.path.relpath(path, max(holders, key=len)) if holders else code.co_filename
    return f"{file}:{code.co_firstlineno}:{getattr(code, 'co_qualname', code.co_name)}"


def top_functions(own: Counter, n: int) -> dict[str, int]:
    """The n functions of own with the most events, most first, as file:line:name -> events."""
    named = Counter()
    for code, events in own.items():
        named[function_name(code)] += events
    return dict(sorted(named.items(), key=lambda item: (-item[1], item[0]))[:n])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", metavar="TARGET", help=f"one of {', '.join(TARGETS)} (default: all)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src directory of the tree to count")
    parser.add_argument(
        "--top", type=int, metavar="N", help="also list each target's N functions with the most events of their own"
    )
    parser.add_argument("--one", choices=TARGETS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    unknown = set(args.targets) - set(TARGETS)
    if unknown:
        parser.error(f"unknown target {', '.join(sorted(unknown))} (expected {', '.join(TARGETS)})")
    if args.top is not None and args.top < 1:
        parser.error("--top needs a positive N")
    if args.one:
        if args.top is None:
            print(measure(args.one))
        else:
            own = measure(args.one, count_own_opcodes)
            print(json.dumps({"events": sum(own.values()), "top": top_functions(own, args.top)}))
        return 0
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    top = [] if args.top is None else ["--top", str(args.top)]
    counts, tops = {}, {}
    for target in args.targets or TARGETS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", target, *top],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.splitlines()[-1]
        if top:
            result = json.loads(out)
            counts[target], tops[target] = result["events"], result["top"]
        else:
            counts[target] = int(out)
    print(json.dumps(counts if not top else {"totals": counts, "top": tops}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
