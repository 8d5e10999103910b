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

The result is one JSON object, target -> opcode events.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

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

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        result = operation(*args, **kwargs)
    finally:
        sys.settrace(None)
    return events, result


def _count_cli(*argv: str) -> int:
    from ncgdirac import cli

    with contextlib.redirect_stdout(io.StringIO()):
        events, status = count_opcodes(cli.main, list(argv))
    if status != 0:
        raise SystemExit(f"ncgdirac {' '.join(argv)} exited with status {status}")
    return events


def measure(target: str) -> int:
    """The opcode events of one target, in this process."""
    from ncgdirac.catalog import build_t2
    from ncgdirac.spectrum import spectrum_scan

    if target == "build":
        build_t2(check=True)
        return count_opcodes(build_t2, check=True)[0]
    if target == "dirac":
        return _count_cli("dirac", "t2")
    if target == "report-all":
        return _count_cli("report-all")
    t2 = build_t2(check=True)
    cold = count_opcodes(spectrum_scan, t2, 8, 1.3)[0]
    if target == "cold-scan":
        return cold
    return count_opcodes(spectrum_scan, t2, 8, 0.7)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", metavar="TARGET", help=f"one of {', '.join(TARGETS)} (default: all)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src directory of the tree to count")
    parser.add_argument("--one", choices=TARGETS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    unknown = set(args.targets) - set(TARGETS)
    if unknown:
        parser.error(f"unknown target {', '.join(sorted(unknown))} (expected {', '.join(TARGETS)})")
    if args.one:
        print(measure(args.one))
        return 0
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    counts = {}
    for target in args.targets or TARGETS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", target],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        counts[target] = int(out.split()[-1])
    print(json.dumps(counts, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
