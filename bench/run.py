"""ncgdirac benchmark: one workload per invocation, result as the last stdout line.

Run from the root of a checkout:

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed (the
spectrum workload keeps one timer per sector).  ``--trace 1`` runs a fixed
traced operation and reports the per-layer metrics instead.  The lines before
the last one are a readable summary; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record, with the run environment, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# BLAS pools are sized at numpy import, so the limits go in before any import
# that could pull numpy in; CLI children inherit them through the environment.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class Context:
    def __init__(self, seed: int, import_s: float, child):
        self.seed = seed
        self.import_s = import_s
        self.out_dir = OUT_DIR
        self.child = child


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "spectrum", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(DECLARATION) as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def load_program() -> float:
    """Put this checkout's sources first on the path; return the import time."""
    if not os.path.isfile(os.path.join(SRC, "ncgdirac", "__init__.py")):
        raise SystemExit("error: no ncgdirac sources under src/ in this checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    # the build step of a pure-Python package: byte-compile once, untimed
    compileall.compile_dir(SRC, quiet=2)
    start = time.perf_counter()
    import ncgdirac.cli  # noqa: F401

    import_s = time.perf_counter() - start
    loaded = os.path.realpath(sys.modules["ncgdirac"].__file__)
    if not loaded.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: ncgdirac was imported from {loaded}, not from this checkout")
    return import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for this process and every child, so that the reference kernel
    # runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    units = declared_units(args.trace)
    import_s = load_program()
    os.makedirs(OUT_DIR, exist_ok=True)

    from workloads import WORKLOADS, Child, Outcome

    scratch = os.path.join(OUT_DIR, "children")
    os.makedirs(scratch, exist_ok=True)
    ctx = Context(args.seed, import_s, Child(ROOT, dict(os.environ), scratch))
    workload = WORKLOADS[args.workload](ctx)
    out = Outcome()
    if args.trace:
        workload.traced(out)
        values = out.per_layer
    else:
        workload.run(out, args.seconds)
        values = out.end_to_end
    if set(values) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    for name in list(values) + list(out.named):
        if not NAME_RE.fullmatch(name):
            raise SystemExit(f"error: metric name {name!r} is not [A-Za-z0-9_.-]+")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = out.failed == 0 and out.attempted >= 1
    env = environment(args)
    record = {
        "environment": env,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "failed_frac": out.failed / max(out.attempted, 1),
        "notes": out.notes,
        "metrics": metrics,
        "named": {name: {"value": v, "unit": u} for name, (v, u) in out.named.items()},
        "stages": [
            {"name": n, "calls": c, "inclusive_s": i, "self_s": s} for n, c, i, s in out.stages
        ],
        "samples_ns": out.samples,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for note in out.notes:
        print(f"# {note}")
    print(f"# failed_frac = {record['failed_frac']:.6g} ({out.failed} of {out.attempted})")
    for name, (value, unit) in out.named.items():
        print(f"# {name} = {value:.6g} {unit}")
    if out.stages:
        print(f"# {'stage':34s} {'calls':>8s} {'inclusive_s':>12s} {'self_s':>10s}")
        for name, calls, inclusive, own in out.stages:
            print(f"# {name:34s} {calls:8d} {inclusive:12.4f} {own:10.4f}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
