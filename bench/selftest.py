"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py

It checks that BENCHMARK.json keeps the benchmark contract, that one short
untraced run per workload reports exactly the declared end-to-end metrics,
that two traced runs with one seed are correct (the traced run compares its
results and report bytes with an untraced run of the same operation) and agree
exactly on every counter, and that the benchmark refuses to run where the
ncgdirac sources are missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7
TIMEOUT_S = 180

failures: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def exact_counter(name: str) -> bool:
    return name.endswith("_calls") or name in (
        "algebra.product_cache_entries", "spectrum.sectors", "spectrum.fallback_scans",
    )


def run(cwd: str, workload: str, seconds: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check_declaration(declared: dict):
    expect(set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in declared[key]]
    expect(all(NAME_RE.fullmatch(n) for n in names), "every name fits [A-Za-z0-9_.-], 64 chars")
    expect(len(names) == len(set(names)), "every name is used once")
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    expect(all(UNIT_RE.fullmatch(u) for u in units), "every unit fits the unit alphabet")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "every bound is in (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"]),
           "every workload's why is one line of at most 200 characters")


def check_untraced(declared: dict, workload: str):
    proc, result = run(ROOT, workload, "1", 0)
    expect(result is not None, f"{workload}: untraced run exits 0 with a result")
    if result is None:
        print(proc.stderr[-2000:])
        return
    declared_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == declared_e2e, f"{workload}: untraced metrics are the end_to_end list")
    expect(all(m["value"] > 0 for m in result["metrics"].values()),
           f"{workload}: every end-to-end value is above 0")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: untraced run is correct")


def check_traced(declared: dict, workload: str):
    results = []
    for _ in range(2):
        proc, result = run(ROOT, workload, "1", 1)
        if result is None:
            print(proc.stderr[-2000:])
        results.append(result)
    expect(all(r is not None for r in results), f"{workload}: both traced runs exit 0")
    if None in results:
        return
    declared_layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    got = {name: m["unit"] for name, m in results[0]["metrics"].items()}
    expect(got == declared_layers, f"{workload}: traced metrics are the per_layer list")
    expect(all(r["correct"] and r["failed"] == 0 for r in results),
           f"{workload}: tracing leaves every result and report byte unchanged")
    first, second = (r["metrics"] for r in results)
    moved = [n for n in first if exact_counter(n) and first[n]["value"] != second[n]["value"]]
    expect(not moved, f"{workload}: exact counters repeat across two traced runs {moved or ''}")


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run(bare, "build", "1", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    check_declaration(declared)
    check_refuses_without_sources()
    for workload in (w["name"] for w in declared["workloads"]):
        check_untraced(declared, workload)
        check_traced(declared, workload)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
