"""The three benchmark workloads: ``build``, ``spectrum`` and ``cli``.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  A workload has a repeatable set-up, an
operation that is timed and then checked for correctness, and a traced
variant that runs a fixed set of operations so that its counts repeat
exactly.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import bisect
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import ncgdirac
from tracer import PresentationTracker, Tracer, per_layer_metrics

now_ns = time.perf_counter_ns

SPECTRUM_MMAX = 8
SECTORS = (2 * SPECTRUM_MMAX + 1) ** 2
MAX_DEVIATION = 1e-9
CHILD_TIMEOUT_S = 40  # a command takes about 5 s; a hung one is killed and fails
REFERENCE_CALLS = 10  # reference-kernel timings taken before every operation
# setup_s is scaled to a host on which the reference kernel takes this long
# (about its median on the 2-vCPU host the bounds were set on)
REFERENCE_NOMINAL_S = 0.018


class Outcome:
    """What a run measured: named end-to-end numbers, checks and trace data."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.end_to_end: dict[str, float] = {}
        # workload-specific figures under their own names: name -> (value, unit)
        self.named: dict[str, tuple[float, str]] = {}
        self.per_layer: dict[str, float] = {}
        self.stages: list = []
        # raw timings behind the medians: name -> [(start_ns, duration_ns)]
        self.samples: dict[str, list] = {}

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"failed: {what}")


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_REFERENCE_VALUES = [Fraction(i + 1, 2 * i + 3) for i in range(64)]


def reference_kernel() -> dict:
    """A fixed interpreter workload, about 20 ms: stdlib Fractions summed in a dict.

    It has the engine's profile (rational arithmetic, dict updates) but shares
    no code with it, so no change to ncgdirac can move it.
    """
    acc: dict = {}
    values = _REFERENCE_VALUES
    for r in range(6):
        for i, a in enumerate(values):
            for b in values[i::4]:
                k = (i * 31 + r) % 97
                acc[k] = acc.get(k, 0) + a * b
    return acc


class HostClock:
    """Times the reference kernel around timed batches, to track the host's speed.

    On a shared host the interpreter's speed switches between a fast and a
    slow state many times a second, and the mix drifts by tens of percent
    between runs a minute apart.  Each batch of operations (a build, a scan, a
    round of commands, a set-up) is divided by the mean kernel time of the
    bursts just before, inside and just after it, which cancels the drift.
    The wall times are reported alongside.
    """

    def __init__(self):
        self.samples_ns: list[tuple[int, int]] = []  # (start, duration)
        self.batches: list[tuple[int, int, int, int]] = []  # (start, end, busy, operations)

    def sample(self):
        for _ in range(REFERENCE_CALLS):
            start = now_ns()
            reference_kernel()
            self.samples_ns.append((start, now_ns() - start))

    def record(self, start: int, end: int, busy_ns: int, operations: int = 1):
        self.batches.append((start, end, busy_ns, operations))

    def ratios(self) -> list[float]:
        """Per batch: busy time per operation over the kernel time around the batch."""
        starts = [start for start, _ in self.samples_ns]
        out = []
        for start, end, busy_ns, operations in self.batches:
            first = max(bisect.bisect_left(starts, start) - REFERENCE_CALLS, 0)
            last = bisect.bisect_left(starts, end) + REFERENCE_CALLS
            around = [duration for _, duration in self.samples_ns[first:last]]
            out.append(busy_ns / operations / statistics.mean(around))
        return out

    def median_ms(self) -> float:
        return statistics.median(duration for _, duration in self.samples_ns) / 1e6


def record_end_to_end(out: "Outcome", host: HostClock, peak_rss_mb: float):
    """op_rel and peak_rss_mb; the caller has sampled the kernel after its last batch."""
    out.end_to_end.update(op_rel=statistics.mean(host.ratios()), peak_rss_mb=peak_rss_mb)
    out.named["reference_kernel_ms"] = (host.median_ms(), "ms")
    out.samples.update(reference_kernel=host.samples_ns, batches=host.batches)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> float | None:
    """The highest of p90, p99, p99.9, ... with at least ten samples beyond it."""
    best = None
    p = 90.0
    while n * (1 - p / 100) >= 10:
        best = p
        p = 100 - (100 - p) / 10
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# correctness fingerprints
# ---------------------------------------------------------------------------


def _images(mapping) -> dict:
    return {repr(w): v.to_json() for w, v in sorted(mapping.items(), key=lambda t: repr(t[0]))}


def bundle_fingerprint(bundle) -> str:
    """Digest of every induced structure of a catalog space, via public to_json."""
    s = bundle.structures
    payload = {
        "presentation": bundle.presentation.to_json(),
        "g_element": s.metric.g_element.to_json(),
        "g_inverse": _images(s.metric.g_inv.images),
        "connection": _images(s.connection.values),
        "sigma": _images(s.connection.sigma.images),
        "gamma": _images(s.spin.gamma.images),
        "spin_connection": _images(s.spin.spin_connection.values),
        "certificate": bundle.hypersurface.certificate.to_report(bundle.name).to_json(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def scan_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode()


def seeded_theta(rng: random.Random) -> float:
    """A deformation angle drawn from (0, 2*pi), away from the undeformed ends."""
    return rng.uniform(0.05, 2 * math.pi - 0.05)


def bad_sectors(report) -> int:
    """Sectors whose eigenvalues miss the closed form (all of them on fallback)."""
    if report.fallback_used or len(report.eigenvalues) != 4 * SECTORS:
        return SECTORS
    worst: dict[tuple[int, int], float] = {}
    for entry in report.eigenvalues:
        key = (entry["m"], entry["n"])
        worst[key] = max(worst.get(key, 0.0), entry["deviation"])
    if len(worst) != SECTORS:
        return SECTORS
    return sum(1 for dev in worst.values() if not dev < MAX_DEVIATION)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Child:
    """Runs one command as a fresh process; records wall time, exit and peak RSS."""

    def __init__(self, root: str, env: dict, scratch: str):
        self.root = root
        self.env = env
        self.scratch = scratch

    def run(self, args: list[str], tag: str) -> tuple[float, int, float, bytes]:
        out_path = os.path.join(self.scratch, f"{tag}.stdout")
        err_path = os.path.join(self.scratch, f"{tag}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = now_ns()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=self.root
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = (now_ns() - start) / 1e9
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        return wall, proc.returncode, usage.ru_maxrss / 1024, stdout

    def import_probe(self) -> float:
        """Interpreter start plus ``import ncgdirac.cli`` in a fresh process."""
        wall, code, _, _ = self.run(["-c", "import ncgdirac.cli"], "import-probe")
        if code != 0:
            raise RuntimeError("ncgdirac does not import in a fresh interpreter")
        return wall


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    # set-up runs this many times per run and setup_s is the median
    setup_repeats = 7

    def __init__(self, ctx):
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)

    def timed_setup(self, out: Outcome):
        host = HostClock()
        for _ in range(self.setup_repeats):
            host.sample()
            start = now_ns()
            self.setup()
            end = now_ns()
            host.record(start, end, end - start)
        host.sample()
        out.end_to_end["setup_s"] = statistics.median(host.ratios()) * REFERENCE_NOMINAL_S
        wall_ns = statistics.median(busy for _, _, busy, _ in host.batches)
        out.named["setup_wall_s"] = (wall_ns / 1e9, "s")

    # the traced operation builds the presentations whose caches it fills;
    # the spectrum workload's scans fill the caches of its set-up bundle
    cache_from_setup = False

    def traced(self, out: Outcome):
        """Untraced reference operation, then the same operation traced."""
        tracer = Tracer()
        with PresentationTracker() as presentations:
            self.setup()
            ref_s, reference = self.reference_op()
            mark = 0 if self.cache_from_setup else len(presentations.presentations)
            with tracer:
                start = now_ns()
                result = self.traced_op()
                traced_s = (now_ns() - start) / 1e9
            entries = presentations.cache_entries(mark)
        self.check_traced(out, reference, result)
        out.per_layer = per_layer_metrics(
            tracer, entries, self.ctx.import_s, traced_s / ref_s, self.ctx.seed
        )
        out.stages = tracer.stage_table()
        tracer.write_spans(
            os.path.join(self.ctx.out_dir, f"trace-{self.name}-seed{self.ctx.seed}.json"),
            {"workload": self.name, "seed": self.ctx.seed, "untraced_s": ref_s,
             "traced_s": traced_s},
        )


class BuildWorkload(Workload):
    """Repeated in-process ``build_t2(check=True)``: the verifier/rewriting path."""

    name = "build"

    def setup(self):
        # what a library user waits for before the first build: a fresh
        # interpreter importing the package
        self.ctx.child.import_probe()

    def run(self, out: Outcome, seconds: float):
        self.timed_setup(out)
        host = HostClock()
        times = []
        first = None
        start = now_ns()
        while not times or (now_ns() - start) / 1e9 < seconds:
            host.sample()
            gc.collect()
            t0 = now_ns()
            try:
                bundle = ncgdirac.build_t2(check=True)
            except ncgdirac.catalog.GoldenMismatch as exc:
                bundle = None
                out.check(False, f"build_t2: {exc}")
            elapsed = now_ns() - t0
            times.append(elapsed / 1e9)
            host.record(t0, t0 + elapsed, elapsed)
            if bundle is None:
                continue
            digest = bundle_fingerprint(bundle)
            first = first or digest
            out.check(digest == first, "build_t2 structures differ from the first build")
            del bundle
        host.sample()
        record_end_to_end(out, host, self_peak_rss_mb())
        median = statistics.median(times)
        out.named.update(build_t2_s=(median, "s"), builds=(len(times), "count"),
                         builds_per_s=(len(times) / sum(times), "1/s"))

    def reference_op(self):
        start = now_ns()
        bundle = ncgdirac.build_t2(check=True)
        return (now_ns() - start) / 1e9, bundle_fingerprint(bundle)

    def traced_op(self):
        return ncgdirac.build_t2(check=True)

    def check_traced(self, out, reference, result):
        out.check(bundle_fingerprint(result) == reference,
                  "traced build_t2 differs from the untraced one")


class SpectrumWorkload(Workload):
    """``spectrum_scan(t2, mmax=8, theta)`` at seeded thetas on one bundle."""

    name = "spectrum"
    cache_from_setup = True
    setup_repeats = 3  # each set-up is a full verified build

    def setup(self):
        self.t2 = ncgdirac.build_t2(check=True)

    def theta(self) -> float:
        return seeded_theta(self.rng)

    def run(self, out: Outcome, seconds: float):
        self.timed_setup(out)
        host = HostClock()
        sector_ns: list[tuple[int, int]] = []  # (start, duration)
        scan_ns = 0
        sectors = 0
        start = now_ns()
        with SectorClock(sector_ns):
            while not sectors or (now_ns() - start) / 1e9 < seconds:
                theta = self.theta()
                host.sample()
                gc.collect()
                t0 = now_ns()
                report = ncgdirac.spectrum_scan(self.t2, SPECTRUM_MMAX, theta)
                t1 = now_ns()
                scan_ns += t1 - t0
                host.record(t0, t1, t1 - t0, SECTORS)
                sectors += SECTORS
                bad = bad_sectors(report)
                out.attempted += SECTORS
                out.failed += bad
                if bad:
                    out.notes.append(f"failed: {bad} sectors at theta={theta!r}")
        host.sample()
        record_end_to_end(out, host, self_peak_rss_mb())
        out.samples["sector"] = sector_ns
        sector_ms = [ns / 1e6 for _, ns in sector_ns]
        p50 = statistics.median(sector_ms)
        tail = tail_percentile(len(sector_ms))
        out.named.update(sectors_per_s=(sectors / (scan_ns / 1e9), "1/s"),
                         sector_ms_p50=(p50, "ms"), sector_samples=(len(sector_ms), "count"))
        if tail is not None:
            out.named[f"sector_ms_p{tail:g}"] = (percentile(sector_ms, tail), "ms")

    def reference_op(self):
        self.trace_theta = self.theta()
        start = now_ns()
        report = ncgdirac.spectrum_scan(self.t2, SPECTRUM_MMAX, self.trace_theta)
        return (now_ns() - start) / 1e9, report

    def traced_op(self):
        return ncgdirac.spectrum_scan(self.t2, SPECTRUM_MMAX, self.trace_theta)

    def check_traced(self, out, reference, result):
        bad = bad_sectors(result)
        if scan_bytes(result) != scan_bytes(reference):
            bad = SECTORS
            out.notes.append("failed: traced scan differs from the untraced one")
        out.attempted += SECTORS
        out.failed += bad


class SectorClock:
    """Times each sector (``sector_matrix`` plus its eigvals) from outside.

    The only wrapper in an untraced run: one timer pair per sector, about a
    microsecond against milliseconds of work.
    """

    def __init__(self, sink: list):
        self.sink = sink

    def __enter__(self):
        from ncgdirac import spectrum

        self.module = spectrum
        self.sector_matrix = spectrum.sector_matrix
        self.eigenvalues = spectrum.SectorMatrix.eigenvalues
        pending = [0, 0]  # start, duration of the last sector_matrix
        sink, sector_matrix, eigenvalues = self.sink, self.sector_matrix, self.eigenvalues

        def timed_sector(*args, **kwargs):
            t0 = now_ns()
            sector = sector_matrix(*args, **kwargs)
            pending[:] = t0, now_ns() - t0
            return sector

        def timed_eigenvalues(sector):
            t0 = now_ns()
            values = eigenvalues(sector)
            sink.append((pending[0], pending[1] + now_ns() - t0))
            return values

        spectrum.sector_matrix = timed_sector
        spectrum.SectorMatrix.eigenvalues = timed_eigenvalues
        return self

    def __exit__(self, *exc):
        self.module.sector_matrix = self.sector_matrix
        self.module.SectorMatrix.eigenvalues = self.eigenvalues
        return False


class CliWorkload(Workload):
    """One fresh ``python -m ncgdirac`` process per command, three commands a round."""

    name = "cli"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.theta = repr(seeded_theta(self.rng))
        self.dir = os.path.join(ctx.out_dir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.presentation_path = os.path.join(self.dir, "s3-presentation.json")

    def setup(self):
        from ncgdirac.algebra import extend_presentation
        from ncgdirac.catalog import r4_presentation, sphere_level_function

        r4 = r4_presentation()
        s3 = extend_presentation(r4, sphere_level_function(r4), name="s3")
        with open(self.presentation_path, "w") as handle:
            json.dump(s3.to_json(), handle, indent=2, sort_keys=True)
        self.ctx.child.import_probe()

    def commands(self, report_path: str) -> list[tuple[str, list[str]]]:
        return [
            ("report_all", ["report-all", "--theta", self.theta, "--out", report_path]),
            ("dirac_t2", ["dirac", "t2"]),
            ("verify_presentation", ["verify", "--presentation", self.presentation_path]),
        ]

    def run(self, out: Outcome, seconds: float):
        self.timed_setup(out)
        report_path = os.path.join(self.dir, "report-all.json")
        walls: dict[str, list[float]] = {key: [] for key, _ in self.commands(report_path)}
        first: dict[str, bytes] = {}
        rounds: list[float] = []
        peak_rss = 0.0
        host = HostClock()
        start = now_ns()
        while not rounds or (now_ns() - start) / 1e9 < seconds:
            round_start = now_ns()
            round_s = 0.0
            for key, argv in self.commands(report_path):
                if os.path.exists(report_path):
                    os.unlink(report_path)
                host.sample()
                wall, code, rss, stdout = self.ctx.child.run(["-m", "ncgdirac", *argv], key)
                payload = _read(report_path) if key == "report_all" else stdout
                first.setdefault(key, payload)
                out.check(code == 0 and payload == first[key],
                          f"{key}: exit status {code}, or output differs from its first run")
                walls[key].append(wall)
                round_s += wall
                peak_rss = max(peak_rss, rss)
            rounds.append(round_s)
            host.record(round_start, now_ns(), int(round_s * 1e9))
        host.sample()
        record_end_to_end(out, host, peak_rss)
        out.named["round_s"] = (statistics.median(rounds), "s")
        out.named.update({f"{key}_s": (statistics.median(w), "s") for key, w in walls.items()})
        out.named["rounds"] = (len(rounds), "count")

    def _round_in_process(self, report_path: str) -> dict[str, tuple[int, bytes]]:
        results = {}
        for key, argv in self.commands(report_path):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = ncgdirac.cli.main(argv)
            payload = _read(report_path) if key == "report_all" else buffer.getvalue().encode()
            results[key] = (code, payload)
        return results

    def reference_op(self):
        start = now_ns()
        results = self._round_in_process(os.path.join(self.dir, "report-untraced.json"))
        return (now_ns() - start) / 1e9, results

    def traced_op(self):
        return self._round_in_process(os.path.join(self.dir, "report-traced.json"))

    def check_traced(self, out, reference, result):
        for key, (code, payload) in result.items():
            ref_code, ref_payload = reference[key]
            out.check(code == 0 and ref_code == 0 and payload == ref_payload,
                      f"{key}: exit status {code}, or traced output differs from untraced")


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


WORKLOADS = {w.name: w for w in (BuildWorkload, SpectrumWorkload, CliWorkload)}
