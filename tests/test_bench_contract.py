"""The engine surface the benchmark files rely on.

bench/tracer.py patches functions and methods by (module, qualified name); a
renamed or moved target would otherwise break only the traced benchmark run.
The tracer file is loaded read-only and its own resolver is used.  The
structure digest bench/workloads.py checks each build against must not move.
"""

import importlib.util
from pathlib import Path

import pytest

from closed_forms import replace

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH_DIR / "tracer.py"

# bundle_fingerprint digests of the catalog spaces: every induced structure
# and the assumption certificate, all exact, so the same on any machine.
# FINGERPRINTS digest the bundle with each connection value replaced by its
# canonical representative: the induced classes, which no representative
# choice may move.  STORED_FINGERPRINTS digest the bundle as built, whose
# induced connection keeps the Gauss formula's unprojected representative;
# that is the digest bench/workloads.py sees.
FINGERPRINTS = {
    "s3": "8c0f1b61df1c8dd4012c812c6f8cbd4c3c671fc973ae64ef9a0ee68ef80d3abc",
    "t2": "cf58c48542b45c8be83b9234f41d2a40295ff000de5754011b9e3c4750a9c1d0",
}
STORED_FINGERPRINTS = {
    "s3": "473756714c415d2899d671613faac3c790435d0b555c1f6bbbcb18e026a60136",
    "t2": "5e3d3d3bc4dabaf095f6381f9117d5aff5156956b3596c2c2827f06074fc776a",
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("ncgdirac_bench_tracer", TRACER_PATH)
TARGETS = [
    pytest.param(module, qualname, id=key)
    for table in (tracer.COUNTED, tracer.TIMED, tracer.STAGES)
    for key, (module, qualname) in table.items()
]


def _workloads(monkeypatch):
    # bench/workloads.py imports its tracer by plain module name, so bench/
    # goes on the path while it loads
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return _load("ncgdirac_bench_workloads", BENCH_DIR / "workloads.py")


def _canonical_connection(bundle):
    """The bundle with each induced connection value replaced by canon of it."""
    from ncgdirac.geometry import Connection

    s = bundle.structures
    conn = s.connection
    values = {w: s.calculus.canon(v) for w, v in conn.values.items()}
    structures = replace(s, connection=Connection(conn.calculus, values, conn.sigma))
    return replace(bundle, structures=structures)


@pytest.mark.parametrize("module, qualname", TARGETS)
def test_traced_target_resolves(module, qualname):
    _, _, target = tracer._resolve(module, qualname)
    assert callable(target)


def test_sector_clock_targets_are_reached(t2, monkeypatch):
    # bench/workloads.py's SectorClock times each sector by replacing the
    # module attribute spectrum.sector_matrix and SectorMatrix.eigenvalues;
    # a scan must reach both through those names, once per sector
    from ncgdirac import spectrum

    calls = {"sector_matrix": 0, "eigenvalues": 0}
    sector_matrix, eigenvalues = spectrum.sector_matrix, spectrum.SectorMatrix.eigenvalues

    def counted_sector(*args, **kwargs):
        calls["sector_matrix"] += 1
        return sector_matrix(*args, **kwargs)

    def counted_eigenvalues(sector):
        calls["eigenvalues"] += 1
        return eigenvalues(sector)

    monkeypatch.setattr(spectrum, "sector_matrix", counted_sector)
    monkeypatch.setattr(spectrum.SectorMatrix, "eigenvalues", counted_eigenvalues)
    spectrum.spectrum_scan(t2, 1, 0.7)
    assert calls == {"sector_matrix": 9, "eigenvalues": 9}


@pytest.mark.parametrize("space", sorted(FINGERPRINTS))
def test_bundle_fingerprint_unchanged(space, s3, t2, monkeypatch):
    # the induced classes: bench/workloads.py's digest, reading the
    # certificate through certificate.to_report, of the bundle with canonical
    # connection values
    workloads = _workloads(monkeypatch)
    bundle = {"s3": s3, "t2": t2}[space]
    assert workloads.bundle_fingerprint(_canonical_connection(bundle)) == FINGERPRINTS[space]


@pytest.mark.parametrize("space", sorted(STORED_FINGERPRINTS))
def test_stored_bundle_fingerprint_unchanged(space, s3, t2, monkeypatch):
    # the stored representatives: bench/workloads.py checks every build
    # against the digest of the bundle as built
    workloads = _workloads(monkeypatch)
    bundle = {"s3": s3, "t2": t2}[space]
    assert workloads.bundle_fingerprint(bundle) == STORED_FINGERPRINTS[space]


def test_bounded_product_cache_changes_no_output(t2, monkeypatch):
    # past algebra.PRODUCT_CACHE_BOUND products, twists and derivatives are
    # computed without being stored; a tiny bound must give the same bundle
    # and scan bytes, and no presentation's cache or memo may pass it
    from ncgdirac import algebra
    from ncgdirac.catalog import build_t2
    from ncgdirac.spectrum import spectrum_scan

    workloads = _workloads(monkeypatch)
    want_scan = workloads.scan_bytes(spectrum_scan(t2, 2, 0.7))
    bound = 16
    monkeypatch.setattr(algebra, "PRODUCT_CACHE_BOUND", bound)
    with tracer.PresentationTracker() as tracked:
        small = build_t2(check=True)
        scan = workloads.scan_bytes(spectrum_scan(small, 2, 0.7))
    assert workloads.bundle_fingerprint(small) == STORED_FINGERPRINTS["t2"]
    assert scan == want_scan
    assert tracked.presentations
    for memo in ("_product_cache", "_twist_cache", "_derivative_cache"):
        sizes = [len(getattr(p, memo)) for p in tracked.presentations]
        assert max(sizes) == bound, memo


def test_scan_bytes_do_not_depend_on_scan_history(t2, monkeypatch):
    # the spectrum workload compares a warm traced scan with the cold scan
    # before it: a bundle's stored sectors must give the bytes a fresh
    # bundle gives, whichever thetas it scanned before
    from ncgdirac.spectrum import spectrum_scan

    workloads = _workloads(monkeypatch)
    thetas = (0.7, 2.3, 0.7)
    cold = [workloads.scan_bytes(spectrum_scan(replace(t2), 2, th)) for th in thetas]
    fresh = replace(t2)
    warm = [workloads.scan_bytes(spectrum_scan(fresh, 2, th)) for th in thetas]
    assert warm == cold


def test_bounded_sector_store_changes_no_output(t2, monkeypatch):
    # past spectrum.SECTOR_STORE_BOUND a sector is computed without being
    # stored; a tiny bound must give the same scan bytes
    from ncgdirac import spectrum

    workloads = _workloads(monkeypatch)
    want = workloads.scan_bytes(spectrum.spectrum_scan(replace(t2), 2, 0.7))
    monkeypatch.setattr(spectrum, "SECTOR_STORE_BOUND", 5)
    small = replace(t2)
    for _ in range(2):
        assert workloads.scan_bytes(spectrum.spectrum_scan(small, 2, 0.7)) == want
    assert len(small.sector_store) == 5
