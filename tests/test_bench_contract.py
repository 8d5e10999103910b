"""Every engine name the benchmark tracer wraps must still resolve.

bench/tracer.py patches functions and methods by (module, qualified name); a
renamed or moved target would otherwise break only the traced benchmark run.
The tracer file is loaded read-only and its own resolver is used.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("ncgdirac_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = [
    pytest.param(module, qualname, id=key)
    for table in (tracer.COUNTED, tracer.TIMED, tracer.STAGES)
    for key, (module, qualname) in table.items()
]


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
