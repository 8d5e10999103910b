import dataclasses
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from ncgdirac import catalog, spectrum
from ncgdirac.algebra import AlgebraElement
from ncgdirac.scalars import Scalar
from ncgdirac.spectrum import (
    SectorMatrix,
    certify_sector,
    closed_form_value,
    exact_sector,
    momentum_monomial,
    sector_basis,
    sector_matrix,
    spectrum_scan,
)
from ncgdirac.spin import mat_mul

THETAS = (0.0, 0.7, math.pi / 3)

# sha256 of the exact sectors M(m, n), |m|,|n| <= 4, as [m, n, Scalar.to_json
# rows] in row-major order (json.dumps with sort_keys): exact values, so the
# pin does not depend on the platform's floating point
EXACT_SECTORS_SHA256 = "0f47210b2619f79fa4fe8b2fb884ab506bdb18b225d7bbbec5b985abf005ae3f"


def _sorted_values(report):
    return sorted(e["value"] for e in report.eigenvalues)


def test_momentum_monomials_are_irreducible():
    for p1 in range(-3, 4):
        for p2 in range(-3, 4):
            mono = momentum_monomial(p1, p2)
            assert min(mono[0], mono[2]) == 0
            assert min(mono[1], mono[3]) == 0
            assert mono[0] - mono[2] == p1
            assert mono[1] - mono[3] == p2


def test_sector_basis_momenta():
    basis = sector_basis(2, -1)
    offsets = [(0, 0), (1, 1), (0, 1), (1, 0)]
    for (mono, alpha), (dm, dn) in zip(basis, offsets):
        assert mono[0] - mono[2] == 2 + dm
        assert mono[1] - mono[3] == -1 + dn
        assert alpha == offsets.index((dm, dn))


def test_zero_sector_eigenvalues(t2):
    m = sector_matrix(t2, 0, 0)
    values = sorted(v.real for v in m.eigenvalues())
    assert np.allclose(values, [-1.0, -1.0, 1.0, 1.0], atol=1e-10)


def test_one_zero_sector_is_sqrt5(t2):
    # +-sqrt(2) sqrt((1+1/2)^2 + (0+1/2)^2) = +-sqrt(5)
    m = sector_matrix(t2, 1, 0)
    values = sorted(v.real for v in m.eigenvalues())
    root5 = math.sqrt(5.0)
    assert np.allclose(values, [-root5, -root5, root5, root5], atol=1e-9)


def test_sector_symmetry_m_n(t2):
    for m, n in ((2, -1), (0, 3), (-2, 1)):
        a = sorted(v.real for v in sector_matrix(t2, m, n).eigenvalues())
        b = sorted(v.real for v in sector_matrix(t2, n, m).eigenvalues())
        assert np.allclose(a, b, atol=1e-9)


def test_spectrum_matches_closed_form(t2):
    report = spectrum_scan(t2, 2, 0.7)
    assert not report.fallback_used
    assert report.max_deviation < 1e-9
    for entry in report.eigenvalues:
        target = closed_form_value(entry["m"], entry["n"])
        assert min(abs(entry["value"] - target), abs(entry["value"] + target)) < 1e-9


def test_spectrum_symmetric_under_negation(t2):
    values = _sorted_values(spectrum_scan(t2, 1, 0.7))
    assert np.allclose(values, sorted(-v for v in values), atol=1e-9)


def test_isospectrality(t2):
    spectra = [_sorted_values(spectrum_scan(t2, 2, theta)) for theta in THETAS]
    for other in spectra[1:]:
        assert np.allclose(spectra[0], other, atol=1e-9)


def test_zero_sector_closed_form_value():
    assert abs(closed_form_value(0, 0) - 1.0) < 1e-15


def test_mmax_zero_scan(t2):
    report = spectrum_scan(t2, 0, 0.0)
    assert _sorted_values(report) == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-10)


def test_no_catalog_sector_escapes(t2):
    # every sector of the catalog torus factors exactly in its momentum
    scan = spectrum_scan(t2, 1, 0.0)
    assert not scan.fallback_used


def test_scan_rejects_negative_mmax(t2):
    with pytest.raises(ValueError):
        spectrum_scan(t2, -1, 0.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_scan_rejects_non_finite_theta(t2, theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        spectrum_scan(t2, 1, theta)


def test_zero_sector_entries_are_not_evaluated(t2, monkeypatch):
    # a certified scan substitutes q into no entry, zero or not: its
    # eigenvalues come from the certificate alone
    calls = []
    eval_numeric = Scalar.eval_numeric

    def counted(self, theta):
        calls.append(self)
        return eval_numeric(self, theta)

    monkeypatch.setattr(Scalar, "eval_numeric", counted)
    fresh = dataclasses.replace(t2)
    spectrum_scan(fresh, 2, 0.7)
    sector = sector_matrix(fresh, 1, -2)
    sector.eigenvalues()
    assert calls == []
    zeros = [(r, c) for r in range(4) for c in range(4) if sector.matrix[r][c].is_zero()]
    assert len(zeros) == 8


def test_report_json_schema(t2):
    payload = spectrum_scan(t2, 1, 0.7).to_json()
    assert set(payload) == {
        "theta", "mmax", "eigenvalues", "max_deviation", "fallback_used", "certificate"
    }
    assert all(set(e) == {"value", "m", "n", "deviation"} for e in payload["eigenvalues"])
    assert payload["certificate"] == {
        "subject": "t2",
        "pass": True,
        "clauses": [
            {"clause": "sector_square", "pass": True, "residual": None},
            {"clause": "sector_trace", "pass": True, "residual": None},
        ],
    }


def test_certified_values_match_numpy_eigvals(t2):
    # numpy is a cross-check only: the eigenvalues of the stored matrix,
    # evaluated here at each sampled theta, agree with the certified
    # +-sqrt(lambda^2)
    for theta in THETAS:
        for m in range(-4, 5):
            for n in range(-4, 5):
                sector = sector_matrix(t2, m, n)
                assert sector.certified
                certified = sorted(sector.eigenvalues())
                lam2 = 2 * (Fraction(2 * m + 1, 2) ** 2 + Fraction(2 * n + 1, 2) ** 2)
                assert sector.lambda_sq == lam2
                entries = [[c.eval_numeric(theta) for c in row] for row in sector.matrix]
                numeric = sorted(np.linalg.eigvals(np.array(entries)), key=lambda v: v.real)
                assert np.allclose(numeric, certified, rtol=0, atol=1e-9), (m, n, theta)


def _phase_corrupted(matrix):
    """The sector with its first nonzero entry multiplied by q^4 = exp(i theta)."""
    rows = [list(row) for row in matrix]
    r, c = next((r, c) for r in range(4) for c in range(4) if not rows[r][c].is_zero())
    rows[r][c] = rows[r][c].q_shift(4)
    return tuple(tuple(row) for row in rows)


def test_corrupted_stored_sector_fails_the_certificate(t2):
    fresh = dataclasses.replace(t2)
    fresh.sector_store[(1, 0)] = certify_sector(1, 0, _phase_corrupted(exact_sector(t2, 1, 0)))
    for theta in (0.0, 0.7):
        report = spectrum_scan(fresh, 1, theta)
        assert not report.all_passed
        failed = [c.name for c in report.certificate.failures()]
        assert failed and all(name.startswith("sector_square[1,0,") for name in failed)
        assert [c.name for c in report.certificate.clauses if c.passed] == ["sector_trace"]
    # at theta = 0 the phase is 1 and only the exact check sees the change;
    # at any theta the failing sector reports no eigenvalues, the others four each
    assert spectrum_scan(fresh, 1, 0.0).max_deviation < 1e-9
    entries = spectrum_scan(fresh, 1, 0.7).eigenvalues
    assert len(entries) == 8 * 4
    assert all((e["m"], e["n"]) != (1, 0) for e in entries)


def test_corrupted_sector_makes_the_command_fail(capsys, monkeypatch):
    from ncgdirac.cli import EXIT_FAILED, main

    def corrupted(t2, m, n):
        matrix = exact_sector(t2, m, n)
        return _phase_corrupted(matrix) if (m, n) == (0, 0) else matrix

    monkeypatch.setattr(spectrum, "exact_sector", corrupted)
    assert main(["spectrum", "t2", "--theta", "0", "--mmax", "1"]) == EXIT_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["pass"] is False
    assert payload["max_deviation"] < 1e-9


def test_failing_sector_needs_no_numpy(capsys, monkeypatch):
    # the failing certificate is the verdict: the failing sector takes no
    # numeric eigenvalues, so the command refuses it without numpy
    from ncgdirac.cli import EXIT_FAILED, main

    def corrupted(t2, m, n):
        matrix = exact_sector(t2, m, n)
        return _phase_corrupted(matrix) if (m, n) == (0, 0) else matrix

    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(spectrum, "exact_sector", corrupted)
    assert main(["spectrum", "t2", "--mmax", "1", "--theta", "0.7"]) == EXIT_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["pass"] is False
    assert len(payload["eigenvalues"]) == 32
    assert all((e["m"], e["n"]) != (0, 0) for e in payload["eigenvalues"])


def test_sector_escape_fails_the_certificate(capsys, monkeypatch):
    # an escaping sector ends the scan with a failing clause and no numbers;
    # nothing numeric stands in for it, so the scan runs without numpy
    from ncgdirac.cli import EXIT_FAILED, main

    def escaping(t2, m, n):
        raise spectrum.SectorEscape(f"sector ({m},{n}) forced out")

    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(spectrum, "exact_sector", escaping)
    assert main(["spectrum", "t2", "--mmax", "0"]) == EXIT_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["fallback_used"] is True
    assert payload["eigenvalues"] == []
    assert payload["certificate"] == {
        "subject": "t2",
        "pass": False,
        "clauses": [
            {"clause": "sector_exact[0,0]", "pass": False, "residual": "sector (0,0) forced out"},
        ],
    }


def test_rotated_dirac_built_once_per_bundle(t2, monkeypatch):
    # D~'s contraction data (the 16 images of Phi and the contracted basis
    # values) belongs to the bundle, not to each sector column: two scans of a
    # fresh bundle build it once
    contractions, rotations = [], []
    contracted_connection = catalog.contracted_connection
    gamma_nu_tilde = catalog.gamma_nu_tilde

    def counted_contraction(*args):
        contractions.append(args)
        return contracted_connection(*args)

    def counted_rotation(*args):
        rotations.append(args)
        return gamma_nu_tilde(*args)

    monkeypatch.setattr(catalog, "contracted_connection", counted_contraction)
    monkeypatch.setattr(catalog, "gamma_nu_tilde", counted_rotation)
    fresh = dataclasses.replace(t2)
    spectrum_scan(fresh, 1, 0.7)
    spectrum_scan(fresh, 1, 1.3)
    assert len(contractions) == 1
    assert len(rotations) == 16


def test_generators_built_once_per_bundle(t2, monkeypatch):
    # a sector column multiplies by no freshly built generator: two scans of
    # a fresh bundle take at most one normal form per generator
    calls = []
    generator = AlgebraElement.generator

    def counted(p, i):
        calls.append(i)
        return generator(p, i)

    monkeypatch.setattr(AlgebraElement, "generator", staticmethod(counted))
    fresh = dataclasses.replace(t2)
    spectrum_scan(fresh, 1, 0.7)
    spectrum_scan(fresh, 1, 1.3)
    assert len(calls) <= 4


def test_exact_sector_certificate(t2):
    # M(m, n)^2 = lambda^2 I and tr M = 0 exactly in Mat_4(Q(i)[q, q^-1]), so
    # every sector has the eigenvalues +-lambda, each twice, at every theta
    zero = Scalar.zero()
    for m in range(-4, 5):
        for n in range(-4, 5):
            lam2 = Scalar.rational(2 * (Fraction(2 * m + 1, 2) ** 2 + Fraction(2 * n + 1, 2) ** 2))
            sector = exact_sector(t2, m, n)
            square = mat_mul(sector, sector)
            for r in range(4):
                for c in range(4):
                    assert square[r][c] == (lam2 if r == c else zero), (m, n, r, c)
            trace = sector[0][0] + sector[1][1] + sector[2][2] + sector[3][3]
            assert trace == zero, (m, n)


def test_exact_sectors_pinned(t2):
    doc = [
        [m, n, [[c.to_json() for c in row] for row in exact_sector(t2, m, n)]]
        for m in range(-4, 5)
        for n in range(-4, 5)
    ]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == EXACT_SECTORS_SHA256


def test_second_scan_applies_no_operator(t2, monkeypatch):
    # a bundle keeps its exact sectors: a scan at another theta only
    # evaluates them, while a copy of the bundle starts with none
    calls = []
    dtilde_apply = spectrum.dtilde_apply

    def counted(*args):
        calls.append(args)
        return dtilde_apply(*args)

    monkeypatch.setattr(spectrum, "dtilde_apply", counted)
    fresh = dataclasses.replace(t2)
    spectrum_scan(fresh, 1, 0.7)
    cold = len(calls)
    assert cold == 9 * 4
    spectrum_scan(fresh, 1, 1.3)
    assert len(calls) == cold
    spectrum_scan(dataclasses.replace(fresh), 1, 1.3)
    assert len(calls) == 2 * cold


def test_sector_store_hands_out_a_frozen_sector(t2):
    # the store hands out its sector itself, but nothing in it that a caller
    # can change: the sector is frozen and eigenvalues() is a fresh list
    fresh = dataclasses.replace(t2)
    want = spectrum_scan(fresh, 1, 0.7).to_json()
    sector = sector_matrix(fresh, 0, 0)
    assert sector is fresh.sector_store[(0, 0)]
    sector.eigenvalues()[0] = 99.0
    assert spectrum_scan(fresh, 1, 0.7).to_json() == want
    assert len(fresh.sector_store) == 9
    for stored in fresh.sector_store.values():
        assert type(stored) is SectorMatrix and stored.certified
        with pytest.raises(dataclasses.FrozenInstanceError):
            stored.square = (("forged", Scalar.one()),)
        assert type(stored.matrix) is tuple and all(type(row) is tuple for row in stored.matrix)
        assert all(type(c) is Scalar for row in stored.matrix for c in row)
        assert type(stored.square) is tuple and type(stored.trace) is tuple
