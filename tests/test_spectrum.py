import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from ncgdirac import catalog, spectrum
from ncgdirac.algebra import AlgebraElement
from ncgdirac.geometry import ContractedConnection
from ncgdirac.scalars import Scalar
from ncgdirac.tensors import BasisWord, LeftLinearMap, TensorElement
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

from closed_forms import replace
from kernel_reference import reference_certify_sector, reference_exact_sector, reference_scan

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


@pytest.mark.parametrize("space", ["r4", "s3"])
def test_scan_refuses_a_bundle_that_is_not_the_torus(request, space):
    # s3 is a hypersurface but not of a hypersurface: it has no torus sectors,
    # so the scan refuses it before building one instead of failing a
    # certificate; r4 has no hypersurface at all
    bundle = replace(request.getfixturevalue(space))
    with pytest.raises(ValueError, match=f"{space} is not a hypersurface of a hypersurface"):
        spectrum_scan(bundle, 0, 0.7)
    assert bundle.sector_store == {}


def test_scan_certificate_is_named_after_the_bundle(t2):
    renamed = replace(t2, name="torus")
    assert spectrum_scan(renamed, 0, 0.7).certificate.subject == "torus"
    assert spectrum_scan(t2, 0, 0.7).certificate.subject == "t2"


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
    fresh = replace(t2)
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
    fresh = replace(t2)
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
    gamma_nu_tilde = catalog.gamma_nu_tilde

    def counted_contraction(*args):
        contractions.append(args)
        return ContractedConnection(*args)

    def counted_rotation(*args):
        rotations.append(args)
        return gamma_nu_tilde(*args)

    monkeypatch.setattr(catalog, "ContractedConnection", counted_contraction)
    monkeypatch.setattr(catalog, "gamma_nu_tilde", counted_rotation)
    fresh = replace(t2)
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
    fresh = replace(t2)
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
    # evaluates them, while a copy of the bundle starts with none; each
    # sector column is one add_term of the bundle's operator
    calls = []
    add_term = ContractedConnection.add_term

    def counted(*args):
        calls.append(args)
        return add_term(*args)

    monkeypatch.setattr(ContractedConnection, "add_term", counted)
    fresh = replace(t2)
    spectrum_scan(fresh, 1, 0.7)
    cold = len(calls)
    assert cold == 9 * 4
    spectrum_scan(fresh, 1, 1.3)
    assert len(calls) == cold
    spectrum_scan(replace(fresh), 1, 1.3)
    assert len(calls) == 2 * cold


def test_sector_store_hands_out_a_frozen_sector(t2):
    # the store hands out its sector itself, but nothing in it that a caller
    # can change: the sector refuses assignment and deletion, takes no new
    # attribute (it has no __dict__), and eigenvalues() is a fresh list
    fresh = replace(t2)
    want = spectrum_scan(fresh, 1, 0.7).to_json()
    sector = sector_matrix(fresh, 0, 0)
    assert sector is fresh.sector_store[(0, 0)]
    sector.eigenvalues()[0] = 99.0
    assert spectrum_scan(fresh, 1, 0.7).to_json() == want
    assert len(fresh.sector_store) == 9
    for stored in fresh.sector_store.values():
        assert type(stored) is SectorMatrix and stored.certified
        kept = (stored.square, stored.trace, stored.matrix)
        with pytest.raises(AttributeError):
            stored.square = (("forged", Scalar.one()),)
        with pytest.raises(AttributeError):
            del stored.trace
        with pytest.raises(AttributeError):
            stored.matrix = ()
        with pytest.raises(AttributeError):
            stored.forged = 1
        assert not hasattr(stored, "__dict__")
        assert (stored.square, stored.trace, stored.matrix) == kept and stored.certified
        assert type(stored.matrix) is tuple and all(type(row) is tuple for row in stored.matrix)
        assert all(type(c) is Scalar for row in stored.matrix for c in row)
        assert type(stored.square) is tuple and type(stored.trace) is tuple


def test_scan_assembly_matches_the_reference_loop(t2, monkeypatch):
    # the scan sorts one -root row and one +root row per sector, lows and
    # highs apart, and emits each row as two dicts; the reference builds four
    # dicts per sector and sorts them all by a key function: the reports are
    # equal, also at mmax = 8, where many sectors share one lambda^2, and for
    # a failing sector and an escaping one
    for mmax in range(5):
        for theta in THETAS:
            assert spectrum_scan(t2, mmax, theta).to_json() == reference_scan(t2, mmax, theta).to_json()
    for theta in (0.7, 2.9):
        assert spectrum_scan(t2, 8, theta).to_json() == reference_scan(t2, 8, theta).to_json()
    exact = spectrum.exact_sector

    def corrupted(bundle, m, n):
        matrix = exact(bundle, m, n)
        return _phase_corrupted(matrix) if (m, n) == (0, 0) else matrix

    def escaping(bundle, m, n):
        if (m, n) == (1, -1):
            raise spectrum.SectorEscape(f"sector ({m},{n}) forced out")
        return exact(bundle, m, n)

    for patched, failing in ((corrupted, "sector_square[0,0,"), (escaping, "sector_exact[1,-1]")):
        monkeypatch.setattr(spectrum, "exact_sector", patched)
        fresh = replace(t2)
        got, want = spectrum_scan(fresh, 2, 0.7).to_json(), reference_scan(fresh, 2, 0.7).to_json()
        assert got == want
        assert any(c["clause"].startswith(failing) and not c["pass"] for c in got["certificate"]["clauses"])


def test_scan_reads_each_sector_once(t2, monkeypatch):
    # a warm mmax = 8 scan takes each of its 17^2 sectors from the store once
    # and asks it once for its eigenvalues
    spectrum_scan(t2, 8, 0.7)
    sectors, eigenvalues = [], []
    stored, sector_eigenvalues = spectrum.sector_matrix, SectorMatrix.eigenvalues

    def counted_sector(*args):
        sectors.append(args[1:])
        return stored(*args)

    def counted_eigenvalues(sector):
        eigenvalues.append((sector.m, sector.n))
        return sector_eigenvalues(sector)

    monkeypatch.setattr(spectrum, "sector_matrix", counted_sector)
    monkeypatch.setattr(SectorMatrix, "eigenvalues", counted_eigenvalues)
    report = spectrum_scan(t2, 8, 1.3)
    assert len(sectors) == len(set(sectors)) == 289
    assert eigenvalues == sectors
    assert len(report.eigenvalues) == 4 * 289


def test_scan_entries_are_dicts_of_their_own(t2):
    # mutating one entry leaves its twin (the equal eigenvalue of its sector)
    # and the next scan unchanged
    report = spectrum_scan(t2, 2, 0.7)
    want = spectrum_scan(t2, 2, 0.7).to_json()
    entries = report.eigenvalues
    assert len({id(e) for e in entries}) == len(entries) == 25 * 4
    first, twin = entries[0], entries[1]
    assert first == twin and first is not twin
    first["value"] = 99.0
    assert twin == want["eigenvalues"][1]
    assert spectrum_scan(t2, 2, 0.7).to_json() == want


MMAX8 = [(m, n) for m in range(-8, 9) for n in range(-8, 9)]


def test_kernel_sector_columns_match_the_element_loop(t2):
    # each column is read from the raw sums of the bundle's operator; the
    # reference reads it from the element dtilde_apply builds
    fresh = replace(t2)
    for m, n in MMAX8:
        assert exact_sector(fresh, m, n) == reference_exact_sector(fresh, m, n), (m, n)


def _escaping_bundle(t2, part, word, extra):
    """A copy of t2 whose operator has extra added to the stored image of word in part (k or phi)."""
    fresh = replace(t2)
    operator = ContractedConnection(t2.structures.spin.spin_connection, t2.rotated_gamma)
    stored = getattr(operator, part)
    images = {**stored.images, word: stored.images[word] + extra}
    setattr(operator, part, LeftLinearMap(stored.presentation, stored.domain, stored.codomain, images))
    fresh.__dict__["rotated_dirac"] = operator
    return fresh


@pytest.mark.parametrize("part", ["k", "phi"])
def test_kernel_escaping_column_keeps_its_message(t2, part):
    # an image coefficient outside the receiving monomial escapes with the
    # message of the element loop, byte for byte, from either stored map
    p = t2.presentation
    z1 = AlgebraElement.generator(p, 0)
    word = BasisWord((), 0) if part == "k" else BasisWord((0,), 0)
    fresh = _escaping_bundle(t2, part, word, TensorElement.basis(p, (), 2, z1))
    messages = {}
    for m, n in ((1, -1), (1, 0), (2, 3)):
        got, want = [], []
        for build, into in ((exact_sector, got), (reference_exact_sector, want)):
            with pytest.raises(spectrum.SectorEscape) as caught:
                build(fresh, m, n)
            into.append(str(caught.value))
        assert got == want and "outside monomial" in got[0]
        messages[m, n] = got[0]
    report = spectrum_scan(fresh, 1, 0.7)
    assert report.fallback_used and not report.eigenvalues
    (clause,) = report.certificate.clauses
    assert not clause.passed
    if part == "k":  # every sector's first column escapes
        assert clause.name == "sector_exact[-1,-1]"
    else:  # the first column with a z1 letter is in the sector (1, -1)
        assert clause.name == "sector_exact[1,-1]" and clause.residual == messages[1, -1]


def test_kernel_exact_sector_refuses_a_bundle_without_a_normal(r4):
    with pytest.raises(ValueError, match="r4 is not a hypersurface"):
        exact_sector(r4, 0, 0)


def _scaled_entry(matrix):
    rows = [list(row) for row in matrix]
    r, c = next((r, c) for r in range(4) for c in range(4) if not rows[r][c].is_zero())
    rows[r][c] = rows[r][c] * Scalar.rational(3)
    return tuple(tuple(row) for row in rows)


def _diagonal_block_entry(matrix):
    # a torus sector is zero on its two diagonal 2x2 blocks
    rows = [list(row) for row in matrix]
    assert rows[0][1].is_zero()
    rows[0][1] = Scalar.q_power(-2, 5) + Scalar.rational(Fraction(1, 3))
    return tuple(tuple(row) for row in rows)


def test_kernel_certify_sector_matches_the_scalar_loop(t2):
    # the square is summed in raw coefficient dicts; the reference builds one
    # Scalar per product: equal sectors, residuals in the same labels and order
    for m, n in MMAX8:
        matrix = exact_sector(t2, m, n)
        assert certify_sector(m, n, matrix) == reference_certify_sector(m, n, matrix), (m, n)
    for corrupt in (_phase_corrupted, _scaled_entry, _diagonal_block_entry):
        for m, n in ((0, 0), (2, -3), (-8, 8)):
            matrix = corrupt(exact_sector(t2, m, n))
            got, want = certify_sector(m, n, matrix), reference_certify_sector(m, n, matrix)
            assert got == want and not got.certified
            assert [label for label, _ in got.square] == [label for label, _ in want.square]
            assert [r.to_json() for _, r in got.square] == [r.to_json() for _, r in want.square]
            assert [r.to_json() for _, r in got.trace] == [r.to_json() for _, r in want.trace]


def test_sector_keeps_one_deviation_for_its_four_eigenvalues(t2):
    # -root + t, t - root and root - t have one absolute value, bit for bit,
    # stored once as a field of the sector; eigenvalues stays a method of
    # the class, as the sector clock wraps it
    assert "eigenvalues" in SectorMatrix.__dict__ and "deviation" in SectorMatrix._fields
    fresh = replace(t2)
    spectrum_scan(fresh, 8, 0.7)
    for (m, n), sector in fresh.sector_store.items():
        t = closed_form_value(m, n)
        v1, v2, v3, v4 = sector.eigenvalues()
        deviations = {abs(v1 + t), abs(v2 + t), abs(v3 - t), abs(v4 - t)}
        assert deviations == {sector.deviation}
        assert sector.eigenvalues() is not sector.eigenvalues()
