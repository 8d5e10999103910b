"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every symbolic assertion is exact (zero residual); numeric tolerances are
pinned in the assertions below and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from ncgdirac.algebra import AlgebraElement, brute_force_normal_form, normal_form
from ncgdirac.catalog import (
    SPINOR_RANK,
    build_r4,
    build_s3,
    build_t2,
    dtilde_apply,
    gamma_nu_tilde,
    r4_presentation,
    sphere_level_function,
    torus_level_function,
)
from ncgdirac.algebra import extend_presentation
from ncgdirac.geometry import verify_metric
from ncgdirac.hypersurface import induced_dirac
from ncgdirac.scalars import Scalar
from ncgdirac.spin import dirac, gamma_apply, verify_spinorial
from ncgdirac.tensors import TensorElement, tensor

from closed_forms import check_goldens, phi_basis, undeformed_spin_structure


def _report(number: int, passed: bool, detail: str):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _rand_element(p, rng, max_degree):
    word = [rng.randrange(4) for _ in range(rng.randint(0, max_degree))]
    return normal_form(word, Scalar.q_power(rng.randint(-1, 1)), p)


def _rand_spinor(p, rng, max_degree):
    total = TensorElement.zero(p, 0, True)
    for _ in range(rng.randint(1, 2)):
        total = total + TensorElement.basis(
            p, (), rng.randrange(SPINOR_RANK), _rand_element(p, rng, max_degree)
        )
    return total


def test_criterion_1_r4_axiom_suite():
    start = time.monotonic()
    r4 = build_r4()
    s = r4.structures
    mr = verify_metric(s.metric, s.connection)
    sr = verify_spinorial(s.spin, s.metric, s.connection)
    elapsed = time.monotonic() - start
    clauses = len(mr.clauses) + len(sr.clauses)
    failures = mr.failures() + sr.failures()
    ok = mr.all_passed and sr.all_passed and elapsed < 5.0
    _report(
        1,
        ok,
        f"flat-space axiom suite, {clauses} clauses, "
        f"{len(failures)} failures, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_undeformed_negative_control():
    r4 = build_r4()
    s = r4.structures
    undeformed = undeformed_spin_structure(r4)
    symbolic = verify_spinorial(undeformed, s.metric, s.connection)
    clifford_failures = [
        c for c in symbolic.failures() if c.name.startswith("clifford_relations")
    ]
    nonzero_residuals = all(c.residual is not None for c in clifford_failures)

    classical = build_r4(classical=True)
    sc = classical.structures
    at_zero = verify_spinorial(sc.spin, sc.metric, sc.connection)

    ok = bool(clifford_failures) and nonzero_residuals and at_zero.all_passed
    _report(
        2,
        ok,
        f"classical gammas: {len(clifford_failures)} Clifford clauses fail "
        f"symbolically with residuals, suite passes at theta=0",
    )


def test_criterion_3_s3_induction():
    start = time.monotonic()
    s3 = build_s3()  # verification runs inside
    check_goldens(s3)
    h = s3.hypersurface
    p = s3.presentation
    assert h.certificate.all_passed

    checks = 0
    for alpha in range(SPINOR_RANK):
        e_a = TensorElement.basis(p, (), alpha)
        got = induced_dirac(h, e_a)
        assert got == e_a.scale(Scalar.rational(Fraction(-3, 2)))
        checks += 1

    from closed_forms import sphere_dirac_closed_form

    rng = random.Random(2024)
    for _ in range(25):
        s = _rand_spinor(p, rng, max_degree=2)
        diff = dirac(s3.structures.spin, s) - induced_dirac(h, s)
        assert diff.is_zero()
        assert (induced_dirac(h, s) - sphere_dirac_closed_form(s3, s)).is_zero()
        checks += 2
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    _report(
        3,
        ok,
        f"sphere induction: certificate, golden closed forms, "
        f"D_B(e_a) = -3/2 e_a, {checks} exact checks, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_4_t2_induction():
    t2 = build_t2()  # iterated induction with verification inside
    check_goldens(t2)
    h = t2.hypersurface
    p = t2.presentation
    assert h.certificate.all_passed

    dphi1, dphi2 = phi_basis(t2)
    metric = t2.structures.metric
    two = AlgebraElement.from_scalar(p, Scalar.rational(2))
    assert metric.pair(tensor(dphi1, dphi1)) == two
    assert metric.pair(tensor(dphi2, dphi2)) == two
    assert metric.pair(tensor(dphi1, dphi2)).is_zero()
    assert metric.pair(tensor(dphi2, dphi1)).is_zero()

    from closed_forms import torus_dirac_closed_form

    rng = random.Random(2025)
    checks = 4
    for _ in range(20):
        s = _rand_spinor(p, rng, max_degree=2)
        assert (
            gamma_nu_tilde(t2, induced_dirac(h, s)) - dtilde_apply(t2, s)
        ).is_zero()
        assert (gamma_nu_tilde(t2, gamma_nu_tilde(t2, s)) + s).is_zero()
        diff = dirac(t2.structures.spin, s) - induced_dirac(h, s)
        assert diff.is_zero()
        assert (induced_dirac(h, s) - torus_dirac_closed_form(t2, s)).is_zero()
        checks += 4
    _report(
        4,
        True,
        f"torus induction: certificate, golden closed forms, phi-metric "
        f"2*delta, coordinate Dirac formula, rotated-operator paths, "
        f"{checks} exact checks",
    )


def test_criterion_5_spectrum():
    from ncgdirac.spectrum import sector_matrix, spectrum_scan

    t2 = build_t2(check=False)
    start = time.monotonic()
    thetas = (0.0, 0.7, math.pi / 3)
    mmax = 5
    max_dev = 0.0
    spectra = []
    for theta in thetas:
        report = spectrum_scan(t2, mmax, theta)
        assert not report.fallback_used
        max_dev = max(max_dev, report.max_deviation)
        spectra.append(sorted(e["value"] for e in report.eigenvalues))
    iso_dev = max(
        float(np.max(np.abs(np.array(spectra[0]) - np.array(other))))
        for other in spectra[1:]
    )
    zero_values = sorted(v.real for v in sector_matrix(t2, 0, 0).eigenvalues())
    zero_dev = float(np.max(np.abs(np.array(zero_values) - np.array([-1.0, -1.0, 1.0, 1.0]))))
    elapsed = time.monotonic() - start
    ok = max_dev < 1e-9 and iso_dev < 1e-9 and zero_dev < 1e-10 and elapsed < 5.0
    _report(
        5,
        ok,
        f"spectrum |m|,|n| <= {mmax}, thetas {thetas}: closed-form deviation "
        f"{max_dev:.2e} (< 1e-9), isospectrality {iso_dev:.2e} (< 1e-9), "
        f"zero sector {zero_dev:.2e} (< 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_6_oracle_equivalence():
    p_r4 = r4_presentation()
    p_s3 = extend_presentation(p_r4, sphere_level_function(p_r4), name="s3")
    p_t2 = extend_presentation(
        p_s3, torus_level_function(p_r4).convert(p_s3), name="t2"
    )
    rng = random.Random(20240808)
    total = 0
    for p in (p_r4, p_s3, p_t2):
        memo = {}
        for _ in range(1000):
            word = [rng.randrange(4) for _ in range(rng.randint(0, 6))]
            fast = normal_form(word, Scalar.one(), p)
            oracle = brute_force_normal_form(word, Scalar.one(), p, memo)
            assert fast == oracle, f"mismatch on word {word} in {p.name}"
            total += 1
    _report(6, True, f"brute-force reordering oracle agrees on {total} words")


def test_criterion_7_dirac_derivation_property():
    r4 = build_r4()
    s3 = build_s3(check=False)
    t2 = build_t2(check=False)
    rng = random.Random(77)
    total = 0
    for bundle in (r4, s3, t2):
        p = bundle.presentation
        spin = bundle.structures.spin
        calc = bundle.structures.calculus
        h = bundle.hypersurface

        def apply_dirac(s):
            return dirac(spin, s) if h is None else induced_dirac(h, s)

        for _ in range(100):
            a = _rand_element(p, rng, max_degree=3)
            s = _rand_spinor(p, rng, max_degree=3)
            lhs = apply_dirac(s.left_mul(a))
            rhs = apply_dirac(s).left_mul(a) + gamma_apply(spin, tensor(calc.d(a), s))
            assert (lhs - rhs).is_zero(), f"derivation property failed on {bundle.name}"
            total += 1
    _report(7, True, f"D(a s) = a D(s) + gamma(da (x) s) on {total} random pairs")
