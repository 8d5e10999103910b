import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncgdirac import spin as spin_module
from ncgdirac.algebra import AlgebraElement, normal_form
from ncgdirac.catalog import (
    SPINOR_RANK,
    gamma_theta_matrices,
    metric_upper,
)
from ncgdirac.scalars import GaussianRational, Scalar
from ncgdirac.spin import dirac, gamma_apply, gamma_iterated, mat_mul, verify_spinorial
from ncgdirac.tensors import TensorElement, differential, tensor

from closed_forms import mat_scale, partial_coeffs, theta_brackets, undeformed_spin_structure
from kernel_reference import reference_mat_mul


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def identity_matrix(rank):
    return tuple(
        tuple(Scalar.one() if r == c else Scalar.zero() for c in range(rank))
        for r in range(rank)
    )


def e(p, alpha, coeff=None):
    return TensorElement.basis(p, (), alpha, coeff)


def dz(p, *indices):
    return TensorElement.basis(p, tuple(indices))


def test_gamma_matches_matrix_action(r4):
    from ncgdirac.tensors import BasisWord

    p = r4.presentation
    gam = r4.base_matrices
    spin = r4.structures.spin
    for i in range(4):
        for alpha in range(SPINOR_RANK):
            got = gamma_apply(spin, tensor(dz(p, i), e(p, alpha)))
            terms = {
                BasisWord((), beta): AlgebraElement.from_scalar(p, gam[i][beta][alpha])
                for beta in range(SPINOR_RANK)
                if not gam[i][beta][alpha].is_zero()
            }
            assert got == TensorElement(p, 0, True, terms)


def test_theta_anticommutator_table(r4):
    for i in range(4):
        for j in range(4):
            anti, _ = theta_brackets(r4.base_matrices, r4.presentation.R, i, j)
            want = mat_scale(identity_matrix(4), Scalar.rational(-2 * metric_upper(i, j)))
            assert anti == want, (i, j)


def test_theta_anticommutator_examples(r4):
    anti13, _ = theta_brackets(r4.base_matrices, r4.presentation.R, 0, 2)
    assert anti13 == mat_scale(identity_matrix(4), Scalar.rational(-4))
    anti11, _ = theta_brackets(r4.base_matrices, r4.presentation.R, 0, 0)
    assert mat_is_zero(anti11)


def test_theta_anticommutator_symmetry(r4):
    p = r4.presentation
    for i in range(4):
        for j in range(4):
            aij, _ = theta_brackets(r4.base_matrices, p.R, i, j)
            aji, _ = theta_brackets(r4.base_matrices, p.R, j, i)
            assert aij == mat_scale(aji, p.R[j][i])


def test_theta_commutator_antisymmetry(r4):
    p = r4.presentation
    for i in range(4):
        for j in range(4):
            _, cij = theta_brackets(r4.base_matrices, p.R, i, j)
            _, cji = theta_brackets(r4.base_matrices, p.R, j, i)
            flipped = mat_scale(cji, Scalar.rational(-1) * p.R[j][i])
            assert cij == flipped


def test_gamma2_on_symmetrized_pair(r4):
    # gamma_[2]((dz1 (x) dz3 + sigma(dz1 (x) dz3)) (x) e_a) = -2 g^{13} e_a
    p = r4.presentation
    s = r4.structures
    pair = tensor(dz(p, 0), dz(p, 2))
    sym = pair + s.connection.sigma.apply(pair)
    for alpha in range(SPINOR_RANK):
        got = gamma_iterated(s.spin, tensor(sym, e(p, alpha)))
        assert got == e(p, alpha).scale(Scalar.rational(-4))


def test_gamma_of_zero(r4):
    p = r4.presentation
    zero = TensorElement.zero(p, 1, True)
    assert gamma_apply(r4.structures.spin, zero).is_zero()


def test_dirac_kills_basis_spinors(r4):
    p = r4.presentation
    for alpha in range(SPINOR_RANK):
        assert dirac(r4.structures.spin, e(p, alpha)).is_zero()


def test_dirac_on_linear_spinor(r4):
    # D(z1 e_1) = gamma^1 e_1, read from the matrix action
    p = r4.presentation
    z1 = AlgebraElement.generator(p, 0)
    got = dirac(r4.structures.spin, e(p, 0, z1))
    want = gamma_apply(r4.structures.spin, tensor(dz(p, 0), e(p, 0)))
    assert got == want


def test_dirac_equals_gamma_partial_sum(r4):
    # D(s) = sum_i gamma^i partial_i s
    p = r4.presentation
    spin = r4.structures.spin
    rng = random.Random(13)
    for _ in range(10):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 3))]
        a = normal_form(word, Scalar.one(), p)
        alpha = rng.randrange(SPINOR_RANK)
        s = e(p, alpha, a)
        want = TensorElement.zero(p, 0, True)
        for i, part in enumerate(partial_coeffs(a)):
            if not part.is_zero():
                want = want + gamma_apply(spin, tensor(dz(p, i), e(p, alpha)).left_mul(part))
        assert dirac(spin, s) == want


def rand_spinor(p, rng, max_degree=3):
    total = TensorElement.zero(p, 0, True)
    for _ in range(rng.randint(1, 2)):
        word = [rng.randrange(4) for _ in range(rng.randint(0, max_degree))]
        total = total + e(p, rng.randrange(SPINOR_RANK), normal_form(word, Scalar.one(), p))
    return total


def test_dirac_derivation_property(r4):
    # D(a s) = a D(s) + gamma(da (x) s)
    p = r4.presentation
    spin = r4.structures.spin
    rng = random.Random(19)
    for _ in range(25):
        word = [rng.randrange(4) for _ in range(rng.randint(0, 3))]
        a = normal_form(word, Scalar.one(), p)
        s = rand_spinor(p, rng)
        lhs = dirac(spin, s.left_mul(a))
        rhs = dirac(spin, s).left_mul(a) + gamma_apply(spin, tensor(differential(a), s))
        assert (lhs - rhs).is_zero()


def test_r4_spinorial_suite_passes(r4):
    s = r4.structures
    report = verify_spinorial(s.spin, s.metric, s.connection)
    assert report.all_passed, [c.name for c in report.failures()]


@pytest.mark.parametrize("space", ["r4", "s3", "t2"])
def test_verify_spinorial_applies_gamma_once_per_residual_slot(request, monkeypatch, space):
    # clifford_relations stores gamma_[2] of (w + sigma(w)) (x) e_a on the
    # free words, not of each summand: 2 gamma applications per (w, alpha),
    # plus 2 per clifford_compatibility image on the free dz_k (x) e_a: gamma
    # of the word itself, and gamma at slot 1 of the tensor-product
    # connection's stored value on it, which the image contracts directly
    s = request.getfixturevalue(space).structures
    calls = []

    def counting(spin, e):
        calls.append(e.degree)
        return gamma_apply(spin, e)

    monkeypatch.setattr(spin_module, "gamma_apply", counting)
    assert verify_spinorial(s.spin, s.metric, s.connection).all_passed
    n = s.presentation.n
    assert len(calls) == 2 * n * n * SPINOR_RANK + 2 * n * SPINOR_RANK


def test_undeformed_gammas_fail_symbolically(r4):
    s = r4.structures
    undeformed = undeformed_spin_structure(r4)
    report = verify_spinorial(undeformed, s.metric, s.connection)
    failing = [c for c in report.failures() if c.name.startswith("clifford_relations")]
    assert failing, "classical gamma matrices must violate the braided Clifford relations"
    assert all(c.residual is not None for c in failing)


def test_undeformed_gammas_pass_at_theta_zero(r4_classical):
    s = r4_classical.structures
    report = verify_spinorial(s.spin, s.metric, s.connection)
    assert report.all_passed, [c.name for c in report.failures()]


def test_deformed_matrices_specialize_to_classical():
    deformed = gamma_theta_matrices()
    classical = gamma_theta_matrices(classical=True)
    for i in range(4):
        for r in range(4):
            for c in range(4):
                assert deformed[i][r][c].at_q_one() == classical[i][r][c]


COEFFS = [GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
          GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-3, 2), Fraction(1, 3))]


@st.composite
def scalar_matrices(draw, n):
    """An n x n Scalar matrix, dense or sparse, with some rows and columns zeroed; entries have up to 3 terms."""
    min_terms = draw(st.sampled_from([0, 1]))  # 1: no zero entry outside the zeroed rows and columns
    entry = st.dictionaries(st.integers(-6, 6), st.sampled_from(COEFFS), min_size=min_terms, max_size=3)
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return tuple(
        tuple(Scalar() if r in zero_rows or c in zero_cols else Scalar(draw(entry)) for c in range(n))
        for r in range(n)
    )


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(scalar_matrices(n), scalar_matrices(n))))
def test_kernel_mat_mul_matches_the_dense_loop(pair):
    # skipping zero factors changes no entry; each entry is a fresh Scalar,
    # so clearing the product leaves its factors unchanged
    a, b = pair
    before = [[dict(x.terms) for x in row] for m in pair for row in m]
    got = mat_mul(a, b)
    assert got == reference_mat_mul(a, b)
    assert type(got) is tuple and all(type(row) is tuple and len(row) == len(a) for row in got)
    for row in got:
        for x in row:
            assert type(x) is Scalar and not any(c.is_zero() for c in x.terms.values())
            x.terms.clear()
    assert [[dict(x.terms) for x in row] for m in pair for row in m] == before
