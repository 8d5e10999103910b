import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncgdirac.scalars import GaussianRational, Scalar

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# numerators and denominators far past machine words, sharing factors often
big_rationals = st.builds(
    Fraction,
    st.integers(-(10**40), 10**40) | st.integers(-(2**70), 2**70).map(lambda n: n * 6**20),
    st.integers(1, 10**40) | st.integers(1, 2**64).map(lambda n: n * 6**20),
)
any_rationals = rationals | big_rationals
pairs = st.tuples(any_rationals, any_rationals)
UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        k = draw(st.integers(-8, 8))
        re = draw(rationals)
        im = draw(rationals)
        terms[k] = GaussianRational(re, im)
    return Scalar(terms)


def test_inverse_pair():
    assert Scalar.q_power(2) * Scalar.q_power(-2) == Scalar.one()


def test_exponent_addition():
    assert Scalar.q_power(4) * Scalar.q_power(4) == Scalar.q_power(8)


def test_half_plus_half():
    half = Scalar.rational(Fraction(1, 2))
    assert half + half == Scalar.one()


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_eval_trivial_points():
    assert Scalar.q_power(4).eval_numeric(0.0) == 1.0
    assert abs(Scalar.q_power(4).eval_numeric(math.pi) - (-1.0)) < 1e-12


def test_eval_rejects_non_finite_theta():
    with pytest.raises(ValueError):
        Scalar.one().eval_numeric(math.inf)


@given(scalars(), scalars(), st.sampled_from([0.0, 0.7, 2.3]))
def test_eval_is_ring_homomorphism(a, b, theta):
    # oracle: plain complex float arithmetic on the separately evaluated parts
    assert abs((a + b).eval_numeric(theta) - (a.eval_numeric(theta) + b.eval_numeric(theta))) < 1e-12
    assert abs((a * b).eval_numeric(theta) - (a.eval_numeric(theta) * b.eval_numeric(theta))) < 1e-10


def test_eval_matches_direct_exponential():
    s = Scalar({3: GaussianRational(Fraction(1, 2), Fraction(-2, 3))})
    theta = 1.234
    want = complex(Fraction(1, 2), Fraction(-2, 3)) * cmath.exp(0.25j * theta * 3)
    assert abs(s.eval_numeric(theta) - want) < 1e-14


def test_q_shift_is_q_power_multiplication():
    s = Scalar({0: GaussianRational(2), 3: GaussianRational(0, 1)})
    assert s.q_shift(5) == s * Scalar.q_power(5)


def test_at_q_one_sums_coefficients():
    s = Scalar({-1: GaussianRational(1), 1: GaussianRational(1)})
    assert s.at_q_one() == Scalar.rational(2)


def test_inverse_of_monomial_scalar():
    s = Scalar.q_power(3, GaussianRational(0, Fraction(1, 2)))
    assert s * s.inverse() == Scalar.one()


@given(scalars())
def test_json_round_trip(s):
    assert Scalar.from_json(s.to_json()) == s


def test_from_json_names_a_repeated_q_exponent():
    # a second term for q^0 used to replace the first: 1 + 1 was read as 1
    with pytest.raises(ValueError, match="repeat the q-exponent 0"):
        Scalar.from_json({"terms": [[0, "1", "0"], [0, "1", "0"]]})
    with pytest.raises(ValueError, match="repeat the q-exponent -2"):
        Scalar.from_json({"terms": [[-2, "1", "0"], [1, "1", "0"], [-2, "0", "3"]]})


@pytest.mark.parametrize(
    "term",
    [
        # each was read silently: as q^4, q, q^3 and 3602879701896397/36028797018963968
        pytest.param([4.7, "1", "0"], id="q-exp-float"),
        pytest.param([True, "1", "0"], id="q-exp-boolean"),
        pytest.param(["3", "1", "0"], id="q-exp-string"),
        pytest.param([0, 0.1, "0"], id="re-float"),
    ],
)
def test_from_json_refuses_a_term_it_does_not_write(term):
    with pytest.raises(ValueError, match=r"a scalar term must be \[k, re, im\]"):
        Scalar.from_json({"terms": [term]})


# -- integer kernel against a (Fraction, Fraction) oracle ----------------------


def _oracle_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def _assert_matches(g, pair):
    re, im = pair
    assert g.re == re and g.im == im
    assert str(g.re) == str(re) and str(g.im) == str(im)
    assert g.d > 0 and math.gcd(g.a, g.b, g.d) == 1
    assert g == GaussianRational(re, im) and hash(g) == hash(GaussianRational(re, im))


@given(pairs, pairs)
def test_kernel_matches_fraction_pair_oracle(x, y):
    g, h = GaussianRational(*x), GaussianRational(*y)
    _assert_matches(g, x)
    _assert_matches(g + h, (x[0] + y[0], x[1] + y[1]))
    _assert_matches(g - h, (x[0] - y[0], x[1] - y[1]))
    _assert_matches(g * h, _oracle_mul(x, y))
    _assert_matches(-g, (-x[0], -x[1]))
    assert (g == h) == (x == y)
    assert complex(g) == complex(x[0]) + 1j * complex(x[1])
    if y != (0, 0):
        n = y[0] * y[0] + y[1] * y[1]
        _assert_matches(g / h, ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n))


@given(pairs)
def test_kernel_division_by_zero_raises(x):
    with pytest.raises(ZeroDivisionError):
        GaussianRational(*x) / GaussianRational(0)


@given(st.sampled_from(UNITS), st.integers(-12, 12), st.lists(st.tuples(st.integers(-8, 8), pairs), max_size=4))
def test_unit_fast_path_equals_generic_product(unit, k, raw):
    u = GaussianRational(*unit)
    terms = {kk: GaussianRational(*x) for kk, x in raw}
    s = Scalar(terms)
    want = {k + kk: GaussianRational(*_oracle_mul(unit, (c.re, c.im))) for kk, c in s.terms.items()}
    generic = {k + kk: GaussianRational.__mul__(u, c) for kk, c in s.terms.items()}
    assert want == generic
    for product in (Scalar.q_power(k, u) * s, s * Scalar.q_power(k, u)):
        assert product.terms == want and product.terms is not s.terms
        for c in product.terms.values():
            assert c.d > 0 and math.gcd(c.a, c.b, c.d) == 1


@given(st.sampled_from(UNITS), pairs)
def test_unit_factor_skips_no_reduction(unit, x):
    # a unit factor takes no gcd; the product must still have the fields of
    # the general path, which divides (re + im i)/d by gcd(re, im, d)
    from ncgdirac.scalars import _reduced

    u, g = GaussianRational(*unit), GaussianRational(*x)
    re, im = _oracle_mul(unit, (g.a, g.b))
    want = _reduced(re, im, g.d)
    for product in (u * g, g * u):
        assert (product.a, product.b, product.d) == (want.a, want.b, want.d)


@given(scalars(), scalars())
def test_results_own_their_terms_and_store_no_zero(a, b):
    before = (dict(a.terms), dict(b.terms))
    for result in (a * b, b * a, a + b, a - b, -a):
        assert not any(c.is_zero() for c in result.terms.values())
        assert result.terms is not a.terms and result.terms is not b.terms
        result.terms[99] = GaussianRational(7)
    assert (a.terms, b.terms) == before


@given(pairs, pairs, st.integers(-5, 5), st.integers(-5, 5))
def test_gaussian_subtraction_is_adding_the_negation(x, y, k, j):
    # one pass gives the fields of a + (-b): over equal denominators (one
    # shifted by an integer, which keeps its denominator), over unequal ones,
    # and where the difference cancels exactly
    g, h = GaussianRational(*x), GaussianRational(*y)
    shifted = g + GaussianRational(k, j)
    assert shifted.d == g.d
    for a, b in ((g, h), (h, g), (g, shifted), (shifted, g), (g, g)):
        diff, want = a - b, a + -b
        assert (diff.a, diff.b, diff.d) == (want.a, want.b, want.d)
    zero = g - GaussianRational(*x)
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)
