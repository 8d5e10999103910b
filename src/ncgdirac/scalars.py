"""Exact coefficient arithmetic in Q(i)[q, q^-1], with q standing for exp(i*theta/4).

Every symbolic coefficient in the engine lives in this ring: q**4 carries the
deformation phase exp(i*theta), q**(+-1) the quarter phases of the deformed
gamma matrices.  Numeric evaluation substitutes q = exp(i*theta/4) late, so the
symbolic layer never touches floats.

A coefficient in Q(i) is stored as two integer numerators over one positive
denominator, the content-and-denominator layout of FLINT's ``fmpq_poly``, so a
product or sum costs a few integer operations and at most one gcd.  Most
coefficients met in a build are the units 1, -1, i and -i; a product with a
unit term u*q**k is an exponent shift plus a rotation or negation of the
numerators, with no coefficient multiply at all.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

_new = object.__new__

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)  # the string form of a Fraction


class GaussianRational:
    """A complex number (a + b*i)/d with integers a, b, d.

    The form is canonical: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1)
    and equal values have equal fields.  ``re`` and ``im`` give the parts as
    reduced ``Fraction``s, which is how values are printed and serialized.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators no prime divides a, b and d
        d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            a, b = self.a + other.a, self.b + other.b
            if d == 1:
                return _canonical(a, b, 1)
        else:
            a, b = self.a * f + other.a * d, self.b * f + other.b * d
            d *= f
        return _reduced(a, b, d)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            a, b = self.a - other.a, self.b - other.b
            if d == 1:
                return _canonical(a, b, 1)
        else:
            a, b = self.a * f - other.a * d, self.b * f - other.b * d
            d *= f
        return _reduced(a, b, d)

    def __neg__(self) -> "GaussianRational":
        return _canonical(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b = self.a, self.b
        c, e = other.a, other.b
        # most coefficients are purely real or purely imaginary
        if not b:
            if not a:
                return _GR_ZERO
            re, im = a * c, a * e
        elif not e:
            re, im = c * a, c * b
        else:
            re, im = a * c - b * e, a * e + b * c
        d, f = self.d, other.d
        # a unit factor (1, -1, i or -i over 1) only rotates or negates the
        # other factor's numerators, which keeps them canonical
        if d == 1:
            if f == 1 or abs(a) + abs(b) == 1:
                return _canonical(re, im, f)
        elif f == 1 and abs(c) + abs(e) == 1:
            return _canonical(re, im, d)
        return _reduced(re, im, d * f)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, e = other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, f = self.a, self.b, other.d
        # ((a + b i)/d) / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d, whose fields are already canonical."""
    g = _new(GaussianRational)
    g.a, g.b, g.d = a, b, d
    return g


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d for d > 0, divided by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _canonical(a, b, d)


_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)


def _term_times(k: int, c: GaussianRational, terms: dict) -> dict:
    """The terms of c*q**k times sum(terms), for nonzero c.

    A product of nonzero elements of Q(i) is never zero, so nothing is
    filtered.  A unit c in {1, -1, i, -i} shifts the exponents and rotates or
    negates the numerators, with no coefficient multiply.
    """
    if c.d == 1:
        a, b = c.a, c.b
        if not b:
            if a == 1:
                return dict(terms) if k == 0 else {k + kk: v for kk, v in terms.items()}
            if a == -1:
                return {k + kk: _canonical(-v.a, -v.b, v.d) for kk, v in terms.items()}
        elif not a:
            if b == 1:  # i (x + y i) = -y + x i
                return {k + kk: _canonical(-v.b, v.a, v.d) for kk, v in terms.items()}
            if b == -1:  # -i (x + y i) = y - x i
                return {k + kk: _canonical(v.b, -v.a, v.d) for kk, v in terms.items()}
    return {k + kk: c * v for kk, v in terms.items()}


def _terms_product(a: dict, b: dict) -> dict:
    """The terms of sum(a) * sum(b) for the nonzero terms a and b of two Scalars, in a fresh dict.

    A single-term factor is _term_times; otherwise like exponents are summed
    in the order the products meet them, and a sum that cancels is dropped.
    """
    if len(a) == 1:
        ((k, c),) = a.items()
        return _term_times(k, c, b)
    if len(b) == 1:
        ((k, c),) = b.items()
        return _term_times(k, c, a)
    out: dict[int, GaussianRational] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            s = out.get(k, _GR_ZERO) + c1 * c2
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _scalar(terms: dict) -> "Scalar":
    """A Scalar that takes ownership of terms, which hold no zero coefficient."""
    s = _new(Scalar)
    s.terms = terms
    return s


class ScalarFormatError(ValueError):
    """Raised by Scalar.from_json for input that to_json does not write; the message says what."""


class Scalar:
    """Sparse Laurent polynomial sum_k c_k q**k with GaussianRational c_k.

    Instances are immutable by convention; every operation returns a fresh
    normalized value with no stored zero coefficients, and never shares its
    ``terms`` dict with an operand.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, GaussianRational] | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({0: _GR_ONE})

    @staticmethod
    def q_power(k: int, coeff: GaussianRational | int | Fraction = 1) -> "Scalar":
        c = coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)
        return Scalar({k: c})

    @staticmethod
    def rational(value) -> "Scalar":
        return Scalar({0: GaussianRational(value)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
                continue
            s = s + c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return _scalar(out)

    def __sub__(self, other: "Scalar") -> "Scalar":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = -c
                continue
            s = s - c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return _scalar(out)

    def __neg__(self) -> "Scalar":
        return _scalar({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        return _scalar(_terms_product(self.terms, other.terms))

    def q_shift(self, k: int) -> "Scalar":
        """Multiplication by the pure power q**k, as an exponent shift."""
        if k == 0:
            return self
        return _scalar({kk + k: c for kk, c in self.terms.items()})

    def inverse(self) -> "Scalar":
        """Invert a single-term scalar c*q**k; other shapes are not units here."""
        if len(self.terms) != 1:
            raise ValueError(f"not a monomial scalar, cannot invert: {self!r}")
        (k, c), = self.terms.items()
        return Scalar({-k: _GR_ONE / c})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: _GR_ONE}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    # -- evaluation --------------------------------------------------------

    def eval_numeric(self, theta: float) -> complex:
        """Substitute q = exp(i*theta/4)."""
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        return sum(
            (complex(c) * cmath.exp(0.25j * theta * k) for k, c in self.terms.items()),
            0j,
        )

    def at_q_one(self) -> "Scalar":
        """Exact specialization theta = 0, i.e. q = 1."""
        total = _GR_ZERO
        for c in self.terms.values():
            total = total + c
        return Scalar({0: total})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                [k, str(c.re), str(c.im)] for k, c in sorted(self.terms.items())
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "Scalar":
        """Read what to_json writes, an object with a list of [k, re, im] terms.

        Any other input raises ScalarFormatError, a ValueError: a term of
        another form (checked for every term first), a repeated q-exponent k
        or a zero denominator.  A part past the interpreter's integer string
        digit limit raises that limit's own ValueError.
        """
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ScalarFormatError("a serialized scalar must be an object with a 'terms' list")
        for term in data["terms"]:
            # a float re would be read as its binary value, a float k truncated, and
            # Fraction("1e1000000000") would build a huge integer, so re and im take
            # only the integer or p/q strings that to_json writes
            if not (
                isinstance(term, list)
                and len(term) == 3
                and type(term[0]) is int
                and all(isinstance(part, str) and _RATIONAL.fullmatch(part) for part in term[1:])
            ):
                raise ScalarFormatError(
                    f"a scalar term must be [k, re, im] with integer k and p/q strings re, im: {term!r}"
                )
        terms = {}
        for k, re_part, im_part in data["terms"]:
            if k in terms:  # a second term would silently replace the first
                raise ScalarFormatError(f"scalar terms {data['terms']!r} repeat the q-exponent {k}")
            try:
                terms[k] = GaussianRational(Fraction(re_part), Fraction(im_part))
            except ZeroDivisionError:
                raise ScalarFormatError(f"scalar {data['terms']!r} has a zero denominator") from None
        return Scalar(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.terms.items()):
            if k == 0:
                parts.append(repr(c))
            else:
                qs = "q" if k == 1 else ("q^-1" if k == -1 else f"q^{k}")
                parts.append(qs if c == _GR_ONE else f"{c!r}*{qs}")
        return " + ".join(parts)


HALF = Scalar.rational(Fraction(1, 2))
