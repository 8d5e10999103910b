"""Exact coefficient arithmetic in Q(i)[q, q^-1], with q standing for exp(i*theta/4).

Every symbolic coefficient in the engine lives in this ring: q**4 carries the
deformation phase exp(i*theta), q**(+-1) the quarter phases of the deformed
gamma matrices.  Numeric evaluation substitutes q = exp(i*theta/4) late, so the
symbolic layer never touches floats.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


class GaussianRational:
    """A complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b = self.re, self.im
        c, d = other.re, other.im
        # most coefficients are purely real or purely imaginary
        if not b:
            if not a:
                return _GR_ZERO
            return GaussianRational(a * c, a * d)
        if not d:
            return GaussianRational(c * a, c * b)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)


class Scalar:
    """Sparse Laurent polynomial sum_k c_k q**k with GaussianRational c_k.

    Instances are immutable by convention; every operation returns a fresh
    normalized value with no stored zero coefficients.
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

    @staticmethod
    def gaussian(re, im) -> "Scalar":
        return Scalar({0: GaussianRational(re, im)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, _GR_ZERO) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return Scalar(out)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b = self.terms, other.terms
        if len(a) == 1:
            ((k1, c1),) = a.items()
            return Scalar({k1 + k2: c1 * c2 for k2, c2 in b.items()})
        if len(b) == 1:
            ((k2, c2),) = b.items()
            return Scalar({k1 + k2: c1 * c2 for k1, c1 in a.items()})
        out: dict[int, GaussianRational] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = out.get(k, _GR_ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return Scalar(out)

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i and q -> q**-1 (q is a unit phase)."""
        return Scalar({-k: c.conjugate() for k, c in self.terms.items()})

    def q_shift(self, k: int) -> "Scalar":
        """Multiplication by the pure power q**k, as an exponent shift."""
        if k == 0:
            return self
        return Scalar({kk + k: c for kk, c in self.terms.items()})

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

    def is_unimodular(self) -> bool:
        """True for a single term c*q**k with |c| = 1 (c rational or imaginary)."""
        if len(self.terms) != 1:
            return False
        (c,) = self.terms.values()
        return c * c.conjugate() == _GR_ONE

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

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
        return Scalar(
            {
                int(k): GaussianRational(Fraction(re), Fraction(im))
                for k, re, im in data["terms"]
            }
        )

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
