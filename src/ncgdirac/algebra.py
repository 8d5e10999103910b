"""Finitely presented quasi-commutative algebras and their quotient normal forms.

Generators z1..zn obey z_i z_j = R[j][i] z_j z_i for unimodular scalar phases
R[j][i]; quotients add rewrite rules whose left sides are low-degree ordered
monomials.  Elements are kept in normal form at all times: ascending-ordered
monomials, irreducible under the quotient rules, mapped to nonzero scalars.

Words, conversions and products take their phases from one closed form,
_phase (z^m1 z^m2 = q**e z^(m1+m2)), and their rewriting from one loop,
_mono_reduction, whose reductions of ordered monomials are memoized per
presentation (the normal form is unique for a confluent presentation:
Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978).

Two writers fill the raw map {monomial: {q-exponent: GaussianRational}},
which builds a Scalar and an AlgebraElement once per output coefficient.
``_accumulate`` adds products c1 * c2 * (cached monomial product) of
elements and, through ``tensors.TensorSum``, of tensor coefficients;
``_accumulate_triples`` adds scaled (monomial, q-exponent, coefficient)
triples: reductions, and the derivative terms of ``tensors.add_leibniz``.
The raw map is known in four modules: here and in ``tensors``, in
``geometry`` (``ContractedConnection.add_term`` writes it) and in
``spectrum`` (``exact_sector`` reads it and builds ``_element`` from it).
"""

from __future__ import annotations

import json
from operator import add, le, mul, sub

from .scalars import _GR_ONE, GaussianRational, Scalar, ScalarFormatError, _scalar, _terms_product

Monomial = tuple[int, ...]

STEP_BUDGET = 10**6  # rewrite steps per normal-form computation
# monomial products kept per presentation, and as many reductions of ordered
# monomials, twists of basis words (tensors._twist) and derivatives of
# monomials (tensors._derivative): t2 holds 581 products after a checked build
# and 6,164 after spectrum scans up to mmax=16; past the bound, products,
# reductions, twists and derivatives are computed without being stored
PRODUCT_CACHE_BOUND = 50_000

_new = object.__new__


class PresentationError(ValueError):
    """Raised for presentations violating the quasi-commutativity contract."""


class RewriteBudgetExceeded(RuntimeError):
    """Raised when a normal-form computation exceeds the step budget.

    Every presentation's rules strictly decrease, so rewriting terminates;
    the budget is a backstop against an explosive (not endless) computation,
    and the built-in catalog presentations never trigger it.
    """


class RewriteRule:
    """Oriented quotient rule lhs -> rhs with lhs an ordered monomial."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Monomial, rhs: dict[Monomial, Scalar]):
        self.lhs = tuple(lhs)
        self.rhs = {tuple(m): c for m, c in rhs.items() if not c.is_zero()}

    def __repr__(self) -> str:
        return f"RewriteRule({self.lhs} -> {self.rhs})"


def _mono_letters(mono: Monomial) -> list[int]:
    out = []
    for g, e in enumerate(mono):
        out.extend([g] * e)
    return out


def _mono_name(mono: Monomial) -> str:
    """The printed monomial, as z1*z2^2; empty for the unit."""
    return "*".join(f"z{g + 1}" + (f"^{e}" if e > 1 else "") for g, e in enumerate(mono) if e)


def _divides(lhs: Monomial, mono: Monomial) -> bool:
    return all(map(le, lhs, mono))  # stops at the first letter that fails


def monomial_key(mono: Monomial) -> tuple:
    # graded order, ties broken lexicographically from the highest generator
    return (sum(mono), tuple(reversed(mono)))


class Presentation:
    """A quasi-commutative algebra presentation, optionally with quotient rules.

    Every R entry must be a pure power of q; the exponents are kept as an
    integer matrix (q_exp) so the rewriting kernel accumulates phases by
    integer addition instead of scalar multiplication.  phase_rows[k] is
    row k of q_exp with the entries j <= k zeroed, the row _phase reads.
    """

    __slots__ = (
        "name", "n", "R", "q_exp", "phase_rows", "rules", "_key", "_product_cache", "_reduction_cache",
        "_twist_cache", "_derivative_cache",
    )

    def __init__(self, n: int, R, rules=(), name: str = ""):
        self.name = name
        self.n = n
        self._product_cache = {}
        self._reduction_cache = {}
        self._twist_cache = {}  # filled by tensors._twist
        self._derivative_cache = {}  # filled by tensors._derivative
        self.R = tuple(tuple(row) for row in R)
        if len(self.R) != n or any(len(row) != n for row in self.R):
            raise PresentationError("R must be an n x n scalar matrix")
        one = Scalar.one()
        q_exp = []
        for i in range(n):
            if self.R[i][i] != one:
                raise PresentationError(f"R[{i}][{i}] must be 1")
            row = []
            for j in range(n):
                entry = self.R[i][j]
                if len(entry.terms) != 1:
                    raise PresentationError(f"R[{i}][{j}] must be a single q-power")
                (k, c), = entry.terms.items()
                if c != GaussianRational(1):
                    raise PresentationError(f"R[{i}][{j}] must be a pure q-power")
                if self.R[i][j] * self.R[j][i] != one:
                    raise PresentationError(f"R[{i}][{j}]*R[{j}][{i}] must be 1")
                row.append(k)
            q_exp.append(tuple(row))
        self.q_exp = tuple(q_exp)
        self.phase_rows = tuple((0,) * (k + 1) + row[k + 1:] for k, row in enumerate(self.q_exp))
        self.rules = tuple(rules)
        for rule in self.rules:
            if len(rule.lhs) != n:
                raise PresentationError("rule lhs arity does not match generators")
            if sum(rule.lhs) == 0:
                raise PresentationError("rule lhs must be a nonconstant monomial")
            # the graded order is compatible with multiplication, so strictly
            # decreasing rules make every rewriting sequence terminate
            for mono in rule.rhs:
                if monomial_key(mono) >= monomial_key(rule.lhs):
                    raise PresentationError(
                        f"rule {_mono_letters(rule.lhs)} does not terminate: rhs monomial "
                        f"{list(mono)} is not below its lhs in the graded order"
                    )
        self._key = None

    def key(self) -> str:
        """Structural identity: to_json without the name, so content decides equality."""
        if self._key is None:
            payload = self.to_json()
            del payload["name"]
            self._key = json.dumps(payload, sort_keys=True)
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self is other or self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "generators": self.n,
            "R": [[s.to_json() for s in row] for row in self.R],
            "ideal": [
                {
                    "lhs": _mono_letters(r.lhs),
                    "rhs": _element_terms_to_json(r.rhs),
                }
                for r in self.rules
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Presentation":
        if not isinstance(data, dict):
            raise PresentationError("presentation must be a JSON object")
        try:
            n = data["generators"]
            if type(n) is not int:  # JSON 4.5 or true is not a generator count
                raise PresentationError(
                    f"malformed presentation: generators must be a JSON integer, not {n!r}"
                )
            if n < 1:
                raise PresentationError("presentation needs at least one generator")
            rows = data["R"]
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise PresentationError("R must be a list of rows")
            R = [[_scalar_from_json(s) for s in row] for row in rows]
            # before any rule allocates its n exponents: the file, not a
            # declared count, bounds the work
            if len(R) != n or any(len(row) != n for row in R):
                raise PresentationError("R must be an n x n scalar matrix")
            rules = []
            for entry in data.get("ideal", []):
                lhs = [0] * n
                for g in entry["lhs"]:
                    if type(g) is not int or not 0 <= g < n:  # JSON true is not a letter
                        raise PresentationError(
                            f"rule letter {g!r} is not a generator index 0..{n - 1}"
                        )
                    lhs[g] += 1
                rules.append(RewriteRule(tuple(lhs), _element_terms_from_json(entry["rhs"], n)))
            return Presentation(n, R, rules, name=data.get("name", ""))
        except TypeError as exc:
            raise PresentationError(f"malformed presentation: {exc}") from exc
        except KeyError as exc:  # str(exc) is the quoted field name
            raise PresentationError(f"malformed presentation: missing field {exc}") from exc

    def __repr__(self) -> str:
        return f"Presentation({self.name or 'anonymous'}, n={self.n}, rules={len(self.rules)})"


def _element_terms_to_json(terms: dict[Monomial, Scalar]) -> list:
    return [
        {"exps": list(m), "coeff": c.to_json()}
        for m, c in sorted(terms.items(), key=lambda t: monomial_key(t[0]))
    ]


def _element_terms_from_json(data: list, n: int) -> dict[Monomial, Scalar]:
    out = {}
    for entry in data:
        m = tuple(entry["exps"])
        if any(type(e) is not int for e in m):
            raise PresentationError(f"exponents {list(m)} are not all JSON integers")
        if len(m) != n:
            raise PresentationError("monomial arity mismatch in serialized element")
        if any(e < 0 for e in m):
            raise PresentationError(f"negative exponent in serialized monomial {list(m)}")
        if m in out:  # a second entry would silently replace the first
            raise PresentationError(f"monomial {list(m)} appears twice in a serialized element")
        out[m] = _scalar_from_json(entry["coeff"])
    return out


def _scalar_from_json(data) -> Scalar:
    """Scalar.from_json, with its refusals raised as PresentationError."""
    try:
        return Scalar.from_json(data)
    except ScalarFormatError as exc:  # a ValueError, but no part out of range
        raise PresentationError(str(exc)) from exc
    except ValueError as exc:  # e.g. the interpreter's integer string digit limit
        raise PresentationError(f"scalar part out of range: {exc}") from exc


# ---------------------------------------------------------------------------
# rewriting kernel
# ---------------------------------------------------------------------------


def _phase(p: Presentation, m1, m2) -> int:
    """The q-exponent e with z^m1 z^m2 = q**e z^(m1+m2), for ordered monomials.

    Each z_k of m2 moves left past the letters j > k of m1, by z_j z_k =
    q**q_exp[k][j] z_k z_j, so e = sum_k m2[k] sum_{j>k} q_exp[k][j] m1[j]:
    the inner sum is phase_rows[k] . m1.
    """
    e = 0
    for ek, row in zip(m2, p.phase_rows):
        if ek:
            e += ek * sum(map(mul, row, m1))
    return e


def add_term(out: dict, key, coeff):
    """out[key] += coeff in a sparse map (monomials or basis words), dropping zeros."""
    s = out.get(key)
    s = coeff if s is None else s + coeff
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def sub_term(out: dict, key, coeff):
    """out[key] -= coeff in a sparse map, dropping zeros: add_term of -coeff, with no negation first."""
    s = out.get(key)
    s = -coeff if s is None else s - coeff
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _budget_exceeded() -> RewriteBudgetExceeded:
    return RewriteBudgetExceeded(f"rewrite step budget of {STEP_BUDGET} steps exceeded")


def _mono_reduction(p: Presentation, mono: Monomial) -> tuple:
    """(normal form of the ordered monomial mono, its rewriting steps), memoized per presentation.

    The kernel's only rewriting loop runs on an explicit stack of (ordered
    monomial, coefficient terms, q-exponent) entries, so the step budget, not
    the recursion limit, bounds a long chain.  A rule lhs -> sum c * r
    dividing m rewrites z^m = q**-phase(rem, lhs) z^rem z^lhs, rem = m - lhs,
    as the sum of c * q**phase(rem, r) z^(rem + r), at one step plus deg(r)
    per rhs monomial r; the rhs is pushed in reverse, so terms are added
    depth first.  The coefficient terms are a raw {q-exponent:
    GaussianRational} dict, multiplied by each rule coefficient as
    Scalar.__mul__ would (scalars._terms_product), and an irreducible
    monomial adds them, shifted by the q-exponent, into a raw map that drops
    a monomial whose sum cancels, as add_term does; no Scalar is built.
    The normal form is a tuple of (monomial, q-exponent, GaussianRational)
    triples, as _mono_product hands out; the memo holds at most
    PRODUCT_CACHE_BOUND entries.
    """
    cached = p._reduction_cache.get(mono)
    if cached is None:
        out: dict[Monomial, dict] = {}
        stack = [(mono, {0: _GR_ONE}, 0)]
        steps = 0
        rules = p.rules
        while stack:
            m, coeff, qexp = stack.pop()
            for rule in rules:
                lhs = rule.lhs
                if _divides(lhs, m):
                    rem = tuple(map(sub, m, lhs))
                    qexp -= _phase(p, rem, lhs)
                    steps += 1
                    for r, c in reversed(rule.rhs.items()):
                        steps += sum(r)
                        rmono = tuple(map(add, rem, r))
                        stack.append((rmono, _terms_product(coeff, c.terms), qexp + _phase(p, rem, r)))
                    break
            else:
                acc = out.get(m)
                if acc is None:
                    out[m] = {k + qexp: g for k, g in coeff.items()}
                else:
                    for k, g in coeff.items():
                        k += qexp
                        old = acc.get(k)
                        if old is None:
                            acc[k] = g
                            continue
                        g = old + g
                        if g.a or g.b:
                            acc[k] = g
                        else:
                            del acc[k]
                    if not acc:
                        del out[m]
            if steps > STEP_BUDGET:
                raise _budget_exceeded()
        terms = tuple(
            (m, k, _GR_ONE if g == _GR_ONE else g)
            for m, coeffs in out.items()
            for k, g in coeffs.items()
        )
        cached = (terms, steps)
        if len(p._reduction_cache) < PRODUCT_CACHE_BOUND:
            p._reduction_cache[mono] = cached
    return cached


def _mono_product(p: Presentation, m1: Monomial, m2: Monomial) -> tuple:
    """Normal form of the monomial product m1 * m2, memoized per presentation.

    The product is a tuple of (monomial, q-exponent, GaussianRational) triples,
    so no caller can change a cached value; a coefficient equal to 1 is the
    shared _GR_ONE, which the kernel turns into a pure exponent shift.  The
    cache holds at most PRODUCT_CACHE_BOUND entries and turns the repeated
    basis-word products of the verifiers into dictionary lookups.

    On a miss, z^m1 z^m2 = q**phase(m1, m2) z^(m1+m2), and the rules act only
    on the ordered monomial m1 + m2, whose reduction _mono_reduction keeps.
    The product charges the budget deg(m2) for the letters it inserts plus
    the reduction's steps, so it raises RewriteBudgetExceeded exactly when
    rewriting m1 * z_{letters of m2} from scratch would.
    """
    key = (m1, m2)
    cached = p._product_cache.get(key)
    if cached is None:
        e = _phase(p, m1, m2)
        terms, steps = _mono_reduction(p, tuple(map(add, m1, m2)))
        if sum(m2) + steps > STEP_BUDGET:
            raise _budget_exceeded()
        cached = tuple((m, k + e, g) for m, k, g in terms) if e else terms
        if len(p._product_cache) < PRODUCT_CACHE_BOUND:
            p._product_cache[key] = cached
    return cached


def _accumulate_triples(acc: dict, terms: tuple, s: Scalar, shift: int = 0) -> None:
    """acc += s * q**shift * sum(c q**k z^m) over the (m, k, c) triples, in a raw map of _accumulate.

    The triples are a reduction (normal_form, _reduce) or a derivative term (tensors.add_leibniz).
    """
    for m, kp, gp in terms:
        coeffs = acc.get(m)
        if coeffs is None:
            coeffs = acc[m] = {}
        for k, g in s.terms.items():
            v = g if gp is _GR_ONE else g * gp
            kk = k + kp + shift
            old = coeffs.get(kk)
            if old is None:
                coeffs[kk] = v
                continue
            v = old + v
            if v.a or v.b:
                coeffs[kk] = v
            else:
                del coeffs[kk]


def _reduce(terms: dict[Monomial, Scalar], p: Presentation) -> "AlgebraElement":
    """Normal form in p of a sparse sum of monomials, their steps charged to one budget."""
    acc: dict = {}
    steps = 0
    for m, c in terms.items():
        if c.is_zero():  # from_json may read one; it costs no steps and adds nothing
            continue
        reduction, mono_steps = _mono_reduction(p, m)
        steps += mono_steps
        if steps > STEP_BUDGET:
            raise _budget_exceeded()
        _accumulate_triples(acc, reduction, c)
    return _element(p, acc)


def _accumulate(acc: dict, p: Presentation, left: dict, right: dict, twist=None) -> None:
    """acc += (sum of left terms) * (sum of right terms), all in normal form.

    acc is a raw map {monomial: {q-exponent: GaussianRational}}; left and right
    are the terms of AlgebraElements.  A coefficient that cancels is dropped
    (a monomial left with no coefficient is dropped by _element).  twist, if
    given, holds one q-exponent per generator: each right monomial m is
    multiplied by q**(twist . m), the phase of moving it left through basis
    letters (see tensors._twist).  A coefficient 1 costs no multiply.
    """
    cache = p._product_cache
    for m1, c1 in left.items():
        t1 = c1.terms.items()
        for m2, c2 in right.items():
            entry = cache.get((m1, m2))
            if entry is None:
                entry = _mono_product(p, m1, m2)
            shift = 0 if twist is None else sum(map(mul, twist, m2))
            for k1, g1 in t1:
                for k2, g2 in c2.terms.items():
                    k = k1 + k2 + shift
                    g = g2 if g1 is _GR_ONE else g1 if g2 is _GR_ONE else g1 * g2
                    for m, kp, gp in entry:
                        v = g if gp is _GR_ONE else g * gp
                        kk = k + kp
                        coeffs = acc.get(m)
                        if coeffs is None:
                            acc[m] = {kk: v}
                            continue
                        old = coeffs.get(kk)
                        if old is None:
                            coeffs[kk] = v
                            continue
                        v = old + v
                        if v.a or v.b:
                            coeffs[kk] = v
                        else:
                            del coeffs[kk]


def _element(p: Presentation, acc: dict) -> "AlgebraElement":
    """The AlgebraElement of a raw map filled by _accumulate, which it takes over."""
    a = _new(AlgebraElement)
    a.presentation = p
    a.terms = {m: _scalar(coeffs) for m, coeffs in acc.items() if coeffs}
    return a


def _algebra(p: Presentation, terms: dict) -> "AlgebraElement":
    """An AlgebraElement that takes over terms: normal-form monomials, no zero coefficient."""
    a = _new(AlgebraElement)
    a.presentation = p
    a.terms = terms
    return a


class AlgebraElement:
    """Normal-form element of a presented algebra: monomial -> Scalar."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: Presentation, terms: dict[Monomial, Scalar] | None = None):
        self.presentation = presentation
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: Presentation) -> "AlgebraElement":
        return AlgebraElement(p)

    @staticmethod
    def one(p: Presentation) -> "AlgebraElement":
        return AlgebraElement(p, {(0,) * p.n: Scalar.one()})

    @staticmethod
    def from_scalar(p: Presentation, s: Scalar) -> "AlgebraElement":
        return AlgebraElement(p, {(0,) * p.n: s})

    @staticmethod
    def generator(p: Presentation, i: int) -> "AlgebraElement":
        if not 0 <= i < p.n:
            raise IndexError(f"generator index {i} out of range")
        return normal_form([i], Scalar.one(), p)

    # -- ring structure ----------------------------------------------------

    def _require_same(self, other: "AlgebraElement"):
        if self.presentation is not other.presentation and self.presentation != other.presentation:
            raise ValueError("presentation mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return _algebra(self.presentation, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            sub_term(out, m, c)
        return _algebra(self.presentation, out)

    def __neg__(self) -> "AlgebraElement":
        return _algebra(self.presentation, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        acc: dict = {}
        _accumulate(acc, self.presentation, self.terms, other.terms)
        return _element(self.presentation, acc)

    def scale(self, s: Scalar) -> "AlgebraElement":
        return AlgebraElement(
            self.presentation, {m: c * s for m, c in self.terms.items()}
        )

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        p = self.presentation
        return self.terms == {(0,) * p.n: Scalar.one()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.presentation == other.presentation and self.terms == other.terms

    # -- conversion --------------------------------------------------------

    def convert(self, target: Presentation) -> "AlgebraElement":
        """Re-reduce under another presentation with the same generators and R."""
        if target.n != self.presentation.n or target.R != self.presentation.R:
            raise ValueError("conversion requires identical generators and R matrix")
        return _reduce(self.terms, target)

    # -- serialization and display ------------------------------------------

    def to_json(self) -> list:
        return _element_terms_to_json(self.terms)

    @staticmethod
    def from_json(data: list, p: Presentation) -> "AlgebraElement":
        return _reduce(_element_terms_from_json(data, p.n), p)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: monomial_key(t[0])):
            name = _mono_name(m)
            cs = repr(c)
            if name:
                parts.append(name if c.is_one() else f"({cs})*{name}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def normal_form(word, coeff: Scalar, p: Presentation) -> AlgebraElement:
    """Normal form of coeff * z_{word[0]} * z_{word[1]} * ... in p.

    The word is folded into its ordered monomial, adding the phase of each
    z^mono z_k, and the monomial is reduced through the memo, at one step per
    letter plus the reduction's steps (none for a zero coeff, which gives 0).
    """
    mono = [0] * p.n
    e = 0
    for k in word:
        if not 0 <= k < p.n:
            raise IndexError(f"generator index {k} out of range")
        e += _phase(p, mono, (0,) * k + (1,) + (0,) * (p.n - 1 - k))
        mono[k] += 1
    mono = tuple(mono)
    reduction, steps = ((), 0) if coeff.is_zero() else _mono_reduction(p, mono)
    if sum(mono) + steps > STEP_BUDGET:
        raise _budget_exceeded()
    acc: dict = {}
    _accumulate_triples(acc, reduction, coeff, e)
    return _element(p, acc)


def is_central(a: AlgebraElement) -> bool:
    """True iff a commutes with every generator (sufficient by generation)."""
    p = a.presentation
    for j in range(p.n):
        zj = AlgebraElement.generator(p, j)
        if not (a * zj - zj * a).is_zero():
            return False
    return True


def extend_presentation(p: Presentation, f: AlgebraElement, name: str = "") -> Presentation:
    """Quotient presentation of p by the two-sided ideal (f).

    Orients f into a rule by solving for its largest monomial under the graded
    order; existing rule right sides are re-reduced against the extended set.
    General completion is out of scope: f must already be oriented into a
    confluent system together with p's rules, which critical_pairs decides.
    """
    if f.presentation != p:
        raise ValueError("f must live in the presentation being extended")
    if f.is_zero():
        raise ValueError("cannot quotient by the zero element")
    lead = max(f.terms, key=monomial_key)
    lead_coeff = f.terms[lead]
    if len(lead_coeff.terms) != 1:
        raise PresentationError("leading coefficient of f is not invertible here")
    inv = lead_coeff.inverse()
    rhs = {}
    for m, c in f.terms.items():
        if m == lead:
            continue
        rhs[m] = -(c * inv)
    new_rule = RewriteRule(lead, rhs)
    extended = Presentation(p.n, p.R, p.rules + (new_rule,), name=name or p.name)
    # inter-reduce: every rule is strictly decreasing, so no rule rewrites its
    # own rhs, and reducing an rhs keeps the set of left-hand sides; one pass
    # against the extended set therefore leaves every rhs irreducible
    rules = tuple(RewriteRule(r.lhs, _reduce(r.rhs, extended).terms) for r in extended.rules)
    return Presentation(p.n, p.R, rules, name=name or p.name)


def critical_pairs(p: Presentation):
    """Yield (label, residual) for each ambiguity of p's rules; normal forms are unique iff every residual is 0.

    The ordered monomials are a basis of the quantum affine space A of p.R
    (pure q-powers with R[i][j] R[j][i] = 1, so A is a G-algebra and
    reordering letters needs no check), and the kernel rewrites z^m only by
    a left multiple q**-phase(rem, lhs) z^rem g of a rule polynomial
    g = z^lhs - rhs.  Its normal forms are those of left reduction by the g,
    and they are unique modulo the two-sided ideal (g) exactly when both
    kinds of residual vanish:

    - overlap, for each pair of rules a < b: the g are a left Groebner basis
      iff each left s-polynomial reduces to 0 (Buchberger's criterion for
      G-algebras: Levandovskyy-Schoenemann, ISSAC 2003), that is iff the two
      one-step reductions of z^lcm(lhs_a, lhs_b) reach one normal form, the
      diamond lemma's condition on overlap and inclusion ambiguities
      (Bergman, Adv. Math. 29, 1978).  An ambiguity at a multiple z^m of the
      lcm is z^(m - lcm) times this one up to a phase, since a rewrite
      commutes with left multiplication by a monomial.  The residual is the
      normal form of rule a's reduction minus that of rule b's.
    - homogeneity, for each rule and generator z_j: the left ideal is
      two-sided iff g z_j lies in it.  With z^lhs z_j = q**alpha z_j z^lhs
      and z^r z_j = q**beta z_j z^r, g z_j - q**alpha z_j g is the sum of
      c (q**alpha - q**beta) z_j z^r over the right-hand terms c z^r whose
      phase beta past z_j differs from alpha; the residual is its normal
      form, zero outright for a phase-homogeneous rule.

    Termination is a constructor invariant, so the diamond lemma needs
    nothing more.  Each pair costs a step per letter of the word it rewrites
    (z^lhs z_j, or z^lcm) and each monomial it reduces that reduction's
    steps, all charged to one STEP_BUDGET, so many rules raise
    RewriteBudgetExceeded rather than run O(rules**2) reductions.
    """
    steps = 0

    def charge(n: int) -> None:
        nonlocal steps
        steps += n
        if steps > STEP_BUDGET:
            raise _budget_exceeded()

    def add_reduced(acc: dict, mono: Monomial, coeff: Scalar, shift: int) -> None:
        reduction, mono_steps = _mono_reduction(p, mono)
        charge(mono_steps)
        _accumulate_triples(acc, reduction, coeff, shift)

    units = [(0,) * j + (1,) + (0,) * (p.n - 1 - j) for j in range(p.n)]
    names = [f"{a} ({_mono_name(rule.lhs)})" for a, rule in enumerate(p.rules, 1)]
    for rule, name in zip(p.rules, names):
        for j, unit in enumerate(units):
            charge(sum(rule.lhs) + 1)
            alpha = _phase(p, rule.lhs, unit) - _phase(p, unit, rule.lhs)
            acc: dict = {}
            for r, c in rule.rhs.items():
                beta = _phase(p, r, unit) - _phase(p, unit, r)
                if beta != alpha:  # z_j z^r = q**phase(unit, r) z^(r + unit)
                    add_reduced(acc, tuple(map(add, r, unit)), c.q_shift(alpha) - c.q_shift(beta), _phase(p, unit, r))
            yield f"homogeneity: rule {name} past z{j + 1}", _element(p, acc)
    for a, (rule_a, name_a) in enumerate(zip(p.rules, names)):
        for rule_b, name_b in zip(p.rules[a + 1:], names[a + 1:]):
            lcm = tuple(map(max, rule_a.lhs, rule_b.lhs))
            charge(sum(lcm))
            acc = {}
            for rule, negate in ((rule_a, False), (rule_b, True)):
                rem = tuple(map(sub, lcm, rule.lhs))
                e = -_phase(p, rem, rule.lhs)
                for r, c in rule.rhs.items():
                    add_reduced(acc, tuple(map(add, rem, r)), -c if negate else c, e + _phase(p, rem, r))
            yield f"overlap: rules {name_a} and {name_b}", _element(p, acc)


def brute_force_normal_form(word, coeff: Scalar, p: Presentation, _memo=None) -> AlgebraElement:
    """Confluence oracle: exhaustive one-step rewriting, all orders.

    A step is a single adjacent transposition z_a z_b = R[b][a] z_b z_a (in
    either direction) or an adjacent rule replacement.  Transpositions keep a
    word's letter multiset, so the oracle works one multiset class at a time.
    From the sorted word srt it enumerates the whole class, recording for each
    word u the q-exponent e with srt = q**e * u (a re-visit with another
    exponent flags a broken R matrix).  It branches on every rule occurrence
    in every word of the class, and all branches must recursively normalize
    srt to the same element; a word u then normalizes to q**-e times that.
    Phase consistency does not depend on the word the class is entered from,
    and entering it from another word multiplies every branch by one common
    factor, so memoizing per class gives the per-word verdict.
    The memo maps srt to (exponents, normal form of srt) and shares nothing
    with the rewriting kernel.  Exponential in the word length; intended for
    short words.
    """
    memo = {} if _memo is None else _memo
    q_exp = p.q_exp
    rules = []
    for r in p.rules:
        rhs = [(m, tuple(_mono_letters(m)), c) for m, c in r.rhs.items()]
        rules.append((tuple(_mono_letters(r.lhs)), r.lhs, rhs))

    def nf_class(srt: tuple[int, ...]) -> tuple[dict, dict[Monomial, Scalar]]:
        entry = memo.get(srt)
        if entry is not None:
            return entry
        # closure under adjacent transpositions, both directions
        reach = {srt: 0}
        frontier = [srt]
        while frontier:
            u = frontier.pop()
            eu = reach[u]
            for pos in range(len(u) - 1):
                a, b = u[pos], u[pos + 1]
                if a == b:
                    continue
                v = u[:pos] + (b, a) + u[pos + 2:]
                e = eu + q_exp[b][a]
                seen = reach.get(v)
                if seen is None:
                    reach[v] = e
                    frontier.append(v)
                elif seen != e:
                    raise AssertionError(
                        f"inconsistent transposition phases reaching {v} from {srt}"
                    )
        mono = [0] * p.n
        for k in srt:
            mono[k] += 1
        value = None
        for letters, lhs, rhs in rules:
            if not _divides(lhs, mono):
                continue
            # every occurrence splices into the same classes, one per rhs monomial
            targets = [
                nf_class(tuple(_mono_letters([m - l + r for m, l, r in zip(mono, lhs, rmono)])))
                for rmono, _, _ in rhs
            ]
            # srt = q**e_u * u = sum of c * q**(e_u - e_s) * s over the spliced
            # words s; equal exponent shifts give equal branches, summed once
            span = len(letters)
            branches = set()
            for u, eu in reach.items():
                for pos in range(len(u) - span + 1):
                    if u[pos:pos + span] == letters:
                        head, tail = u[:pos], u[pos + span:]
                        branches.add(tuple(
                            eu - sreach[head + rletters + tail]
                            for (_, rletters, _), (sreach, _) in zip(rhs, targets)
                        ))
            for shifts in sorted(branches):
                total: dict[Monomial, Scalar] = {}
                for (_, _, rcoef), (_, svalue), shift in zip(rhs, targets, shifts):
                    for m, c in svalue.items():
                        add_term(total, m, (c * rcoef).q_shift(shift))
                if value is None:
                    value = total
                elif total != value:
                    raise AssertionError(
                        f"non-confluent rewriting detected in the class of word {srt}: "
                        f"{value} vs {total}"
                    )
        if value is None:
            value = {tuple(mono): Scalar.one()}
        memo[srt] = entry = (reach, value)
        return entry

    w = tuple(word)
    reach, value = nf_class(tuple(sorted(w)))
    return AlgebraElement(p, {m: (c * coeff).q_shift(-reach[w]) for m, c in value.items()})
