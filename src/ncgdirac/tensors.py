"""Free left modules of tensor forms (and spinors) over a presented algebra.

An element of Omega^{(x)k} (x) E is stored in left-normal form: a sparse map
from basis words dz_{i1} (x) ... (x) dz_{ik} [(x) e_alpha] to normal-form
algebra coefficients, all coefficients on the left.  The right action twists
coefficients through basis letters via dz_i z_j = R[j][i] z_j dz_i; the spinor
slot is transparent to the twist.  Every product of coefficients (the right
action, tensor products, applying a map, and the spinor-matrix sums of
``spin``) accumulates in a TensorSum through algebra._accumulate, with the
twist as a per-monomial exponent shift, memoized per presentation.  The one
exception is a product with the coefficient 1 of a single basis word: a map
applied to such a word gives a copy of its image (twisted through the prefix
of a slot window), a tensor product with such a right factor a relabelled
copy of the left one, and with such a left factor a copy of the right one
twisted through its word.  The differential and the Leibniz term of a
connection are one loop, add_leibniz, through _accumulate_triples, with each
monomial's derivative terms memoized per presentation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from operator import mul

from . import algebra
from .algebra import (
    AlgebraElement, Presentation, _accumulate, _accumulate_triples, _algebra, _element, _new, _phase,
    add_term, sub_term,
)
from .scalars import _GR_ONE, GaussianRational, Scalar, _scalar

SPINOR_RANK = 4  # every spinor slot e_alpha has alpha in 0..3


class ShapeError(ValueError):
    """Raised when tensor shapes (degree / spinor slot) do not match."""


# forms: tuple[int, ...], the form slots; spin: int | None, the spinor slot
BasisWord = namedtuple("BasisWord", ("forms", "spin"))


def _basis_word_repr(self: BasisWord) -> str:
    parts = [f"dz{i + 1}" for i in self.forms]
    if self.spin is not None:
        parts.append(f"e{self.spin + 1}")
    return "(x)".join(parts) if parts else "1"


BasisWord.__repr__ = _basis_word_repr


# BasisWord(forms, spin) without the Python-level namedtuple __new__
_tuple_new = tuple.__new__


def word_key(w: BasisWord) -> tuple:
    return (w.forms, -1 if w.spin is None else w.spin)


def _twist(p: Presentation, forms: tuple[int, ...]) -> tuple[int, ...] | None:
    """Per-generator q-exponents of moving a coefficient left through forms.

    w * z^m = q**(twist . m) z^m * w, by dz_i z_j = R[j][i] z_j dz_i; None for
    the empty word, which moves nothing.  Memoized per presentation as a
    tuple, so no caller can change a stored twist; the memo holds at most
    PRODUCT_CACHE_BOUND entries.
    """
    if not forms:
        return None
    cache = p._twist_cache
    twist = cache.get(forms)
    if twist is None:
        exps = [0] * p.n
        for i in forms:
            for j, e in enumerate(p.q_exp[i]):  # R[j][i] = R[i][j]**-1
                exps[j] -= e
        twist = tuple(exps)
        if len(cache) < algebra.PRODUCT_CACHE_BOUND:
            cache[forms] = twist
    return twist


def _unit(c: AlgebraElement) -> bool:
    """Whether c is the coefficient 1: the constant monomial with the scalar 1."""
    if len(c.terms) != 1:
        return False
    (m, s), = c.terms.items()
    return not any(m) and len(s.terms) == 1 and s.terms.get(0) == _GR_ONE


def _copy(p: Presentation, c: AlgebraElement, twist: tuple[int, ...] | None = None) -> AlgebraElement:
    """c in p with fresh term and Scalar dicts: 1 * c, with no product.

    twist (see _twist) moves c left through basis letters: each monomial m's
    q-exponents shift by twist . m, the phase _accumulate would add.
    """
    if twist is None:
        return _algebra(p, {m: _scalar(dict(s.terms)) for m, s in c.terms.items()})
    terms = {}
    for m, s in c.terms.items():
        shift = sum(map(mul, twist, m))
        terms[m] = _scalar({k + shift: g for k, g in s.terms.items()})
    return _algebra(p, terms)


class TensorSum:
    """A sum of coefficient products under basis words, built into a TensorElement once.

    Each word holds a raw map of algebra._accumulate, so adding a term builds
    no intermediate Scalar, AlgebraElement or TensorElement.
    """

    __slots__ = ("presentation", "words")

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.words: dict[BasisWord, dict] = {}

    def add_product(self, w: BasisWord, a: AlgebraElement, b: AlgebraElement, twist=None):
        """Add a * b under w; twist (see _twist) first moves b left through basis letters."""
        _accumulate(_word_map(self.words, w), self.presentation, a.terms, b.terms, twist)

    def add_right_mul(self, e: "TensorElement", a: AlgebraElement):
        """Add the right action e * a (see right_mul), building no element for it."""
        p = self.presentation
        for w, c in e.terms.items():
            self.add_product(w, c, a, _twist(p, w.forms))

    def element(self, degree: int, has_spin: bool) -> "TensorElement":
        """The sum, whose words the caller vouches fit (degree, has_spin); cancelled words drop."""
        p = self.presentation
        terms = {}
        for w, acc in self.words.items():
            c = _element(p, acc)
            if c.terms:
                terms[w] = c
        return _tensor(p, degree, has_spin, terms)


def _word_map(words: dict, w: BasisWord) -> dict:
    """The raw map of algebra._accumulate kept under w, created on first use."""
    acc = words.get(w)
    if acc is None:
        acc = words[w] = {}
    return acc


def _tensor(p: Presentation, degree: int, has_spin: bool, terms: dict) -> "TensorElement":
    """A TensorElement that takes over terms: words of its shape, no zero coefficient."""
    e = _new(TensorElement)
    e.presentation = p
    e.degree = degree
    e.has_spin = has_spin
    e.terms = terms
    return e


class TensorElement:
    """Left-normal-form element of the degree-k form module, optional spinor slot."""

    __slots__ = ("presentation", "degree", "has_spin", "terms")

    def __init__(
        self,
        presentation: Presentation,
        degree: int,
        has_spin: bool,
        terms: dict[BasisWord, AlgebraElement] | None = None,
    ):
        self.presentation = presentation
        self.degree = degree
        self.has_spin = has_spin
        self.terms = {}
        for w, c in (terms or {}).items():
            if len(w.forms) != degree or (w.spin is not None) != has_spin:
                raise ShapeError(f"word {w} does not fit shape ({degree}, spin={has_spin})")
            if not c.is_zero():
                self.terms[w] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: Presentation, degree: int, has_spin: bool = False) -> "TensorElement":
        return TensorElement(p, degree, has_spin)

    @staticmethod
    def basis(
        p: Presentation,
        forms: tuple[int, ...] = (),
        spin: int | None = None,
        coeff: AlgebraElement | None = None,
    ) -> "TensorElement":
        c = coeff if coeff is not None else AlgebraElement.one(p)
        w = _tuple_new(BasisWord, (tuple(forms), spin))
        return TensorElement(p, len(w.forms), spin is not None, {w: c})

    def shape(self) -> tuple[int, bool]:
        return (self.degree, self.has_spin)

    # -- module structure ----------------------------------------------------

    def _require_same_shape(self, other: "TensorElement"):
        if self.presentation is not other.presentation and self.presentation != other.presentation:
            raise ValueError("presentation mismatch")
        if self.shape() != other.shape():
            raise ShapeError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._require_same_shape(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return _tensor(self.presentation, self.degree, self.has_spin, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._require_same_shape(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            sub_term(out, w, c)
        return _tensor(self.presentation, self.degree, self.has_spin, out)

    def __neg__(self) -> "TensorElement":
        return _tensor(
            self.presentation,
            self.degree,
            self.has_spin,
            {w: -c for w, c in self.terms.items()},
        )

    def left_mul(self, a: AlgebraElement) -> "TensorElement":
        if a.presentation is not self.presentation and a.presentation != self.presentation:
            raise ValueError("presentation mismatch")
        out = TensorSum(self.presentation)
        for w, c in self.terms.items():
            out.add_product(w, a, c)
        return out.element(self.degree, self.has_spin)

    def scale(self, s: Scalar) -> "TensorElement":
        return TensorElement(
            self.presentation,
            self.degree,
            self.has_spin,
            {w: c.scale(s) for w, c in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.presentation == other.presentation
            and self.shape() == other.shape()
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def convert(self, target: Presentation) -> "TensorElement":
        return TensorElement(
            target,
            self.degree,
            self.has_spin,
            {w: c.convert(target) for w, c in self.terms.items()},
        )

    # -- serialization and display -------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for w, c in sorted(self.terms.items(), key=lambda t: word_key(t[0])):
            entry = {"word": list(w.forms), "coeff": c.to_json()}
            if w.spin is not None:
                entry["alpha"] = w.spin
            entries.append(entry)
        return {"degree": self.degree, "spinor": self.has_spin, "terms": entries}

    @staticmethod
    def from_json(data: dict, p: Presentation) -> "TensorElement":
        """Read what to_json writes; any other type or range raises ValueError.

        A word whose length is not the degree, or an alpha that does not match
        the spinor flag, is a ShapeError (a ValueError) from the constructor.
        """
        try:
            degree, has_spin = data["degree"], data["spinor"]
            # bool is an int subclass, so the type checks are exact
            if type(degree) is not int or degree < 0:
                raise ValueError(f"tensor degree must be a non-negative JSON integer: {degree!r}")
            if type(has_spin) is not bool:
                raise ValueError(f"tensor spinor flag must be a JSON boolean: {has_spin!r}")
            terms = {}
            for entry in data["terms"]:
                forms = tuple(entry["word"])
                if any(type(i) is not int or not 0 <= i < p.n for i in forms):
                    raise ValueError(f"word letters must be JSON integers in 0..{p.n - 1}: {list(forms)}")
                alpha = entry.get("alpha")
                if alpha is not None and (type(alpha) is not int or not 0 <= alpha < SPINOR_RANK):
                    raise ValueError(f"spinor index must be a JSON integer in 0..{SPINOR_RANK - 1}: {alpha!r}")
                w = BasisWord(forms, alpha)
                if w in terms:  # a second entry would silently replace the first
                    raise ValueError(f"tensor word {w!r} appears twice")
                terms[w] = AlgebraElement.from_json(entry["coeff"], p)
            return TensorElement(p, degree, has_spin, terms)
        except (TypeError, KeyError) as exc:  # a list for an object, a missing field
            raise ValueError(f"malformed tensor: {exc!r}") from exc

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda t: word_key(t[0])):
            parts.append(f"[{c!r}]*{w!r}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------


def right_mul(e: TensorElement, a: AlgebraElement) -> TensorElement:
    """Right action e * a, pushing a left through every basis word."""
    if a.presentation is not e.presentation and a.presentation != e.presentation:
        raise ValueError("presentation mismatch")
    out = TensorSum(e.presentation)
    out.add_right_mul(e, a)
    return out.element(e.degree, e.has_spin)


def tensor(e1: TensorElement, e2: TensorElement) -> TensorElement:
    """Relative tensor product over the algebra; e1 must have no spinor slot.

    A unit single-word factor costs no product: 1 moves left through any
    word, so with it on the right the result relabels e1's words, and with
    it on the left, w1 (x) c2 w2 = (c2 moved left through w1) w1 (x) w2 is
    e2's terms twisted through w1 (see _copy), as _accumulate would twist
    them under 1 * c2.
    """
    if e1.presentation is not e2.presentation and e1.presentation != e2.presentation:
        raise ValueError("presentation mismatch")
    if e1.has_spin:
        raise ShapeError("left tensor factor cannot carry the spinor slot")
    p = e1.presentation
    degree = e1.degree + e2.degree
    if len(e2.terms) == 1:
        (w2, c2), = e2.terms.items()
        if _unit(c2):  # 1 moves left through any word: relabel e1's words, as with_spinor does
            forms, spin = w2.forms, w2.spin
            terms = {
                _tuple_new(BasisWord, (w1.forms + forms, spin)): _copy(p, c1) for w1, c1 in e1.terms.items()
            }
            return _tensor(p, degree, e2.has_spin, terms)
    if len(e1.terms) == 1:
        (w1, c1), = e1.terms.items()
        if _unit(c1):  # 1 * c2 with c2 moved left through w1: a twisted copy of e2's terms
            forms, twist = w1.forms, _twist(p, w1.forms)
            terms = {
                _tuple_new(BasisWord, (forms + w2.forms, w2.spin)): _copy(p, c2, twist) for w2, c2 in e2.terms.items()
            }
            return _tensor(p, degree, e2.has_spin, terms)
    out = TensorSum(p)
    words = out.words  # accumulated into directly, as apply_at does
    for w1, c1 in e1.terms.items():
        twist = _twist(p, w1.forms)
        for w2, c2 in e2.terms.items():
            word = _tuple_new(BasisWord, (w1.forms + w2.forms, w2.spin))
            acc = words.get(word)
            if acc is None:
                acc = words[word] = {}
            _accumulate(acc, p, c1.terms, c2.terms, twist)
    return out.element(degree, e2.has_spin)


def with_spinor(e: TensorElement, alpha: int) -> TensorElement:
    """e (x) e_alpha for a spinor-free e, by giving each word of e the spinor slot alpha.

    e_alpha has the coefficient 1, which moves left through any word
    unchanged, so this equals tensor(e, e_alpha) without a product.
    """
    if e.has_spin:
        raise ShapeError("the element already carries a spinor slot")
    terms = {_tuple_new(BasisWord, (w.forms, alpha)): c for w, c in e.terms.items()}
    return _tensor(e.presentation, e.degree, True, terms)


class LeftLinearMap:
    """Left-linear map stored extensionally on the free basis of its domain.

    apply(sum_w c_w w) = sum_w c_w * image(w).  A composite that is
    left-linear in its input is stored as one such map on the free words:
    for x = sum_w c_w w, R(x) = sum_w c_w R(w) holds exactly, because the
    normal-form product of a confluent presentation is associative and
    distributive.  A composite is left-linear with no Leibniz term and no
    fixed factor left of its input, but also where its Leibniz terms cancel
    or its left factor is central, under premises that verify_metric and
    verify_spinorial name and check.  on_free_words is the one way the
    engine builds a stored map from an image function; a connection keeps
    the values it is given on its basis words as one such map
    (geometry.Connection.value_map).
    """

    __slots__ = ("presentation", "domain", "codomain", "images")

    def __init__(
        self,
        presentation: Presentation,
        domain: tuple[int, bool],
        codomain: tuple[int, bool],
        images: dict[BasisWord, TensorElement],
    ):
        self.presentation = presentation
        self.domain = domain
        self.codomain = codomain
        self.images = dict(images)
        k, dspin = domain
        for w, img in self.images.items():
            if len(w.forms) != k or (w.spin is not None) != dspin:
                raise ShapeError(f"image key {w} does not fit domain {domain}")
            if img.presentation is not presentation and img.presentation != presentation:
                raise ValueError(f"image of {w} is over another presentation")
            if (img.degree, img.has_spin) != codomain:
                raise ShapeError(f"image of {w} does not fit codomain {codomain}")

    @staticmethod
    def on_free_words(
        p: Presentation, domain: tuple[int, bool], image: Callable[[BasisWord], TensorElement]
    ) -> "LeftLinearMap":
        """The map with image(w) on every free word w of domain; the images' shape is the codomain."""
        images = {w: image(w) for w in all_basis_words(p, *domain)}
        return LeftLinearMap(p, domain, next(iter(images.values())).shape(), images)

    def apply(self, e: TensorElement) -> TensorElement:
        self._check_domain(e)
        return self.apply_at(e, 0)

    def _check_domain(self, e: TensorElement) -> None:
        if e.shape() != self.domain:
            raise ShapeError(f"element shape {e.shape()} does not match domain {self.domain}")

    def apply_at(self, e: TensorElement, at: int) -> TensorElement:
        """Apply to the slot window [at, at + domain_degree) of e.

        A spinor-consuming map must sit at the right end of the word.  Image
        coefficients are twisted left through the untouched prefix slots.
        Over a whole word, whose spinor slot (if any) the map consumes, a
        word of e is its own image key and an image word its own output
        word.  A single word with the coefficient 1 gets a copy of its image,
        with no product: each image word placed between the prefix and the
        suffix of the window, each coefficient twisted through the prefix.
        """
        out_degree, out_spin, whole = self._window(e, at)
        p = e.presentation
        if len(e.terms) == 1:
            (w, c), = e.terms.items()
            if _unit(c):  # 1 * image, with no product
                k, dspin = self.domain
                forms = w.forms
                key = w if whole else _tuple_new(BasisWord, (forms[at:at + k], w.spin if dspin else None))
                img = self.images.get(key)
                if img is not None:  # a missing image raises in _accumulate_at
                    if whole:
                        return _tensor(p, out_degree, out_spin, {w2: _copy(p, c2) for w2, c2 in img.terms.items()})
                    prefix, suffix = forms[:at], forms[at + k:]
                    twist = _twist(p, prefix)
                    cspin, spin = self.codomain[1], None if dspin else w.spin
                    terms = {
                        _tuple_new(BasisWord, (prefix + w2.forms + suffix, w2.spin if cspin else spin)):
                            _copy(p, c2, twist)
                        for w2, c2 in img.terms.items()
                    }
                    return _tensor(p, out_degree, out_spin, terms)
        out = TensorSum(p)
        self._accumulate_at(out.words, e, at, whole)
        return out.element(out_degree, out_spin)

    def add_apply_at(self, out: TensorSum, e: TensorElement, at: int) -> None:
        """Add apply_at(e, at) to out, the TensorSum of a larger sum, building no element for it."""
        self._accumulate_at(out.words, e, at, self._window(e, at)[2])

    def _window(self, e: TensorElement, at: int) -> tuple[int, bool, bool]:
        """Check that the map fits e at slot at; the output shape, and whether the window is whole.

        A whole window covers the whole word of e and consumes its spinor
        slot, if any.
        """
        if e.presentation is not self.presentation and e.presentation != self.presentation:
            raise ValueError("presentation mismatch")
        k, dspin = self.domain
        if at < 0 or at + k > e.degree:
            raise ShapeError("slot window out of range")
        if dspin and (not e.has_spin or at + k != e.degree):
            raise ShapeError("spinor-consuming map must cover the rightmost slots")
        if not dspin and self.codomain[1]:
            raise ShapeError("cannot splice a spinor-producing map mid-word")
        out_spin = self.codomain[1] or (e.has_spin and not dspin)
        whole = at == 0 and k == e.degree and not (e.has_spin and not dspin)
        return e.degree - k + self.codomain[0], out_spin, whole

    def _accumulate_at(self, words: dict, e: TensorElement, at: int, whole: bool) -> None:
        """Add the map applied at the window of e at at to words, the raw maps of a TensorSum."""
        p = e.presentation
        k, dspin = self.domain
        cspin = self.codomain[1]
        images = self.images
        for w, c in e.terms.items():
            if whole:  # w is its image key, each image word its output word, and no twist applies
                mid, prefix, twist = w, None, None
            else:
                forms = w.forms
                mid = _tuple_new(BasisWord, (forms[at:at + k], w.spin if dspin else None))
                prefix, suffix = forms[:at], forms[at + k:]
                twist = _twist(p, prefix)
                spin = None if dspin else w.spin
            img = images.get(mid)
            if img is None:
                raise KeyError(f"map has no image for basis word {mid}")
            for w2, c2 in img.terms.items():
                if prefix is not None:
                    w2 = _tuple_new(BasisWord, (prefix + w2.forms + suffix, w2.spin if cspin else spin))
                acc = words.get(w2)
                if acc is None:
                    acc = words[w2] = {}
                _accumulate(acc, p, c.terms, c2.terms, twist)

    def convert(self, target: Presentation) -> "LeftLinearMap":
        return LeftLinearMap(
            target,
            self.domain,
            self.codomain,
            {w: img.convert(target) for w, img in self.images.items()},
        )


def all_basis_words(p: Presentation, degree: int, has_spin: bool = False) -> list[BasisWord]:
    """The free words of shape (degree, has_spin): dz_i1 (x) ... (x) dz_ik [(x) e_alpha], alpha innermost."""
    words: list[tuple[int, ...]] = [()]
    for _ in range(degree):
        words = [w + (i,) for w in words for i in range(p.n)]
    spins = range(SPINOR_RANK) if has_spin else (None,)
    return [_tuple_new(BasisWord, (w, alpha)) for w in words for alpha in spins]


def right_linearity_residuals(m: LeftLinearMap):
    """(label, m(w * z_j) - m(w) * z_j) for every form basis word w and generator z_j."""
    p = m.presentation
    gens = [AlgebraElement.generator(p, j) for j in range(p.n)]
    for w in all_basis_words(p, m.domain[0]):
        base = TensorElement.basis(p, w.forms)
        image = m.apply(base)
        for j, zj in enumerate(gens):
            yield f"{w!r},z{j + 1}", m.apply(right_mul(base, zj)) - right_mul(image, zj)


def commutator_residuals(e: TensorElement):
    """(label, e * z_j - z_j * e) for every generator z_j: e is central when all vanish."""
    p = e.presentation
    for j in range(p.n):
        zj = AlgebraElement.generator(p, j)
        yield f"z{j + 1}", right_mul(e, zj) - e.left_mul(zj)


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------


def _derivative(p: Presentation, mono: tuple[int, ...]) -> tuple:
    """The (g, ((m - e_g, -phase(m - e_g, e_g), k),)) of d(z^m), one per letter g with k = m[g] > 0.

    d acts on each letter of an ordered monomial and commutes the created dz_g
    left past the trailing letters; the k equal letters z_g give equal twists,
    so d(z^m) = sum_g k q**-phase(m - e_g, e_g) z^(m - e_g) dz_g, where m - e_g
    is in normal form.  Memoized per presentation as tuples, so no caller can
    change a stored derivative; the memo holds at most PRODUCT_CACHE_BOUND
    entries.
    """
    cache = p._derivative_cache
    terms = cache.get(mono)
    if terms is None:
        out = []
        for g, k in enumerate(mono):
            if k:
                rem = mono[:g] + (k - 1,) + mono[g + 1:]
                unit = (0,) * g + (1,) + (0,) * (p.n - 1 - g)
                out.append((g, ((rem, -_phase(p, rem, unit), _GR_ONE if k == 1 else GaussianRational(k)),)))
        terms = tuple(out)
        if len(cache) < algebra.PRODUCT_CACHE_BOUND:
            cache[mono] = terms
    return terms


def add_leibniz(out: TensorSum, terms: dict[BasisWord, AlgebraElement]) -> None:
    """Add the Leibniz term sum_w d(c_w) (x) w of the left coefficients c_w to out.

    Each monomial's derivative terms come from _derivative.  The coefficient 1
    of w moves left through dz_g freely.
    """
    p = out.presentation
    for w, c in terms.items():
        for mono, s in c.terms.items():
            for g, triples in _derivative(p, mono):
                word = _tuple_new(BasisWord, ((g,) + w.forms, w.spin))
                _accumulate_triples(_word_map(out.words, word), triples, s)


def differential(a: AlgebraElement) -> TensorElement:
    """Leibniz differential of a representative, in left-normal form: add_leibniz under the empty word."""
    out = TensorSum(a.presentation)
    add_leibniz(out, {BasisWord((), None): a})
    return out.element(1, False)
