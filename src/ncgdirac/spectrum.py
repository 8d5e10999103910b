"""Spectrum of the rotated torus Dirac operator via momentum sectors.

The operator commutes with the total momentum grading: the monomial bidegree
of the coefficient plus the half-integer weight of the spinor basis vector.
Each sector is 4-dimensional and the operator restricts to a 4x4 matrix M over
Q(i)[q, q^-1] that does not depend on theta (exact_sector, which reads each
column from the raw coefficient sums of the bundle's one operator,
rotated_dirac).  When a bundle first needs a sector, certify_sector checks
exactly that M^2 - lambda^2 I = 0 and tr M = 0, with lambda^2 =
((2m+1)^2 + (2n+1)^2)/2 a Fraction; the sector and this verdict are one
immutable SectorMatrix record, kept in the bundle's sector_store and handed
out as it is.  A certified sector has the eigenvalues -lambda, -lambda,
+lambda, +lambda at every theta (the isospectrality of the Connes-Landi
deformation), so a scan reports +-sqrt(lambda^2), with the deviation the
sector stores, and substitutes q = exp(i*theta/4) into no entry.  A sector
whose certificate fails fails the scan's report and reports no eigenvalues:
the certificate is the verdict.  A sector that escapes its momentum fails the
scan with the clause sector_exact[m,n], and the scan then reports no
eigenvalues at all.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

from .algebra import Monomial, _element
from .catalog import SPINOR_RANK, SpaceBundle
from .reports import Clause, Report
from .scalars import Scalar, _scalar
from .spin import ScalarMatrix, mat_mul
from .tensors import BasisWord, TensorSum

# sectors kept per bundle: every sector up to mmax = 24 (49^2 = 2401), about
# 4.3 KB each (3.7 KB of it the matrix, by a recursive sys.getsizeof of each
# sector |m|,|n| <= 8), so about 11 MB at the bound; past the bound a sector
# is computed and certified on each use without being kept
SECTOR_STORE_BOUND = 2500


class SectorEscape(RuntimeError):
    """The symbolic image left its momentum sector: factoring was not exact."""


def closed_form_value(m: int, n: int) -> float:
    return math.sqrt(2.0) * math.hypot(m + 0.5, n + 0.5)


def momentum_monomial(p1: int, p2: int) -> Monomial:
    """The unique irreducible torus monomial of phi-momentum (p1, p2)."""
    return (max(p1, 0), max(p2, 0), max(-p1, 0), max(-p2, 0))


# spinor basis weights relative to e_1; the sector of (m, n) pairs e_alpha
# with the monomial restoring total momentum (m + 1/2, n + 1/2)
_SPIN_OFFSETS = ((0, 0), (1, 1), (0, 1), (1, 0))


def sector_basis(m: int, n: int) -> list[tuple[Monomial, int]]:
    return [
        (momentum_monomial(m + dm, n + dn), alpha)
        for alpha, (dm, dn) in enumerate(_SPIN_OFFSETS)
    ]


class SectorMatrix(namedtuple("SectorMatrix", "m n matrix lambda_sq square trace root deviation")):
    """One exact sector M(m, n) and its certificate, as the bundle's sector_store keeps it.

    square and trace hold the nonzero residuals of M^2 - lambda^2 I (labelled
    "m,n,row,col") and of tr M (labelled "m,n"); the sector is certified when
    both are empty.  It is built from its first six fields and stores root,
    the float sqrt(lambda^2), and deviation, its distance from
    closed_form_value(m, n): -root + t = t - root and root - t = -(t - root)
    in IEEE arithmetic, so each of the four eigenvalues has that deviation,
    bit for bit.  An immutable namedtuple record with no __dict__, it
    compares equal to a plain tuple of its items; no report writes it.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, matrix: ScalarMatrix, lambda_sq: Fraction, square: tuple, trace: tuple):
        # float(lambda_sq), with no Python-level call
        root = math.sqrt(lambda_sq.numerator / lambda_sq.denominator)
        deviation = abs(root - closed_form_value(m, n))
        return tuple.__new__(cls, (m, n, matrix, lambda_sq, square, trace, root, deviation))

    @property
    def certified(self) -> bool:
        return not self.square and not self.trace

    def eigenvalues(self) -> list[float]:
        """-sqrt(lambda^2) and +sqrt(lambda^2), each twice: what a certificate proves."""
        root = self.root
        return [-root, -root, root, root]


def certify_sector(m: int, n: int, matrix: ScalarMatrix) -> SectorMatrix:
    """Check M^2 = lambda^2 I and tr M = 0 exactly, over Q(i)[q, q^-1]."""
    # 2((m + 1/2)^2 + (n + 1/2)^2), the square of the closed-form eigenvalue
    lam2 = Fraction((2 * m + 1) ** 2 + (2 * n + 1) ** 2, 2)
    diagonal = Scalar.rational(lam2)
    # a residual is nonzero exactly where the entry differs from lambda^2 I
    square_residuals = tuple(
        (f"{m},{n},{r + 1},{c + 1}", entry - diagonal if r == c else entry)
        for r, row in enumerate(mat_mul(matrix, matrix))
        for c, entry in enumerate(row)
        if (entry != diagonal if r == c else entry.terms)
    )
    trace = sum((matrix[r][r] for r in range(SPINOR_RANK) if matrix[r][r].terms), Scalar.zero())
    trace_residuals = () if trace.is_zero() else ((f"{m},{n}", trace),)
    return SectorMatrix(m, n, matrix, lam2, square_residuals, trace_residuals)


# the spinor basis words e_alpha of a sector column
_SPINOR_WORDS = tuple(BasisWord((), alpha) for alpha in range(SPINOR_RANK))


def exact_sector(t2: SpaceBundle, m: int, n: int) -> ScalarMatrix:
    """Apply the operator symbolically to the sector basis and factor it out.

    Entry (beta, col) is the coefficient of basis vector beta in the image of
    basis vector col; sector_matrix certifies the result and stores it.
    Each column is added into a TensorSum by t2.rotated_dirac.add_term, the
    operator dtilde_apply builds its elements with, and each entry is read
    from the raw sums as one Scalar: no element is built for the column,
    its Leibniz term or its image.  The factoring must be exact: every
    output coefficient is a single scalar multiple of the receiving basis
    monomial, otherwise SectorEscape is raised and spectrum_scan fails with
    no eigenvalues.  A bundle without a hypersurface (r4) has no operator
    and is refused with ValueError.
    """
    operator = t2.rotated_dirac
    p = t2.presentation
    basis = sector_basis(m, n)
    one = Scalar.one()
    entries = [[Scalar.zero()] * SPINOR_RANK for _ in range(SPINOR_RANK)]
    for col, (mono, alpha) in enumerate(basis):
        out = TensorSum(p)
        operator.add_term(out, _SPINOR_WORDS[alpha], {mono: one})
        for w, acc in out.words.items():
            beta = w.spin
            target = basis[beta][0]
            coeffs = acc.pop(target, None)
            if any(acc.values()):  # a monomial other than the target has a nonzero sum
                if coeffs is not None:
                    acc[target] = coeffs
                raise SectorEscape(
                    f"sector ({m},{n}): image of basis column {col} has "
                    f"coefficient {_element(p, acc)!r} outside monomial {target}"
                )
            if coeffs:  # a sum that cancelled is no term of the image
                entries[beta][col] = _scalar(coeffs)
    return tuple(tuple(row) for row in entries)


def sector_matrix(t2: SpaceBundle, m: int, n: int) -> SectorMatrix:
    """The sector from the bundle's store, built and certified on first use."""
    store = t2.sector_store
    sector = store.get((m, n))
    if sector is None:
        sector = certify_sector(m, n, exact_sector(t2, m, n))
        if len(store) < SECTOR_STORE_BOUND:
            store[(m, n)] = sector
    return sector


class SpectrumReport:
    """A scan's eigenvalue entries, their largest deviation and its sector certificate."""

    __slots__ = ("theta", "mmax", "certificate", "eigenvalues", "max_deviation", "fallback_used")

    def __init__(
        self,
        theta: float,
        mmax: int,
        certificate: Report,
        eigenvalues: list[dict] | None = None,
        max_deviation: float = 0.0,
        fallback_used: bool = False,
    ):
        self.theta = theta
        self.mmax = mmax
        self.certificate = certificate
        self.eigenvalues = [] if eigenvalues is None else eigenvalues
        self.max_deviation = max_deviation
        self.fallback_used = fallback_used

    @property
    def all_passed(self) -> bool:
        """Every sector factored exactly, is certified and matched its closed form to 1e-9."""
        return (
            not self.fallback_used
            and self.certificate.all_passed
            and self.max_deviation < 1e-9
        )

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "mmax": self.mmax,
            "eigenvalues": self.eigenvalues,
            "max_deviation": self.max_deviation,
            "fallback_used": self.fallback_used,
            "certificate": self.certificate.to_json(),
        }


def check_scan_arguments(mmax: int, theta: float) -> None:
    """Refuse a scan range or angle that no scan can use, before anything is built."""
    if mmax < 0:
        raise ValueError("mmax must be nonnegative")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")


def spectrum_scan(t2: SpaceBundle, mmax: int, theta: float) -> SpectrumReport:
    """Eigenvalues of every sector with |m|, |n| <= mmax, matched to closed form.

    The report's certificate, named after the bundle, holds the families
    sector_square and sector_trace over all these sectors.  A sector that
    escapes its momentum (SectorEscape) ends the scan: the report is
    _truncated_scan's, whose certificate fails with the clause
    sector_exact[m,n] for that sector.  A bundle that is not a hypersurface
    of a hypersurface (r4, s3) has no torus sectors and is refused with
    ValueError before any sector is built.
    """
    check_scan_arguments(mmax, theta)
    h = t2.hypersurface
    if h is None or h.ambient.calculus.projector is None:
        raise ValueError(f"{t2.name} is not a hypersurface of a hypersurface: the scan needs the torus")
    report = SpectrumReport(theta=theta, mmax=mmax, certificate=Report(t2.name))
    square: list[tuple[str, Scalar]] = []
    trace: list[tuple[str, Scalar]] = []
    # one (value, m, n, deviation) row per sector for -root and one for
    # +root, each sorted with no key: every low is below every high, and
    # (m, n) is unique per sector, so lows then highs, each row twice, is
    # the order of all four eigenvalues by (value, m, n)
    lows: list[tuple[float, int, int, float]] = []
    highs: list[tuple[float, int, int, float]] = []
    for m in range(-mmax, mmax + 1):
        for n in range(-mmax, mmax + 1):
            try:
                sector = sector_matrix(t2, m, n)
            except SectorEscape as exc:
                escape = Clause(f"sector_exact[{m},{n}]", False, str(exc))
                return _truncated_scan(mmax, theta, escape, t2.name)
            if not sector.certified:
                square.extend(sector.square)
                trace.extend(sector.trace)
                continue
            # matched to -t, -t, t, t with one deviation (SectorMatrix.deviation)
            low, _, high, _ = sector.eigenvalues()
            d = sector.deviation
            lows.append((low, m, n, d))
            highs.append((high, m, n, d))
    lows.sort()
    highs.sort()
    entries = report.eigenvalues
    for v, m, n, d in lows + highs:
        entry = {"value": v, "m": m, "n": n, "deviation": d}
        entries += (entry, entry.copy())
    report.max_deviation = max(map(itemgetter(3), lows), default=0.0)
    report.certificate.family("sector_square", square)
    report.certificate.family("sector_trace", trace)
    return report


def _truncated_scan(mmax: int, theta: float, escape: Clause, subject: str) -> SpectrumReport:
    """The report of a scan cut short by a sector that escaped its momentum.

    It carries the failing escape clause in a certificate named subject, no
    eigenvalues and fallback_used.  bench/tracer.py counts its calls by this
    name (spectrum.fallback_scans) until the in-engine tracer replaces that
    wrapper (ROADMAP, "An in-engine stage tracer").
    """
    certificate = Report(subject, [escape])
    return SpectrumReport(theta=theta, mmax=mmax, certificate=certificate, fallback_used=True)
