"""Spectrum of the rotated torus Dirac operator via momentum sectors.

The operator commutes with the total momentum grading: the monomial bidegree
of the coefficient plus the half-integer weight of the spinor basis vector.
Each sector is 4-dimensional and the operator restricts to a 4x4 matrix M over
Q(i)[q, q^-1] that does not depend on theta (exact_sector).  When a bundle
first needs a sector, certify_sector checks exactly that M^2 - lambda^2 I = 0
and tr M = 0, with lambda^2 = ((2m+1)^2 + (2n+1)^2)/2 a Fraction; the sector
and this verdict are one frozen SectorMatrix, kept in the bundle's
sector_store and handed out as it is.  A certified sector has the eigenvalues
-lambda, -lambda, +lambda, +lambda at every theta (the isospectrality of the
Connes-Landi deformation), so a scan reports +-sqrt(lambda^2) and substitutes
q = exp(i*theta/4) into no entry.  A sector whose certificate fails fails the
scan's report and reports no eigenvalues: the certificate is the verdict.
A sector that escapes its momentum fails the scan with the clause
sector_exact[m,n], and the scan then reports no eigenvalues at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .algebra import AlgebraElement, Monomial
from .catalog import SPINOR_RANK, SpaceBundle, dtilde_apply
from .reports import Clause, Report
from .scalars import Scalar
from .spin import ScalarMatrix, mat_mul
from .tensors import TensorElement

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


@dataclass(frozen=True)
class SectorMatrix:
    """One exact sector M(m, n) and its certificate, as the bundle's sector_store keeps it.

    square and trace hold the nonzero residuals of M^2 - lambda^2 I (labelled
    "m,n,row,col") and of tr M (labelled "m,n"); the sector is certified when
    both are empty.
    """

    m: int
    n: int
    matrix: ScalarMatrix
    lambda_sq: Fraction
    square: tuple[tuple[str, Scalar], ...]
    trace: tuple[tuple[str, Scalar], ...]

    @property
    def certified(self) -> bool:
        return not self.square and not self.trace

    def eigenvalues(self) -> list[float]:
        """-sqrt(lambda^2) and +sqrt(lambda^2), each twice: what a certificate proves."""
        lam2 = self.lambda_sq
        root = math.sqrt(lam2.numerator / lam2.denominator)  # float(lam2), with no Python-level call
        return [-root, -root, root, root]


def certify_sector(m: int, n: int, matrix: ScalarMatrix) -> SectorMatrix:
    """Check M^2 = lambda^2 I and tr M = 0 exactly, over Q(i)[q, q^-1]."""
    # 2((m + 1/2)^2 + (n + 1/2)^2), the square of the closed-form eigenvalue
    lam2 = Fraction((2 * m + 1) ** 2 + (2 * n + 1) ** 2, 2)
    diagonal = Scalar.rational(lam2)
    square_residuals = tuple(
        (f"{m},{n},{r + 1},{c + 1}", residual)
        for r, row in enumerate(mat_mul(matrix, matrix))
        for c, entry in enumerate(row)
        if not (residual := (entry - diagonal if r == c else entry)).is_zero()
    )
    trace = sum((matrix[r][r] for r in range(SPINOR_RANK)), Scalar.zero())
    trace_residuals = () if trace.is_zero() else ((f"{m},{n}", trace),)
    return SectorMatrix(m, n, matrix, lam2, square_residuals, trace_residuals)


def exact_sector(t2: SpaceBundle, m: int, n: int) -> ScalarMatrix:
    """Apply the operator symbolically to the sector basis and factor it out.

    Entry (beta, col) is the coefficient of basis vector beta in the image of
    basis vector col; sector_matrix certifies the result and stores it.  The
    factoring must be exact: every output coefficient is a single scalar
    multiple of the receiving basis monomial, otherwise SectorEscape is
    raised and spectrum_scan fails with no eigenvalues.
    """
    p = t2.presentation
    basis = sector_basis(m, n)
    mono_for_alpha = {alpha: mono for mono, alpha in basis}
    entries = [[Scalar.zero()] * SPINOR_RANK for _ in range(SPINOR_RANK)]
    for col, (mono, alpha) in enumerate(basis):
        coeff = AlgebraElement(p, {mono: Scalar.one()})
        spinor = TensorElement.basis(p, (), alpha, coeff)
        image = dtilde_apply(t2, spinor)
        for w, c in image.terms.items():
            beta = w.spin
            target = mono_for_alpha[beta]
            if len(c.terms) != 1 or target not in c.terms:
                raise SectorEscape(
                    f"sector ({m},{n}): image of basis column {col} has "
                    f"coefficient {c!r} outside monomial {target}"
                )
            entries[beta][col] = c.terms[target]
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


@dataclass
class SpectrumReport:
    theta: float
    mmax: int
    certificate: Report
    eigenvalues: list[dict] = field(default_factory=list)
    max_deviation: float = 0.0
    fallback_used: bool = False

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
    # (value, m, n, deviation), sorted with no key: equal (value, m, n) come
    # from one sector with one deviation, so this is the order by (value, m, n)
    entries: list[tuple[float, int, int, float]] = []
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
            t = closed_form_value(m, n)
            # matched to -t, -t, t, t; v + t is exactly v - (-t)
            v1, v2, v3, v4 = sector.eigenvalues()
            entries += (
                (v1, m, n, abs(v1 + t)), (v2, m, n, abs(v2 + t)), (v3, m, n, abs(v3 - t)), (v4, m, n, abs(v4 - t))
            )
    entries.sort()
    report.eigenvalues = [{"value": v, "m": m, "n": n, "deviation": d} for v, m, n, d in entries]
    report.max_deviation = max(map(itemgetter(3), entries), default=0.0)
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
