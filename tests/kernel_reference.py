"""Shared pieces of the kernel property tests.

The catalog presentations r4, s3 and t2 built once each, and a term-by-term
reference product: every pair of terms is reduced as the normal form of the
concatenated words and added as a whole AlgebraElement.

The reference loops of the stored clause families: each residual (and each
induced Clifford image) is expanded from its input pair or basis form, with
no map stored on the free words.  The loops of inverse_right and
right_leibniz are the verifiers' own loops from before those families were
stored; metric_compatibility and clifford_compatibility apply the
tensor-product connection to each input (tensor_connection_apply) and
contract the result by its definition, with no ContractedConnection.

The per-residual loops of the assumption certificate's nu_transparency,
nabla_nu_transparency and corollaries, as they were before those families
were stored on the free words: each residual expanded from its basis form.

The Leibniz loop as it was before each monomial's derivative terms were
memoized: add_leibniz computing every phase afresh.

The sector path as it was before it skipped work: the dense triple loop of
mat_mul, the contracted connection that builds two elements per input and
merges them, and the scan that builds, maxes and sorts its entry dicts one
sector at a time with a key function.

The cold sector path as it was before it worked on raw coefficient sums:
exact_sector reading each column from the element dtilde_apply builds, the
certification whose matrix square builds one Scalar per product, and the
rewriting loop whose stack entries carry Scalar coefficients, with the phase
of every letter pair summed in a generator.
"""

import functools

from fractions import Fraction

from ncgdirac import algebra, spectrum
from ncgdirac.algebra import AlgebraElement, _accumulate_triples, _phase, add_term, extend_presentation, normal_form
from ncgdirac.catalog import dtilde_apply, r4_presentation, sphere_level_function, torus_level_function
from ncgdirac.geometry import tensor_connection_apply
from ncgdirac.reports import Clause, Report
from ncgdirac.scalars import _GR_ONE, GaussianRational, Scalar
from ncgdirac.spin import gamma_apply, gamma_iterated
from ncgdirac.tensors import (
    SPINOR_RANK, BasisWord, LeftLinearMap, TensorElement, TensorSum, add_leibniz, commutator_residuals, differential,
    right_mul, tensor, with_spinor,
)


@functools.cache
def presentation(name):
    p_r4 = r4_presentation()
    if name == "r4":
        return p_r4
    p_s3 = extend_presentation(p_r4, sphere_level_function(p_r4), name="s3")
    if name == "s3":
        return p_s3
    return extend_presentation(p_s3, torus_level_function(p_r4).convert(p_s3), name="t2")


def letters(mono):
    """The ascending word of generators whose product is the monomial."""
    return [g for g, e in enumerate(mono) for _ in range(e)]


def naive_mul(a, b):
    p = a.presentation
    out = AlgebraElement.zero(p)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = out + normal_form(letters(m1) + letters(m2), c1 * c2, p)
    return out


def reference_families(spin, metric, conn):
    """The seven stored families of verify_metric and verify_spinorial, each residual expanded from its input."""
    calc = conn.calculus
    p = calc.presentation
    basis, pairs = calc.basis, calc.pairs
    g1 = calc.canon(metric.g_element)
    gens = [AlgebraElement.generator(p, j) for j in range(p.n)]
    report = Report(subject=p.name)
    report.family(
        "inverse_left",
        (
            (f"dz{i + 1}", calc.canon(metric.g_inv.apply_at(tensor(basis[i], g1), 0)) - basis[i])
            for i in range(p.n)
        ),
    )

    def symmetry_checks():
        for i in range(p.n):
            for j in range(p.n):
                pair = tensor(basis[i], basis[j])
                yield f"dz{i + 1},dz{j + 1}", metric.pair(conn.sigma.apply(pair) - pair)

    report.family("symmetry", symmetry_checks())

    def clifford_checks():
        for i in range(p.n):
            for j in range(p.n):
                pair = tensor(basis[i], basis[j])
                sym = pair + conn.sigma.apply(pair)
                g_val = metric.pair(pair)
                for alpha in range(SPINOR_RANK):
                    e_a = TensorElement.basis(p, (), alpha)
                    lhs = gamma_iterated(spin, tensor(sym, e_a))
                    rhs = e_a.left_mul(g_val).scale(Scalar.rational(-2))
                    yield f"dz{i + 1},dz{j + 1},e{alpha + 1}", lhs - rhs

    report.family("clifford_relations", clifford_checks())
    report.family(
        "inverse_right",
        (
            (f"dz{i + 1}", calc.canon(metric.g_inv.apply_at(tensor(g1, basis[i]), 1)) - basis[i])
            for i in range(p.n)
        ),
    )

    def compatibility_checks():
        # g^-1 at slot 1 of nabla(x)(pair), with nabla(x) expanded on the pair itself
        for i in range(p.n):
            for j in range(p.n):
                pair = pairs[i][j]
                nabla = tensor_connection_apply(conn, conn, pair)
                yield (
                    f"dz{i + 1},dz{j + 1}",
                    calc.canon(metric.g_inv.apply_at(nabla, 1) - differential(metric.pair(pair))),
                )

    report.family("metric_compatibility", compatibility_checks())

    def leibniz_checks():
        d_gens = [calc.d(zj) for zj in gens]
        for i in range(p.n):
            nabla_i = conn.apply(basis[i])
            for j, zj in enumerate(gens):
                lhs = conn.raw_apply(right_mul(basis[i], zj))
                rhs = right_mul(nabla_i, zj) + conn.sigma.apply(tensor(basis[i], d_gens[j]))
                yield (f"dz{i + 1},z{j + 1}", calc.canon(lhs - rhs))

    report.family("right_leibniz", leibniz_checks())

    def spin_compatibility_checks():
        # gamma of nabla(x)(base), with nabla(x) expanded on the base itself
        for i in range(p.n):
            for alpha in range(SPINOR_RANK):
                base = with_spinor(basis[i], alpha)
                lhs = spin.spin_connection.raw_apply(gamma_apply(spin, base))
                rhs = gamma_apply(spin, tensor_connection_apply(conn, spin.spin_connection, base))
                yield (f"dz{i + 1},e{alpha + 1}", calc.canon(lhs - rhs))

    report.family("clifford_compatibility", spin_compatibility_checks())
    return report


def reference_certificate_families(h):
    """nu_transparency, nabla_nu_transparency and corollaries of the certificate, each residual expanded."""
    amb, amb_q = h.ambient, h.ambient_q
    n = amb.presentation.n
    quotient = amb_q.presentation
    report = Report(subject=quotient.name)
    sigma_q = amb_q.connection.sigma
    nabla_nu = h.nabla_nu_q
    pbasis = h.calculus.basis

    def nu_checks():
        # assumption 1: sigma(w (x) nu) = nu (x) w and sigma(nu (x) w) = w (x) nu
        sigma_amb = amb.connection.sigma
        acanon = amb.calculus.canon
        for i in range(n):
            base = amb.calculus.basis[i]
            w_nu, nu_w = tensor(base, h.nu), tensor(h.nu, base)
            yield f"dz{i + 1},nu", acanon(sigma_amb.apply(w_nu) - nu_w)
            yield f"nu,dz{i + 1}", acanon(sigma_amb.apply(nu_w) - w_nu)

    def nabla_nu_checks():
        # assumption 3: sigma_23 sigma_12 (Pi(w) (x) nabla(nu)) = nabla(nu) (x) Pi(w)
        # as classes: the difference is projected, with Pi on its first slot
        for i in range(n):
            x = tensor(pbasis[i], nabla_nu)
            lhs = sigma_q.apply_at(sigma_q.apply_at(x, 0), 1)
            residual = lhs - tensor(nabla_nu, pbasis[i])
            yield f"dz{i + 1}", h.pi.apply_at(amb_q.calculus.canon(residual), 0)

    def corollary_checks():
        # lemma corollaries and centrality of nabla(nu)
        for i in range(n):
            yield f"dz{i + 1},nu", amb_q.metric.pair(tensor(pbasis[i], h.nu_q))
            yield f"nu,dz{i + 1}", amb_q.metric.pair(tensor(h.nu_q, pbasis[i]))
        # lemma item: [(id (x) g^-1)(nabla(nu) (x) nu)] vanishes as a quotient
        # 1-form class, so the residual is projected before testing
        c3 = amb_q.metric.g_inv.apply_at(tensor(nabla_nu, h.nu_q), 1)
        yield "nabla_nu,nu", h.pi.apply_at(amb_q.calculus.canon(c3), 0)
        for label, residual in commutator_residuals(nabla_nu):
            yield f"nabla_nu,{label}", residual

    report.family("nu_transparency", nu_checks())
    report.family("nabla_nu_transparency", nabla_nu_checks())
    report.family("corollaries", corollary_checks())
    return report


def reference_induced_gamma(h, qc):
    """gamma_[2](b_i (x) nu (x) e_a) with the ambient gamma, for every basis form b_i of qc."""
    images = {}
    for i in range(qc.presentation.n):
        for alpha in range(SPINOR_RANK):
            e_a = TensorElement.basis(qc.presentation, (), alpha)
            t = tensor(tensor(qc.basis[i], h.nu_q), e_a)
            for _ in range(2):
                t = h.ambient_q.spin.gamma.apply_at(t, t.degree - 1)
            images[BasisWord((i,), alpha)] = t
    return images


def reference_add_leibniz(out, terms):
    """add_leibniz with the phase of every letter of every monomial computed afresh."""
    p = out.presentation
    unit = [(0,) * g + (1,) + (0,) * (p.n - 1 - g) for g in range(p.n)]
    for w, c in terms.items():
        for mono, s in c.terms.items():
            for g, k in enumerate(mono):
                if k:
                    rem = mono[:g] + (k - 1,) + mono[g + 1:]
                    triple = (rem, -_phase(p, rem, unit[g]), _GR_ONE if k == 1 else GaussianRational(k))
                    acc = out.words.setdefault(BasisWord((g,) + w.forms, w.spin), {})
                    _accumulate_triples(acc, (triple,), s)


def reference_mat_mul(a, b):
    """The dense triple loop: every product and sum, zero or not."""
    n = len(a)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            s = Scalar.zero()
            for k in range(n):
                s = s + a[r][k] * b[k][c]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def reference_contracted_connection(conn, phi):
    """ContractedConnection with k.apply(x) + phi_canon.apply(Leibniz term): two elements, then their sum."""
    calc = conn.calculus
    p = calc.presentation
    w0, v0 = next(iter(conn.values.items()))
    degree, has_spin = v0.shape()
    at = degree - phi.domain[0]
    phi_canon = LeftLinearMap.on_free_words(
        p, v0.shape(), lambda w: phi.apply_at(calc.canon(TensorElement.basis(p, w.forms, w.spin)), at)
    )
    k = LeftLinearMap.on_free_words(
        p, (len(w0.forms), w0.spin is not None), lambda w: phi_canon.apply(conn.values[w])
    )

    def apply(x):
        leibniz = TensorSum(p)
        add_leibniz(leibniz, x.terms)
        return k.apply(x) + phi_canon.apply(leibniz.element(degree, has_spin))

    return apply


def reference_scan(t2, mmax, theta):
    """spectrum_scan's loop with one dict per entry, a running max and a sort by a key function."""
    spectrum.check_scan_arguments(mmax, theta)
    report = spectrum.SpectrumReport(theta=theta, mmax=mmax, certificate=Report(t2.name))
    square, trace = [], []
    for m in range(-mmax, mmax + 1):
        for n in range(-mmax, mmax + 1):
            try:
                sector = spectrum.sector_matrix(t2, m, n)
            except spectrum.SectorEscape as exc:
                escape = Clause(f"sector_exact[{m},{n}]", False, str(exc))
                return spectrum._truncated_scan(mmax, theta, escape, t2.name)
            square.extend(sector.square)
            trace.extend(sector.trace)
            if not sector.certified:
                continue
            t = spectrum.closed_form_value(m, n)
            for got, want in zip(sector.eigenvalues(), (-t, -t, t, t)):
                deviation = abs(got - want)
                report.eigenvalues.append({"value": got, "m": m, "n": n, "deviation": deviation})
                report.max_deviation = max(report.max_deviation, deviation)
    report.eigenvalues.sort(key=lambda e: (e["value"], e["m"], e["n"]))
    report.certificate.family("sector_square", square)
    report.certificate.family("sector_trace", trace)
    return report


def reference_exact_sector(t2, m, n):
    """exact_sector reading each column from the TensorElement dtilde_apply builds."""
    p = t2.presentation
    basis = spectrum.sector_basis(m, n)
    mono_for_alpha = {alpha: mono for mono, alpha in basis}
    entries = [[Scalar.zero()] * SPINOR_RANK for _ in range(SPINOR_RANK)]
    for col, (mono, alpha) in enumerate(basis):
        spinor = TensorElement.basis(p, (), alpha, AlgebraElement(p, {mono: Scalar.one()}))
        for w, c in dtilde_apply(t2, spinor).terms.items():
            target = mono_for_alpha[w.spin]
            if len(c.terms) != 1 or target not in c.terms:
                raise spectrum.SectorEscape(
                    f"sector ({m},{n}): image of basis column {col} has "
                    f"coefficient {c!r} outside monomial {target}"
                )
            entries[w.spin][col] = c.terms[target]
    return tuple(tuple(row) for row in entries)


def _scalar_mat_mul(a, b):
    """mat_mul with one Scalar per product, summed by Scalar additions, skipping zero factors in ascending k."""
    n = len(a)
    b_rows = [[(c, y) for c, y in enumerate(row) if y.terms] for row in b]
    out = []
    for row in a:
        sums = [None] * n
        for x, b_row in zip(row, b_rows):
            if x.terms:
                for c, y in b_row:
                    s = sums[c]
                    sums[c] = x * y if s is None else s + x * y
        out.append(tuple(Scalar.zero() if s is None else s for s in sums))
    return tuple(out)


def reference_certify_sector(m, n, matrix):
    """certify_sector squaring the matrix with one Scalar per product."""
    lam2 = Fraction((2 * m + 1) ** 2 + (2 * n + 1) ** 2, 2)
    diagonal = Scalar.rational(lam2)
    square_residuals = tuple(
        (f"{m},{n},{r + 1},{c + 1}", residual)
        for r, row in enumerate(_scalar_mat_mul(matrix, matrix))
        for c, entry in enumerate(row)
        if not (residual := (entry - diagonal if r == c else entry)).is_zero()
    )
    trace = sum((matrix[r][r] for r in range(SPINOR_RANK)), Scalar.zero())
    trace_residuals = () if trace.is_zero() else ((f"{m},{n}", trace),)
    return spectrum.SectorMatrix(m, n, matrix, lam2, square_residuals, trace_residuals)


def reference_phase(p, m1, m2):
    e = 0
    for k, ek in enumerate(m2):
        if ek:
            row = p.q_exp[k]
            e += ek * sum(row[j] * m1[j] for j in range(k + 1, p.n))
    return e


def reference_mono_reduction(p, mono):
    """(normal form, steps) of the ordered monomial by the Scalar stack loop, memoizing nothing.

    Stack entries (monomial, Scalar coefficient, q-exponent); every irreducible
    monomial is added to the result with add_term.  The budget is read from
    algebra.STEP_BUDGET after each entry, as the kernel reads it.
    """
    out = {}
    stack = [(mono, Scalar.one(), 0)]
    steps = 0
    while stack:
        m, coeff, qexp = stack.pop()
        for rule in p.rules:
            if all(a <= b for a, b in zip(rule.lhs, m)):
                rem = tuple(map(int.__sub__, m, rule.lhs))
                qexp -= reference_phase(p, rem, rule.lhs)
                steps += 1
                for r, c in reversed(rule.rhs.items()):
                    steps += sum(r)
                    rmono = tuple(map(int.__add__, rem, r))
                    stack.append((rmono, coeff * c, qexp + reference_phase(p, rem, r)))
                break
        else:
            add_term(out, m, coeff.q_shift(qexp))
        if steps > algebra.STEP_BUDGET:
            raise algebra.RewriteBudgetExceeded(f"rewrite step budget of {algebra.STEP_BUDGET} steps exceeded")
    terms = tuple((m, k, _GR_ONE if g == _GR_ONE else g) for m, s in out.items() for k, g in s.terms.items())
    return terms, steps
