"""The tests' reference implementations, defined once: the Polynomial
product, combination and division by z - root that the library no longer
runs, the Fraction construction of the transforms, the per-member SOP
formula and gauge projection, the SOP oracle by linear solves and the
Fraction orthogonality report, an exact determinant, the recursive
Pfaffian expansion, the acceptance battery's two measures, the grid
values read off the bordered base table, the site tables by the public
shift chain, the degenerate grid, the lattice polynomials read off a
grid's accessors, the lattice relations in z, and the nonlinear lattice
systems with the AntiDiagonal sum, difference and product they need.

Each oracle reads like its formula and shares no code path with what it
checks: :func:`christoffel_fractions`, :func:`geronimus_fractions` and
:func:`kernel_fractions` build the L rows, R rows and kernel one Fraction
at a time, where :mod:`skewflow.transforms` keeps integer forms;
:func:`sop_even`/:func:`sop_odd` evaluate one member with its own
Pfaffians, where :func:`skewflow.sops.build_family` reads every member off
one elimination; :func:`gauge_projected_fractions` projects the odd
members with a Fraction alpha, where
:meth:`skewflow.sops.SOPFamily.gauge_projected` combines integer forms;
:func:`oracle_family_solve` solves each degree's defining relations by
fraction-free Bareiss elimination (:func:`solve_fraction_free`), where
:func:`skewflow.sops.oracle_family` runs skew Gram-Schmidt; :func:`orthogonality_fractions` compares and
writes each pairing as a Fraction, where
:func:`skewflow.sops.verify_skew_orthogonality` cross-multiplies integers; :func:`determinant` is Fraction Gaussian elimination,
independent of the Pfaffian engine; :func:`pfaffian_expand` expands
along the last index, where :func:`skewflow.pfaffian.pfaffian` eliminates;
:func:`bordered_grid_values` reads each grid value off the base table
bordered by mu and lambda rows, where :func:`skewflow.lattice.build_grid`
shifts an unreduced integer block once per site step; :func:`site_table`
reaches a site through public, reduced :class:`SkewMoments` shifts, mu
first, where the grid keeps no table per site; and
:func:`bilinear_checks` and :func:`lax_checks` check the dckp, edckp,
slax and edlax relations in ``Polynomial`` arithmetic on the printed
coefficient formulas, where
:mod:`skewflow.lattice` checks each as one integer identity; and
:func:`dpfl_fractions` and :func:`edpfl_fractions` check the dpfl and edpfl
relations in Fraction arithmetic on a field's reduced entries, where
:mod:`skewflow.lattice` cross-multiplies their integer forms.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from skewflow.algebra import Polynomial, convolve, linear_quotient, rat, rat_str
from skewflow.errors import DegreeBudgetExceeded, NotDivisible, SingularConfiguration
from skewflow.lattice import AntiDiagonal, TauGrid
from skewflow.moments import DiscreteMeasure, apply_form
from skewflow.pfaffian import (
    ZVAR, SkewMatrix, augmented_pfaffian, numeric_pfaffian, pfaffian,
)
from skewflow.report import Report
from skewflow.sops import COEFF_GAUGE, SOPFamily, skew_pairings, skew_product

SYM_MEASURE = DiscreteMeasure([1, 2, 4, 5, 6], [1, 1, 2, 1, 1])
ORTH_MEASURE = DiscreteMeasure(
    [-6, -5, -4, -2, -1, 1, 2, 4, 5, 6],
    [1, 1, 1, 2, 1, 1, 2, 1, 1, 1],
)


# -- Polynomial arithmetic the library runs on integer forms ------------


def mul(f, g):
    """The product of two polynomials."""
    if not f.num or not g.num:
        return Polynomial()
    return Polynomial._reduced(convolve(f.num, g.num), f.den * g.den)


def combination(terms):
    """sum_k c_k p_k for (c_k, p_k) pairs, c_k any rational spelling, over
    one common denominator, reduced once."""
    terms = [(c, p) for c, p in ((rat(c), p) for c, p in terms) if c and p.num]
    den = lcm(*(c.denominator * p.den for c, p in terms))
    out = [0] * max((len(p.num) for _, p in terms), default=0)
    for c, p in terms:
        k = c.numerator * (den // (c.denominator * p.den))
        for i, a in enumerate(p.num):
            out[i] += k * a
    return Polynomial._reduced(out, den)


def div_by_linear(f, root):
    """f / (z - root), exact: the library's integer quotient by
    q z - p for root = p/q, times q.  NotDivisible, naming the
    remainder f(root), when root is not a root of f."""
    root = rat(root)
    try:
        quotient = linear_quotient(f.num, root.numerator, root.denominator)
    except NotDivisible as exc:
        raise NotDivisible(f"{exc} (remainder {rat_str(f.eval(root))})") from None
    return Polynomial._reduced([root.denominator * c for c in quotient], f.den)


# -- the transforms in Fraction arithmetic --------------------------------


def kernel_row(family, y, n, factor):
    """The coefficients of factor * sum_{k<=n} (q_2k(y) q_{2k+1} -
    q_{2k+1}(y) q_2k) / r_k in the family, one Fraction each."""
    row = [Fraction(0)] * len(family.polys)
    for k in range(n + 1):
        c = factor / family.norms[k]
        row[2 * k] = -c * family.odd(k).eval(y)
        row[2 * k + 1] = c * family.even(k).eval(y)
    return tuple(row)


def kernel_fractions(family, pairs, y):
    """I_N(x, y): the kernel row of order N applied to the family."""
    return combination(zip(kernel_row(family, y, pairs, Fraction(1)), family.polys))


def christoffel_fractions(family, lam):
    """The transformed members, norms and L rows of a Christoffel step at
    lam: row 2n the kernel row of order n times r_n/q_2n(lam), row 2n+1
    q_{2n+2} - (q_{2n+2}(lam)/q_2n(lam)) q_2n, and member i row i's sum
    divided by z - lam."""
    even_at = [family.even(k).eval(lam) for k in range(family.pairs + 1)]
    ratios = [even_at[n + 1] / even_at[n] for n in range(family.pairs)]
    rows = []
    for n in range(family.pairs + 1):
        rows.append(kernel_row(family, lam, n, family.norms[n] / even_at[n]))
        if n < family.pairs:
            odd = [Fraction(0)] * len(family.polys)
            odd[2 * n], odd[2 * n + 2] = -ratios[n], Fraction(1)
            rows.append(tuple(odd))
    polys = [div_by_linear(combination(zip(row, family.polys)), lam) for row in rows[:-1]]
    norms = [ratio * r for ratio, r in zip(ratios, family.norms)]
    return polys, norms, tuple(rows)


def geronimus_fractions(family_next, family, moments, lam):
    """The R rows of a step at lam: R[i][j] = (-1)^j <q_i|q*_{j^1}>* /
    r*_{j//2} below the diagonal, <.|.>* the pairing on the table shifted
    by lam, summed entry by entry."""
    shifted = moments.shift(lam)
    size = len(family_next.polys)
    rows = []
    for i, f in enumerate(family.polys[:size]):
        below = [
            (-1) ** j * _pairing(shifted, f, family_next.polys[j ^ 1]) / family_next.norms[j // 2]
            for j in range(i)
        ]
        rows.append(tuple(below + [Fraction(1)] + [Fraction(0)] * (size - i - 1)))
    return tuple(rows)


def _denominator(moments, n):
    tau = numeric_pfaffian(moments, range(2 * n))
    if tau == 0:
        raise SingularConfiguration(
            f"denominator Pfaffian Pf(0..{2 * n - 1}) vanishes at n={n}"
        )
    return tau


def sop_even(moments, n):
    """Monic even SOP q_2n = Pf(0..2n, z)/Pf(0..2n-1)."""
    if 2 * n > moments.max_index:
        raise DegreeBudgetExceeded(f"q_{2 * n} needs max_index >= {2 * n}")
    tau = _denominator(moments, n)
    numerator = augmented_pfaffian(moments, list(range(2 * n + 1)) + [ZVAR])
    return numerator.scale(1 / tau)


def sop_odd(moments, n):
    """Monic odd SOP q_{2n+1} = Pf(0..2n-1, 2n+1, z)/Pf(0..2n-1), alpha_n = 0."""
    if 2 * n + 1 > moments.max_index:
        raise DegreeBudgetExceeded(f"q_{2 * n + 1} needs max_index >= {2 * n + 1}")
    tau = _denominator(moments, n)
    numerator = augmented_pfaffian(moments, list(range(2 * n)) + [2 * n + 1, ZVAR])
    return numerator.scale(1 / tau)


def gauge_projected_fractions(family):
    """The z^2n-coefficient-zero gauge on rationals: each odd member minus
    alpha times its even member, alpha the Fraction coefficient of z^2n in
    the odd member, through ``Polynomial.scale`` and subtraction."""
    polys = list(family.polys)
    for n in range(family.pairs + 1):
        q_even, q_odd = polys[2 * n], polys[2 * n + 1]
        polys[2 * n + 1] = q_odd - q_even.scale(q_odd.coefficient(2 * n))
    return SOPFamily(polys, family.norms, COEFF_GAUGE)


# -- the SOP oracle by linear solves, and the Fraction verifier ----------


def solve_fraction_free(rows):
    """Solve the integer system [A | b] fraction-free: (y, d) with d > 0
    and x = y/d.

    Forward elimination is Bareiss's with first-nonzero row pivoting: after
    step c the entry in row r > c and column j > c is the minor of the
    row-permuted system on rows 0..c, r and columns 0..c, j, so the
    division by the previous pivot is exact and the rows stay integers.
    The last pivot d is +-det(A), so y = d*x is an integer vector by
    Cramer's rule, and back substitution y_i = (d b_i - sum_j a_ij y_j) / a_ii
    divides exactly.
    """
    n = len(rows)
    a = [row[:] for row in rows]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SingularConfiguration("linear system for SOP oracle is singular")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        p = top[col]
        for r in range(col + 1, n):
            f = a[r][col]
            a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    det = prev if prev > 0 else -prev
    y = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        rest = sum(u * v for u, v in zip(row[i + 1 : n], y[i + 1 :]))
        y[i] = (det * row[n] - rest) // row[i]
    return y, det


def oracle_family_solve(moments, pairs):
    """The SOP family from its defining relations, one linear solve per
    degree: q_d = z^d + sum_{j<d} c_j z^j with <q_d|q_k> = 0 for
    k < 2*floor(d/2), odd degrees adding the gauge row c_{d-1} = 0."""
    if 2 * pairs + 1 > moments.max_index:
        raise DegreeBudgetExceeded(
            f"family with {pairs} pairs needs max_index >= {2 * pairs + 1}"
        )
    polys, norms = [], []
    # pairings[k][j] = <z^j|q_k> times its row's denominator: the j-th entry
    # of S*q_k in integers
    pairings = []
    for degree in range(2 * pairs + 2):
        lower = degree - (0 if degree % 2 == 0 else 1)
        rows = [pairings[k][:degree] + [-pairings[k][degree]] for k in range(lower)]
        if degree % 2 == 1:
            rows.append([0] * (degree - 1) + [1, 0])
        if degree == 0:
            polys.append(Polynomial([1]))
        else:
            y, det = solve_fraction_free(rows)
            polys.append(Polynomial._reduced(y + [det], det))
        pairings.append(apply_form(moments.form, polys[-1].num, polys[-1].den, 2 * pairs + 2)[0])
    for n in range(pairs + 1):
        r = skew_product(moments, polys[2 * n], polys[2 * n + 1])
        if r == 0:
            raise SingularConfiguration(f"normalization r_{n} vanishes")
        norms.append(r)
    return SOPFamily(polys, norms, COEFF_GAUGE)


def orthogonality_fractions(family, moments):
    """The orthogonality report with one Fraction per pairing and per
    target, compared and written as Fractions."""
    report = Report("orthogonality", {"provenance": moments.provenance})
    count = 2 * family.pairs + 2
    pairings = skew_pairings(moments.form, [(p.num, p.den) for p in family.polys])
    for a in range(count):
        for b in range(a + 1, count):
            value = Fraction(*pairings[a, b])
            if a % 2 == 0 and b == a + 1:
                expected = family.norms[a // 2]
            else:
                expected = Fraction(0)
            report.add(
                f"<q{a}|q{b}>",
                value == expected,
                f"lhs={rat_str(value)} rhs={rat_str(expected)}",
            )
    return report


def determinant(rows):
    """Determinant of a square matrix of ints or Fractions by Fraction
    Gaussian elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


# -- Pfaffians -----------------------------------------------------------


def skew_matrix(rows):
    """The SkewMatrix of a full square array; only its upper triangle is read."""
    return SkewMatrix(len(rows), lambda i, j: rows[i][j])


def matrix_rows(m):
    """The full square array of a SkewMatrix."""
    return [[m.entry(i, j) for j in range(m.dimension)] for i in range(m.dimension)]


def pfaffian_expand(matrix):
    """Pfaffian by recursive last-index expansion with memoized minors.

    Independent of :func:`skewflow.pfaffian.pfaffian`; kept as the
    cross-check oracle.
    """

    entry = matrix.entry

    @lru_cache(maxsize=None)
    def rec(indices):
        if not indices:
            return Fraction(1)
        if len(indices) == 2:
            return entry(indices[0], indices[1])
        last = indices[-1]
        rest = indices[:-1]
        total = Fraction(0)
        for k, idx in enumerate(rest):
            coeff = entry(idx, last)
            if coeff == 0:
                continue
            minor = rest[:k] + rest[k + 1 :]
            total += (-1) ** k * coeff * rec(minor)
        return total

    return rec(tuple(range(matrix.dimension)))


# -- grid values ---------------------------------------------------------


def site_table(grid, s, t):
    """The moment table at site (s, t) through the public
    :meth:`SkewMoments.shift` chain: the base table shifted s times by mu,
    then t times by lambda, each shift reduced to the canonical form."""
    table = grid.base
    for _ in range(s):
        table = table.shift(grid.config.mu)
    for _ in range(t):
        table = table.shift(grid.config.lam)
    return table


def degenerate(grid):
    """A copy of ``grid`` with sigma := tau and sighat := tauhat, which
    collapses the extended (vector) theory onto the scalar one."""
    return TauGrid(
        grid.config, grid.base, grid._blocks,
        grid._tau, dict(grid._tau), grid._tauhat, dict(grid._tauhat),
    )


def bordered_grid_values(grid, n, s, t):
    """(tau_n, sigma_n, tauhat_n, sighat_n) at site (s, t), each read off
    the base table's bordered rational matrix with the reference
    :func:`skewflow.pfaffian.pfaffian`, never through a shifted table.

    The borders are s rows at mu and then t at lambda, a repeated point's
    rows its derivative orders 0, 1, ...: row (x, j) pairs with moment
    index i as C(i, j) x^(i-j), and two border rows pair as 0.  z stands
    after the moment indices and before the borders, and is expanded along
    its row.  With k = s + t, D = (lambda - mu)^(s t), e = (-1)^(k(k-1)/2)
    and P = (z - mu)^s (z - lambda)^t, the offset s*mu + t*lambda included:

        tau_n D      = e Pf(0..2n+k-1, borders)
        sigma_n D    = e Pf(0..2n+k-2, 2n+k, borders)
        tauhat_n P D = e Pf(0..2n+k, z, borders)
        sighat_n P D = e Pf(0..2n+k-1, 2n+k+1, z, borders)

    with sigma_0 = 0 at the origin.
    """
    c = grid.config
    table = grid.base
    borders = [(c.mu, j) for j in range(s)] + [(c.lam, j) for j in range(t)]
    k = s + t
    scale = Fraction((-1) ** (k * (k - 1) // 2)) / (c.lam - c.mu) ** (s * t)

    def border(i, x, j):
        return comb(i, j) * x ** (i - j) if i >= j else 0

    def pf(indices):
        items = [*indices, *borders]

        def element(u, v):
            x, y = items[u], items[v]
            if type(x) is int:
                return table.entry(x, y) if type(y) is int else border(x, *y)
            return -border(y, *x) if type(y) is int else 0

        return scale * pfaffian(SkewMatrix(len(items), element))

    def pf_z(indices):
        # z at position len(indices): Pf = sum_q (-1)^(len+q+1) z^i_q Pf(without q)
        coeffs = [Fraction(0)] * (max(indices) + 1)
        for q, i in enumerate(indices):
            term = pf(indices[:q] + indices[q + 1 :])
            coeffs[i] += term if (len(indices) + q) % 2 else -term
        value = Polynomial(coeffs)
        for x in [c.mu] * s + [c.lam] * t:
            value = div_by_linear(value, x)
        return value

    m = 2 * n + k
    sigma = pf([*range(m - 1), m]) if m else Fraction(0)
    return (
        pf(list(range(m))),
        sigma,
        pf_z(list(range(m + 1))),
        pf_z([*range(m), m + 1]),
    )


def as_form(value):
    """A Fraction, int or Polynomial as the integer form a TauGrid store
    holds: (num, den) for a scalar, (coefficients, den) for a polynomial."""
    if isinstance(value, Polynomial):
        return list(value.num), value.den
    value = Fraction(value)
    return value.numerator, value.denominator


def as_value(form):
    """The reduced Fraction or Polynomial an integer form stands for."""
    num, den = form
    if isinstance(num, int):
        return Fraction(num, den)
    return Polynomial._reduced(list(num), den)


def q_even(grid, n, s, t):
    """Monic even-degree lattice SOP q_{2n}^{s,t} = tauhat_n/tau_n."""
    return grid.tau_hat(n, s, t).scale(1 / grid.tau(n, s, t))


def phi_even(grid, n, s, t):
    """phi_{2n}^{s,t} = tauhat_n/sigma_n; undefined where sigma_n = 0."""
    sig = grid.sigma(n, s, t)
    if sig == 0:
        raise SingularConfiguration(
            f"sigma_{n} vanishes at site ({s},{t}); phi_{2 * n} undefined"
        )
    return grid.tau_hat(n, s, t).scale(1 / sig)


def phi_odd(grid, n, s, t):
    """phi_{2n+1}^{s,t} = sighat_n/tau_n."""
    return grid.sigma_hat(n, s, t).scale(1 / grid.tau(n, s, t))


def apply_antidiagonal(matrix, vec):
    """An AntiDiagonal matrix times a vector of two polynomials."""
    return (vec[1].scale(matrix.upper), vec[0].scale(matrix.lower))


# -- the lattice relations in z ------------------------------------------


def printed_ratios(grid, x, y, k):
    """The A, B, C, D entries of a field by the printed formulas, in
    Fraction arithmetic on the grid accessors x (numerators) and y
    (denominators); an entry whose denominator vanishes is left out."""
    c = grid.config
    a, b, cc, d = {}, {}, {}, {}
    for s in range(c.steps_s):
        for t in range(c.steps_t):
            for n in range(c.pairs + 1):
                key = (n, s, t)
                down = y(n, s + 1, t) * y(n, s, t + 1)
                if down != 0:
                    if n >= 1:
                        a[key] = k * x(n + 1, s, t) * x(n - 1, s + 1, t + 1) / down
                    b[key] = k * x(n, s, t) * x(n, s + 1, t + 1) / down
                up = k * y(n + 1, s, t) * y(n, s + 1, t + 1)
                if up != 0:
                    cc[key] = x(n + 1, s + 1, t) * x(n, s, t + 1) / up
                    d[key] = x(n + 1, s, t + 1) * x(n, s + 1, t) / up
    return a, b, cc, d


def _stencils(c, step, ns):
    """The (n, s, t) of a stencil that steps step + 1 (per direction) in
    report order, n varying fastest over ``ns``."""
    for s in range(c.steps_s - step[0]):
        for t in range(c.steps_t - step[1]):
            for n in ns:
                yield n, s, t


def _sites(c):
    """The interior (n, s, t) in report order, n varying fastest."""
    return _stencils(c, (0, 0), range(c.pairs + 1))


def _verdict(ok):
    return "pass" if ok else "fail"


def _bilinear(fields, n, m, s, t, lm, z):
    """lm (z-mu)(z-lam) x_{n+1} yhat_{m-1}^{s+1,t+1}
    = (z-lam) y_m^{s+1,t} xhat_n^{s,t+1} - (z-mu) y_m^{s,t+1} xhat_n^{s+1,t}
      + lm x_n^{s+1,t+1} yhat_m, for fields = (x, xhat, y, yhat) accessors."""
    x, xhat, y, yhat = fields
    z_mu, z_lam, z_both = z
    lhs = mul(z_both.scale(lm * x(n + 1, s, t)), yhat(m - 1, s + 1, t + 1))
    rhs = (
        mul(z_lam.scale(y(m, s + 1, t)), xhat(n, s, t + 1))
        - mul(z_mu.scale(y(m, s, t + 1)), xhat(n, s + 1, t))
        + yhat(m, s, t).scale(lm * x(n, s + 1, t + 1))
    )
    return lhs == rhs


def _z_factors(config):
    z_mu = Polynomial((-config.mu, 1))
    z_lam = Polynomial((-config.lam, 1))
    return z_mu, z_lam, mul(z_mu, z_lam)


def bilinear_checks(grid):
    """The (id, status, detail) of every dckp and of every edckp check, in
    report order."""
    c = grid.config
    lm, z = c.lam - c.mu, _z_factors(c)
    tau = (grid.tau, grid.tau_hat, grid.tau, grid.tau_hat)
    sig_tau = (grid.sigma, grid.sigma_hat, grid.tau, grid.tau_hat)
    tau_sig = (grid.tau, grid.tau_hat, grid.sigma, grid.sigma_hat)
    dckp, edckp = [], []
    for n, s, t in _sites(c):
        rows = [(dckp, "dckp1", tau, n + 1)]
        if n >= 1:
            rows += [
                (dckp, "dckp2", tau, n),
                (edckp, "edckp1", sig_tau, n),
                (edckp, "edckp2", tau_sig, n),
            ]
        rows += [(edckp, "edckp3", sig_tau, n + 1), (edckp, "edckp4", tau_sig, n + 1)]
        for out, rid, fields, m in rows:
            ok = _bilinear(fields, n, m, s, t, lm, z)
            out.append((f"{rid}:n={n},s={s},t={t}", _verdict(ok), ""))
    return dckp, edckp


def _contiguous(name, grid, field, vec, act):
    """Both contiguous relations at every interior site as identities of
    polynomial vectors; field = (A, B, C, D) dicts, ``vec`` the vectors,
    undefined where the first component is None, ``act(k, v)`` the vector
    coefficient k makes of v."""
    z_mu, z_lam, z_both = _z_factors(grid.config)
    a, b, cc, d = field
    out = []
    skipped = "sigma vanishes inside the stencil"
    for key in _sites(grid.config):
        n, s, t = key
        tag = f"n={n},s={s},t={t}"
        here, v_s, v_t = vec[key], vec[n, s + 1, t], vec[n, s, t + 1]
        prev = vec[n - 1, s + 1, t + 1] if n >= 1 else None
        if (
            None in (here[0], v_s[0], v_t[0])
            or key not in b
            or (n >= 1 and (prev[0] is None or key not in a))
        ):
            out.append((f"{name}1:{tag}", "skip", skipped))
        else:
            lhs = [mul(z_lam, u) - mul(z_mu, v) for u, v in zip(v_t, v_s)]
            rhs = [-x for x in act(b[key], here)]
            if n >= 1:
                rhs = [x + mul(z_both, y) for x, y in zip(rhs, act(a[key], prev))]
            out.append((f"{name}1:{tag}", _verdict(lhs == rhs), ""))
        diag, up = vec[n, s + 1, t + 1], vec[n + 1, s, t]
        if None in (diag[0], up[0], v_t[0], v_s[0]) or key not in cc or key not in d:
            out.append((f"{name}2:{tag}", "skip", skipped))
        else:
            lhs = [mul(z_both, u) - v for u, v in zip(diag, up)]
            cterm, dterm = act(cc[key], v_t), act(d[key], v_s)
            rhs = [mul(z_lam, x) - mul(z_mu, y) for x, y in zip(cterm, dterm)]
            out.append((f"{name}2:{tag}", _verdict(lhs == rhs), ""))
    return out


def _pairing(moments, f, g):
    """<f|g> = sum_ij f_i g_j s_ij."""
    return sum(
        f.coefficient(i) * g.coefficient(j) * moments.entry(i, j)
        for i in range(f.degree + 1)
        for j in range(g.degree + 1)
    )


def lax_checks(grid):
    """The (id, status, detail) of every slax and of every edlax check, in
    report order: the contiguous relations on the vectors (q_2n) and
    (phi_2n, phi_2n+1), then edlax's phi-orthogonality and
    phi-even-defined checks per site."""
    c = grid.config
    pts = [(n, s, t) for s, t in grid.sites() for n in range(c.pairs + 2)]
    scalar = printed_ratios(grid, grid.tau, grid.tau, c.mu - c.lam)
    q = {k: (q_even(grid, *k),) for k in pts}
    slax = _contiguous("slax", grid, scalar, q, lambda k, v: (v[0].scale(-k),))
    upper = printed_ratios(grid, grid.tau, grid.sigma, c.lam - c.mu)
    lower = printed_ratios(grid, grid.sigma, grid.tau, c.lam - c.mu)
    matrix = [{k: (u[k], w[k]) for k in u if k in w} for u, w in zip(upper, lower)]
    phi = {
        k: (None if grid.sigma(*k) == 0 else phi_even(grid, *k), phi_odd(grid, *k))
        for k in pts
    }
    edlax = _contiguous(
        "edlax", grid, matrix, phi, lambda k, v: (v[1].scale(k[0]), v[0].scale(k[1]))
    )
    for s, t in grid.sites():
        phis = [p for n in range(c.pairs + 1) for p in phi[n, s, t]]
        table = site_table(grid, s, t)
        for u in range(len(phis)):
            for v in range(u + 1, len(phis)):
                tag = f"phi-orthogonality:<phi{u}|phi{v}>:s={s},t={t}"
                if phis[u] is None or phis[v] is None:
                    edlax.append((tag, "skip", "phi undefined (sigma vanishes)"))
                    continue
                if u % 2 == 0 and v == u + 1:
                    expected = grid.tau(u // 2 + 1, s, t) / grid.sigma(u // 2, s, t)
                else:
                    expected = 0
                ok = _pairing(table, phis[u], phis[v]) == expected
                edlax.append((tag, _verdict(ok), ""))
        monic = [
            n
            for n in range(c.pairs + 1)
            if phis[2 * n] is not None and phis[2 * n].coefficient(2 * n) == 1
        ]
        # at the origin phi_2n may be undefined where the table's own
        # sigma_n = Pf(0..2n-2, 2n) vanishes
        ok = all(
            phis[2 * n] is not None
            or (s, t) == (0, 0)
            and numeric_pfaffian(site_table(grid, 0, 0), [*range(2 * n - 1), 2 * n]) == 0
            for n in range(1, c.pairs + 1)
        ) and (phis[0] is not None or s * c.mu + t * c.lam == 0)
        edlax.append(
            (f"phi-even-defined:s={s},t={t}", _verdict(ok), f"monic even indices: {monic}")
        )
    return slax, edlax


# -- the nonlinear systems on the reduced coefficients -------------------


def antidiagonal_sum(m, k):
    """m + k for two AntiDiagonal matrices."""
    return AntiDiagonal(m.upper + k.upper, m.lower + k.lower)


def antidiagonal_difference(m, k):
    """m - k for two AntiDiagonal matrices."""
    return AntiDiagonal(m.upper - k.upper, m.lower - k.lower)


def antidiagonal_product(m, k):
    """The product of two antidiagonal matrices, a diagonal (d00, d11)."""
    return (m.upper * k.lower, m.lower * k.upper)


def _additive(field, n, s, t):
    """The additive balance at (n, s, t) on the field's reduced entries;
    KeyError where an entry is missing."""
    a, b, cc, d = field.a, field.b, field.c, field.d
    left = (a[n, s + 1, t + 1], a[n + 1, s, t], b[n + 1, s, t], b[n, s + 1, t + 1])
    right = (cc[n, s, t + 1], cc[n, s + 1, t], d[n, s + 1, t], d[n, s, t + 1])
    if isinstance(left[0], AntiDiagonal):
        add, sub = antidiagonal_sum, antidiagonal_difference
    else:
        add, sub = operator.add, operator.sub
    return add(sub(left[0], left[1]), sub(left[2], left[3])) == add(
        sub(right[0], right[1]), sub(right[2], right[3])
    )


# (id, step (ds, dt), top values of n dropped, pattern factors, printed
# factors or None where they coincide) of each product relation
# lhs * x = r1 * r2, read off the field's reduced entries
_PRODUCTS = (
    ("product-ac", (1, 0), 0,
     lambda f, n, s, t: (f.a[n, s + 1, t], f.c[n - 1, s + 1, t], f.a[n, s, t], f.c[n, s, t]),
     lambda f, n, s, t: (f.a[n, s + 1, t], f.c[n - 1, s + 1, t], f.a[n, s, t], f.c[n, s + 1, t])),
    ("product-ad", (0, 1), 0,
     lambda f, n, s, t: (f.a[n, s, t + 1], f.d[n - 1, s, t + 1], f.a[n, s, t], f.d[n, s, t]),
     None),
    ("product-bd", (1, 0), 1,
     lambda f, n, s, t: (f.b[n, s + 1, t], f.d[n, s + 1, t], f.b[n + 1, s, t], f.d[n, s, t]),
     None),
    ("product-bc", (0, 1), 1,
     lambda f, n, s, t: (f.b[n, s, t + 1], f.c[n, s, t + 1], f.b[n + 1, s, t], f.c[n, s, t]),
     lambda f, n, s, t: (f.b[n, s, t + 1], f.d[n, s, t + 1], f.b[n + 1, s, t], f.d[n, s, t])),
)


def dpfl_fractions(field):
    """The dpfl report in Fraction arithmetic on the field's reduced
    entries: the additive balances, then the products site by site, the
    two stepping in s (ac, bd) before the two stepping in t (ad, bc)."""
    c = field.config
    report = Report("dpfl", {})
    for n, s, t in _stencils(c, (1, 1), range(1, c.pairs)):
        report.add(f"additive:n={n},s={s},t={t}", _additive(field, n, s, t))
    for step in ((1, 0), (0, 1)):
        rows = [row for row in _PRODUCTS if row[1] == step]
        for s in range(c.steps_s - step[0]):
            for t in range(c.steps_t - step[1]):
                for rel_id, _, top, factors, _ in rows:
                    for n in range(1, c.pairs + 1 - top):
                        lhs, x, r1, r2 = factors(field, n, s, t)
                        report.add(f"{rel_id}:n={n},s={s},t={t}", lhs * x == r1 * r2)
    return report


def edpfl_fractions(field):
    """The edpfl report in Fraction arithmetic on the field's reduced
    AntiDiagonal entries: each additive balance, skipped where an entry is
    missing, then each product relation in its four variants, passing on
    "pattern-swapped"."""
    c = field.config
    report = Report("edpfl", {})
    for n, s, t in _stencils(c, (1, 1), range(1, c.pairs)):
        tag = f"additive:n={n},s={s},t={t}"
        try:
            report.add(tag, _additive(field, n, s, t))
        except KeyError:
            report.skip(tag, "coefficient undefined (sigma vanishes)")
    for rel_id, step, top, pattern, printed in _PRODUCTS:
        found = {}
        for name, factors in (("pattern", pattern), ("printed", printed or pattern)):
            found[name] = []
            for n, s, t in _stencils(c, step, range(1, c.pairs + 1 - top)):
                try:
                    found[name].append(factors(field, n, s, t))
                except KeyError:
                    pass
        if not found["pattern"]:
            report.skip(rel_id, "no admissible pattern-swapped instance" if found["printed"]
                        else "every instance touches a singular site")
            continue
        holds = {}
        for name, insts in found.items():
            holds[name] = all(
                antidiagonal_product(lhs, x) == antidiagonal_product(r1, r2)
                for lhs, x, r1, r2 in insts
            )
            holds[f"{name}-swapped"] = all(
                antidiagonal_product(lhs, x) == antidiagonal_product(r2, r1)
                for lhs, x, r1, r2 in insts
            )
        variants = ("pattern-swapped", "pattern", "printed", "printed-swapped")
        detail = " ".join(f"{k}={'pass' if holds[k] else 'fail'}" for k in variants)
        report.add(rel_id, holds["pattern-swapped"], detail)
    return report
