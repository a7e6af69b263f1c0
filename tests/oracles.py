"""The tests' reference implementations, defined once: the per-member SOP
formula, an exact determinant, and the acceptance battery's two measures.

Each oracle reads like its formula and shares no code path with what it
checks: :func:`sop_even`/:func:`sop_odd` evaluate one member with its own
Pfaffians, where :func:`skewflow.sops.build_family` reads every member off
one elimination, and :func:`determinant` is Fraction Gaussian elimination,
independent of the Pfaffian engine.
"""

from fractions import Fraction

from skewflow.errors import DegreeBudgetExceeded, SingularConfiguration
from skewflow.moments import DiscreteMeasure
from skewflow.pfaffian import ZVAR, augmented_pfaffian, numeric_pfaffian

SYM_MEASURE = DiscreteMeasure([1, 2, 4, 5, 6], [1, 1, 2, 1, 1])
ORTH_MEASURE = DiscreteMeasure(
    [-6, -5, -4, -2, -1, 1, 2, 4, 5, 6],
    [1, 1, 1, 2, 1, 1, 2, 1, 1, 1],
)


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
