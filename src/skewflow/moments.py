"""Skew-moment tables s_ij = <z^i | z^j> and their discrete time evolution.

Constructors cover generic random tables (for property sweeps) and the two
random-matrix ensemble products evaluated on exact discrete measures, so
every moment is rational.  The one-step :meth:`SkewMoments.shift` realizes
the modified product <(z-c).|(z-c).> and consumes one unit of the index
budget.

A table stores one integer form and nothing else: D, the lcm of the entry
denominators, and N = D*S as a full skew matrix of Python ints, with
gcd(D, *N) = 1, so the form is canonical.  Loaders and generators build
it directly (the constructor and the JSON loader parse entries to reduced
(num, den) pairs, whose form needs no gcd pass; ensemble sums run over one
common denominator), shifts and rescalings are computed on N and reduced
back to the least common denominator, and :meth:`SkewMoments.entry` forms
a ``Fraction`` only for the entry asked for.  Two methods hand the form
out: :meth:`SkewMoments.apply_form` returns S*g as an integer vector over
one denominator, which is all a skew product needs, and
:meth:`SkewMoments.integer_rows` returns the leading rows of N and D, from
which :mod:`skewflow.pfaffian` builds the integer store of its prefix pass;
its reference Pfaffians read the entries s_ij through
:meth:`SkewMoments.entry`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Any, Sequence

from .algebra import Rational, RationalLike, rat, rat_parts, rat_str
from .errors import DegreeBudgetExceeded
from . import pfaffian


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure with rational nodes and positive weights."""

    nodes: tuple[Rational, ...]
    weights: tuple[Rational, ...]

    def __init__(self, nodes: Sequence[RationalLike], weights: Sequence[RationalLike]):
        ns = tuple(rat(x) for x in nodes)
        ws = tuple(rat(w) for w in weights)
        if len(ns) != len(ws):
            raise ValueError("node count must equal weight count")
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise ValueError("nodes must be strictly increasing")
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", ns)
        object.__setattr__(self, "weights", ws)


# The largest max_index of a table read from a file or generated from the
# command line.  A table allocates (max_index + 1)^2 ints before any entry
# is checked, so a larger index is refused first.
MAX_INDEX = 1000

# The largest bits(D) * (max_index + 1)^2 of a table built from entries,
# D the lcm of their denominators: about the size of the integer form N,
# which MAX_INDEX alone does not bound (pairwise coprime denominators make
# D grow with every entry).  A table past it is refused before N is built.
# The ensemble generators bound bits(D) and the bits of every entry of N
# instead, estimated from the measure, and refuse before their sum.
MAX_FORM_BITS = 1 << 28


class SkewMoments:
    """Immutable table of skew moments for 0 <= i < j <= max_index.

    Stored as N, a full skew matrix of ints, over D > 0 with
    gcd(D, *N) = 1: D is the lcm of the entry denominators, so equal tables
    have equal forms.
    """

    __slots__ = ("max_index", "provenance", "_num", "_den", "_last_shift")

    def __init__(
        self,
        max_index: int,
        entries: Sequence[Sequence[RationalLike]],
        provenance: dict[str, Any] | None = None,
    ):
        if max_index < 0:
            raise ValueError("max_index must be nonnegative")
        parts = {
            (i, j): rat_parts(entries[i][j - i - 1])
            for i in range(max_index + 1)
            for j in range(i + 1, max_index + 1)
        }
        self._set_parts(max_index + 1, parts, provenance)

    def _set_parts(
        self,
        size: int,
        parts: dict[tuple[int, int], tuple[int, int]],
        provenance: dict[str, Any] | None,
    ) -> None:
        """Set the table from parsed entries, parts[i, j] = (p, q) for
        s_ij = p/q in lowest terms with q > 0, absent pairs standing for 0.

        :func:`_skew_form` of such pairs is already canonical, so no gcd
        pass follows: D is the lcm of the q, so every prime of D divides
        some q_ij to its full power, and N_ij = p_ij * D/q_ij is prime to
        it, since p_ij is prime to q_ij and D/q_ij lacks that prime.
        """
        self._set(*_skew_form(size, parts), provenance or {"kind": "unspecified"})

    def _set(self, num: list[list[int]], den: int, provenance: dict[str, Any]) -> None:
        self.max_index = len(num) - 1
        self.provenance = provenance
        self._num = tuple(map(tuple, num))
        self._den = den
        self._last_shift = None

    @classmethod
    def _from_integers(
        cls, num: list[list[int]], den: int, provenance: dict[str, Any]
    ) -> "SkewMoments":
        """Table with entries num[i][j]/den (num skew, den > 0), reduced so
        that den is again the lcm of the entry denominators; the gcd reads
        the upper triangle only."""
        g = gcd(den, *chain.from_iterable(row[i + 1 :] for i, row in enumerate(num)))
        if g > 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        table = object.__new__(cls)
        table._set(num, den, provenance)
        return table

    def entry(self, i: int, j: int) -> Rational:
        """s_ij with the lower triangle implied by skew-symmetry."""
        if not (0 <= i <= self.max_index and 0 <= j <= self.max_index):
            raise DegreeBudgetExceeded(
                f"moment index ({i},{j}) outside budget {self.max_index}"
            )
        return Fraction(self._num[i][j], self._den)

    def apply_form(self, num: Sequence[int], den: int, rows: int) -> tuple[list[int], int]:
        """The first ``rows`` rows of S*g over one denominator for g = num/den
        given as an integer form, reduced or not (coefficients constant
        first, den != 0): (v, d) with sum_j s_ij g_j = v[i]/d for i < rows."""
        size = self.max_index + 1
        if len(num) > size or rows > size:
            raise DegreeBudgetExceeded(
                f"S*g needs degree and rows within budget {self.max_index}, "
                f"got degree {len(num) - 1} and {rows} rows"
            )
        table = self._num
        return [sum(map(mul, table[i], num)) for i in range(rows)], self._den * den

    def integer_rows(self, size: int) -> tuple[list[list[int]], int]:
        """The integer form on the indices 0..size-1: (rows, D) with
        rows[i][j] = D*s_ij, as fresh lists the caller may overwrite."""
        if size > self.max_index + 1:
            raise DegreeBudgetExceeded(
                f"{size} rows need max_index >= {size - 1}, got {self.max_index}"
            )
        return [list(row[:size]) for row in self._num[:size]], self._den

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewMoments)
            and self.max_index == other.max_index
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.max_index, self._den, self._num))

    def shift(self, c: RationalLike) -> "SkewMoments":
        """Moment table of <(z-c).|(z-c).>; budget drops by one.

        With c = p/q the shifted numerators are
        q^2 N_{i+1,j+1} - pq (N_{i+1,j} + N_{i,j+1}) + p^2 N_ij over D q^2.
        The last (c, result) is kept, so a Christoffel step and the
        Geronimus coefficients of that step share one shift.
        """
        if self.max_index < 1:
            raise DegreeBudgetExceeded("cannot shift a table with max_index 0")
        c = rat(c)
        if self._last_shift is not None and self._last_shift[0] == c:
            return self._last_shift[1]
        p, q = c.numerator, c.denominator
        pp, pq, qq = p * p, p * q, q * q
        old = self._num
        size = self.max_index
        num = [[0] * size for _ in range(size)]
        for i in range(size):
            row, below, out = old[i], old[i + 1], num[i]
            for j in range(i + 1, size):
                v = qq * below[j + 1] - pq * (below[j] + row[j + 1]) + pp * row[j]
                out[j] = v
                num[j][i] = -v
        prov = dict(self.provenance)
        prov["shifts"] = list(prov.get("shifts", [])) + [rat_str(c)]
        shifted = SkewMoments._from_integers(num, self._den * qq, prov)
        self._last_shift = (c, shifted)
        return shifted

    def scale(self, c: RationalLike) -> "SkewMoments":
        """Rescale every moment by a nonzero constant."""
        c = rat(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        p = c.numerator
        num = [[p * x for x in row] for row in self._num]
        prov = dict(self.provenance)
        prov["scaled_by"] = rat_str(c)
        return SkewMoments._from_integers(num, self._den * c.denominator, prov)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        den = self._den
        entries = []
        for i, row in enumerate(self._num):
            for j in range(i + 1, self.max_index + 1):
                c = row[j]
                if c:
                    g = gcd(c, den)
                    entries.append([i, j, f"{c // g}/{den // g}"])
        return {
            "max_index": self.max_index,
            "entries": entries,
            "provenance": self.provenance,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "SkewMoments":
        m = data["max_index"]
        # a JSON true or 1.0 is not an index
        if type(m) is not int:
            raise ValueError(f"max_index must be an integer, got {m!r}")
        if m > MAX_INDEX:
            raise ValueError(f"max_index {m} exceeds the limit {MAX_INDEX}")
        if m < 0:
            raise ValueError("max_index must be nonnegative")
        provenance = data.get("provenance")
        if provenance is not None:
            if not isinstance(provenance, dict):
                raise ValueError(f"provenance must be a JSON object, got {provenance!r}")
            shifts = provenance.get("shifts", [])
            if not isinstance(shifts, list):
                raise ValueError(f"provenance shifts must be a list, got {shifts!r}")
        entries = data["entries"]
        parts = {}
        for i, j, v in entries:
            if not (type(i) is int and type(j) is int and 0 <= i < j <= m):
                raise ValueError(f"bad entry index ({i},{j})")
            parts[i, j] = rat_parts(v)
        if len(parts) != len(entries):
            raise ValueError("duplicate entry: an index pair (i, j) is given more than once")
        table = object.__new__(SkewMoments)
        table._set_parts(m + 1, parts, provenance)
        return table


def _skew_form(
    size: int, parts: dict[tuple[int, int], tuple[int, int]]
) -> tuple[list[list[int]], int]:
    """(N, D) for the skew table with s_ij = p/q at parts[i, j] = (p, q)
    and zero elsewhere above the diagonal: D is the lcm of the q, so the
    form is canonical when every p/q is in lowest terms.  The lcm is taken
    ``size`` entries at a time and stops once D passes the bits that
    :func:`_check_form_bits` allows."""
    qs = [q for _, q in parts.values()]
    den = 1
    for k in range(0, len(qs), size):
        den = lcm(den, *qs[k : k + size])
        _check_form_bits(den.bit_length(), size, "bits(lcm of the entry denominators)")
    num = [[0] * size for _ in range(size)]
    for (i, j), (p, q) in parts.items():
        if p:
            num[i][j] = v = p * (den // q)
            num[j][i] = -v
    return num, den


def from_random(seed: int, max_index: int, bound: int = 10) -> SkewMoments:
    """Deterministic random table in generic position.

    Entry s_ij (row by row, i < j) is p/q for the draws p = randint(-bound,
    bound), then q = randint(1, bound).  If the leading 4x4 Pfaffian
    vanishes (so downstream denominators would be singular) the draw is
    retried with an incremented sub-seed; the retry count is recorded in
    the provenance.
    """
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    if bound < 1:
        raise ValueError("bound must be positive")
    size = max_index + 1
    for attempt in range(1000):
        rng = random.Random(seed * 1000003 + attempt)
        parts = {
            (i, j): (rng.randint(-bound, bound), rng.randint(1, bound))
            for i in range(size)
            for j in range(i + 1, size)
        }
        table = SkewMoments._from_integers(
            *_skew_form(size, parts),
            {"kind": "random", "seed": seed, "bound": bound, "attempt": attempt},
        )
        if max_index < 3:
            return table
        if pfaffian.numeric_pfaffian(table, range(4)) != 0:
            return table
    raise RuntimeError("could not reach generic position")  # pragma: no cover


def _integer_measure(
    measure: DiscreteMeasure, power: int
) -> tuple[list[int], int, list[int], int, int]:
    """(P, qx, W, qw, bits): qx and qw are the lcms of the node and weight
    denominators, P_k = qx x_k and W_k = qw w_k, and 2^bits exceeds every
    |W_k P_k^p qx^(power-p)| with 0 <= p <= power and qw qx^power, as
    bits(ab) <= bits(a) + bits(b)."""
    qx = lcm(*(x.denominator for x in measure.nodes))
    qw = lcm(*(w.denominator for w in measure.weights))
    nodes = [x.numerator * (qx // x.denominator) for x in measure.nodes]
    weights = [w.numerator * (qw // w.denominator) for w in measure.weights]
    bx = qx.bit_length()
    bits = max(
        qw.bit_length() + power * bx,
        *(w.bit_length() + power * max(x.bit_length(), bx) for x, w in zip(nodes, weights)),
    )
    return nodes, qx, weights, qw, bits


def _check_form_bits(
    bits: int, size: int, what: str = "estimated bits of its largest integer"
) -> None:
    """Refuse a table of ``size`` indices whose D or an entry of N may reach
    2^bits when bits * size^2 passes :data:`MAX_FORM_BITS`; ``what`` names
    the bits in the message (by default an ensemble generator's estimate)."""
    if bits * size * size > MAX_FORM_BITS:
        raise ValueError(
            f"integer form too large: {what} * (max_index + 1)^2 exceeds the limit 2^28"
        )


def _measure_provenance(kind: str, measure: DiscreteMeasure) -> dict[str, Any]:
    return {
        "kind": kind,
        "nodes": [rat_str(x) for x in measure.nodes],
        "weights": [rat_str(w) for w in measure.weights],
    }


def from_discrete_orthogonal(measure: DiscreteMeasure, max_index: int) -> SkewMoments:
    """Orthogonal-ensemble product on a discrete measure.

    s_ij = sum_{k,l} sgn(x_k - x_l) x_k^i x_l^j w_k w_l, with sgn(0) = 0.
    The nodes are increasing, so with a_k^i = w_k x_k^i and the prefix sums
    P_k^j = sum_{l<k} a_l^j this is sum_k (a_k^i P_k^j - a_k^j P_k^i):
    O(K m^2) for K nodes instead of the O(K^2 m^2) pair sum.  The sum runs
    in ints on A_k^i = (qw w_k)(qx x_k)^i qx^(m-i) = qw qx^m a_k^i, over
    the common denominator (qw qx^m)^2.  With |A_k^i| < 2^b each prefix
    sum is below K 2^b, so an entry, K differences of two products, is
    below 2^(2b + 2 bits(K) + 1); past :data:`MAX_FORM_BITS` the measure
    is refused before the sum.
    """
    nodes, qx, weights, qw, bits = _integer_measure(measure, max_index)
    size = max_index + 1
    _check_form_bits(2 * bits + 2 * len(nodes).bit_length() + 1, size)
    scale = [qx ** (max_index - i) for i in range(size)]
    num = [[0] * size for _ in range(size)]
    prefix = [0] * size
    for x, w in zip(nodes, weights):
        a = []
        for qpow in scale:
            a.append(w * qpow)
            w *= x
        for i in range(size):
            row, a_i, p_i = num[i], a[i], prefix[i]
            for j in range(i + 1, size):
                row[j] += a_i * prefix[j] - a[j] * p_i
        prefix = [p + v for p, v in zip(prefix, a)]
    for i in range(size):
        for j in range(i + 1, size):
            num[j][i] = -num[i][j]
    return SkewMoments._from_integers(
        num, (qw * qx**max_index) ** 2, _measure_provenance("orthogonal", measure)
    )


def from_discrete_symplectic(measure: DiscreteMeasure, max_index: int) -> SkewMoments:
    """Symplectic-ensemble product on a discrete measure.

    s_ij = sum_k (x_k^i (x_k^j)' - (x_k^i)' x_k^j) w_k = (j - i) m_{i+j-1}
    with power sums m_p = sum_k x_k^p w_k, formed in ints over
    qw qx^(2m-1) as sum_k (qw w_k)(qx x_k)^p qx^(2m-1-p).  Each of the K
    terms is below 2^b and j - i <= m, so an entry is below
    2^(b + bits(K) + bits(m)); past :data:`MAX_FORM_BITS` the measure is
    refused before the sums.
    """
    top = max(2 * max_index - 1, 0)
    nodes, qx, weights, qw, bits = _integer_measure(measure, top)
    size = max_index + 1
    _check_form_bits(bits + len(nodes).bit_length() + max_index.bit_length(), size)
    msums = [0] * (2 * max_index)
    for x, w in zip(nodes, weights):
        for p in range(len(msums)):
            msums[p] += w
            w *= x
    msums = [v * qx ** (top - p) for p, v in enumerate(msums)]
    num = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            num[i][j] = v = (j - i) * msums[i + j - 1]
            num[j][i] = -v
    return SkewMoments._from_integers(
        num, qw * qx**top, _measure_provenance("symplectic", measure)
    )
