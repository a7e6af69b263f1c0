"""Tau and sigma functions on the (n, s, t) lattice and the verifiers built
on top of them.

A grid holds, per site (s, t), the moment table obtained by s shifts with
parameter mu followed by t shifts with parameter lambda, and the four
Pfaffian-valued lattice functions

    tau_n    = Pf(0..2n-1)
    tauhat_n = Pf(0..2n, z)
    sigma_n  = Pf(0..2n-2, 2n) + (s*mu + t*lam) * tau_n
    sighat_n = Pf(0..2n-1, 2n+1, z) + (s*mu + t*lam) * tauhat_n

:func:`build_grid` reads all four off one prefix elimination of each site's
table (:func:`skewflow.pfaffian.prefix_pfaffians`), which adds the offset
s*mu + t*lam to sigma and sighat in its integers, and keeps each as the
integer form the pass gives, not reduced: a scalar as (num, den), a
polynomial as (coefficients, den).  The verifiers and
:meth:`TauGrid.to_json` read those forms; a reduced Fraction or Polynomial
is formed only by the public accessors (:meth:`TauGrid.tau` and the
like), on each call, and :meth:`TauGrid.to_json` reduces each value it
writes by one gcd per entry.
:func:`crosscheck_single_step` reads its twelve bordered Pfaffians off one
bordered prefix pass per site (:func:`skewflow.pfaffian.prefix_tails`, mu
and lambda as border rows), made on the first stencil at the site and kept
on the grid for every n, and compares each in integers.  The four
functions are determined by the base table and the box, so a grid file is
not parsed: :meth:`TauGrid.from_json` rebuilds the grid with
:func:`build_grid` from the file's ``config`` and ``base_moments`` and only
compares the stored fields with it.

Ratios of these produce the even-degree lattice polynomials q_{2n} =
tauhat_n/tau_n, the coefficient fields of the contiguous relations, and the
phi polynomials of the extended (vector) theory.  The scalar and 2x2 matrix
systems share their formulas: :func:`_ratios` writes each coefficient once
(tau over tau for the scalar field; tau over sigma and sigma over tau for
the upper and lower matrix entries) as one unreduced integer pair
(numerator, denominator), each field is built once per grid and shared by
every verifier that reads it (:func:`coefficient_field`,
:func:`matrix_coefficient_field`), and :func:`_additive` and ``_PRODUCTS``
write each nonlinear relation once, for dpfl's scalar and edpfl's
antidiagonal products; :func:`_contiguous` checks the contiguous relations
of slax and edlax in one loop.  A field entry is reduced to a Fraction only
when it is read through the field's public views.  Every verifier checks
its identities exactly.  Each relation in z (bilinear, contiguous or
crosscheck) is checked once, as one integer identity: a sum of terms, each
an integer scalar times a value's integer coefficients times a fixed factor
1, z-mu, z-lam or (z-mu)(z-lam), brought over the product of the terms'
denominators and added (:func:`skewflow.algebra.sums_to_zero`, the
library's one integer-identity rule), with no rational arithmetic and no
reduction; the nonlinear systems' additive balances go through the same
rule.  A scalar identity, the crosscheck's for tau and sigma and the
nonlinear systems' products, is compared by cross-multiplication
(:func:`_same_product`).  A failed identity is reported, never raised.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Iterator, Sequence

from .algebra import (
    Polynomial, Rational, RationalLike, convolve, form_json, rat, rat_str, ratio_str,
    sums_to_zero,
)
from .errors import DegreeBudgetExceeded, SingularConfiguration
from .moments import SkewMoments
from .pfaffian import (
    LAMBDA, MU, ZVAR, PolyForm, ScalarForm, prefix_pfaffians, prefix_tails,
)
from .report import Report
from .sops import skew_pairings


@dataclass(frozen=True)
class LatticeConfig:
    """Box parameters: pair index 0..pairs, site range [0,steps_s]x[0,steps_t]."""

    mu: Rational
    lam: Rational
    pairs: int
    steps_s: int
    steps_t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", rat(self.mu))
        object.__setattr__(self, "lam", rat(self.lam))
        if self.mu == self.lam:
            raise ValueError("lattice parameters mu and lambda must differ")
        for name in ("pairs", "steps_s", "steps_t"):
            value = getattr(self, name)
            # a JSON true or 1.0 is not a count
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.pairs < 0 or self.steps_s < 0 or self.steps_t < 0:
            raise ValueError("pairs and step counts must be nonnegative")

    @property
    def required_budget(self) -> int:
        return 2 * self.pairs + self.steps_s + self.steps_t + 4

    def to_json(self) -> dict[str, Any]:
        return {
            "mu": rat_str(self.mu),
            "lambda": rat_str(self.lam),
            "pairs": self.pairs,
            "steps_s": self.steps_s,
            "steps_t": self.steps_t,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "LatticeConfig":
        return LatticeConfig(
            rat(data["mu"]),
            rat(data["lambda"]),
            data["pairs"],
            data["steps_s"],
            data["steps_t"],
        )


class TauGrid:
    """Exact tau/sigma data for n = 0..pairs+1 over the (s, t) box.

    The private stores ``_tau``, ``_sigma``, ``_tauhat`` and ``_sighat``
    hold each value as the integer form :func:`prefix_pfaffians` gives it,
    not reduced: a scalar as (num, den), a polynomial as (coefficients,
    den), den > 0.  The verifiers and :meth:`to_json` read the forms; the
    accessors :meth:`tau`, :meth:`sigma`, :meth:`tau_hat` and
    :meth:`sigma_hat` build a reduced Fraction or Polynomial on each call.

    The two coefficient fields are built from the grid's values on first
    use and kept in the private ``_scalar_field`` and ``_matrix_field``
    slots (see :func:`coefficient_field`), and so are each site's
    crosscheck Pfaffians, in ``_crosscheck``, beside the site's offset
    s*mu + t*lam and its step factors (see :func:`_crosscheck_site`), from
    which :func:`crosscheck_single_step` checks each scalar identity by
    cross-multiplication (:func:`_same_product`) and each identity in z as
    one sum (:func:`sums_to_zero`); every grid starts with none.  A grid's
    values are not modified after construction.
    """

    __slots__ = (
        "config", "base", "tables", "_tau", "_sigma", "_tauhat", "_sighat",
        "_scalar_field", "_matrix_field", "_crosscheck",
    )

    def __init__(
        self,
        config: LatticeConfig,
        base: SkewMoments,
        tables: dict[tuple[int, int], SkewMoments],
        tau: dict[tuple[int, int, int], ScalarForm],
        sigma: dict[tuple[int, int, int], ScalarForm],
        tauhat: dict[tuple[int, int, int], PolyForm],
        sighat: dict[tuple[int, int, int], PolyForm],
    ):
        self.config = config
        self.base = base
        self.tables = tables
        self._tau = tau
        self._sigma = sigma
        self._tauhat = tauhat
        self._sighat = sighat
        self._scalar_field = None
        self._matrix_field = None
        self._crosscheck: dict[tuple[int, int], tuple] = {}

    # -- accessors ----------------------------------------------------
    # The four stores hold exactly the points 0 <= n <= pairs+1,
    # 0 <= s <= steps_s, 0 <= t <= steps_t, so a read outside the grid
    # raises KeyError naming the point.

    def tau(self, n: int, s: int, t: int) -> Rational:
        return Fraction(*self._tau[n, s, t])

    def sigma(self, n: int, s: int, t: int) -> Rational:
        return Fraction(*self._sigma[n, s, t])

    def tau_hat(self, n: int, s: int, t: int) -> Polynomial:
        num, den = self._tauhat[n, s, t]
        return Polynomial._reduced(list(num), den)

    def sigma_hat(self, n: int, s: int, t: int) -> Polynomial:
        num, den = self._sighat[n, s, t]
        return Polynomial._reduced(list(num), den)

    def moments(self, s: int, t: int) -> SkewMoments:
        return self.tables[(s, t)]

    def sites(self) -> Iterator[tuple[int, int]]:
        for s in range(self.config.steps_s + 1):
            for t in range(self.config.steps_t + 1):
                yield (s, t)

    # -- serialization ------------------------------------------------

    def _fields(self) -> dict[str, list]:
        """The four stored fields as to_json writes them: (n, s, t) nested
        lists, each value reduced from its form."""
        c = self.config

        def nest(store, emit):
            return [
                [
                    [emit(*store[(n, s, t)]) for t in range(c.steps_t + 1)]
                    for s in range(c.steps_s + 1)
                ]
                for n in range(c.pairs + 2)
            ]

        return {
            "tau": nest(self._tau, ratio_str),
            "sigma": nest(self._sigma, ratio_str),
            "tau_hat": nest(self._tauhat, form_json),
            "sigma_hat": nest(self._sighat, form_json),
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "config": self.config.to_json(),
            "base_moments": self.base.to_json(),
            **self._fields(),
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "TauGrid":
        """The grid :func:`build_grid` rebuilds from the file's ``config`` and
        ``base_moments``, once each of the four stored fields is found equal,
        as a JSON value, to the field :meth:`to_json` writes for it.

        A field that differs raises ValueError naming the field and the site
        of its first entry that is missing, extra or different; another
        spelling of the same value (``"2/4"``, a JSON integer) differs.
        """
        grid = build_grid(
            SkewMoments.from_json(data["base_moments"]),
            LatticeConfig.from_json(data["config"]),
        )
        for name, rebuilt in grid._fields().items():
            stored = data[name]
            if stored != rebuilt:
                raise ValueError(
                    f"grid field {name!r} differs from the grid rebuilt from config "
                    "and base_moments at n={}, s={}, t={}".format(
                        *_first_mismatch(stored, rebuilt)
                    )
                )
        return grid


def _first_mismatch(
    stored: Any, rebuilt: Any, site: tuple[int, ...] = ()
) -> tuple[int, ...]:
    """Site (n, s, t) of the first entry, in to_json order, where a stored
    field differs from the rebuilt one; called only on a field that differs.

    It descends into the first child that differs, down to depth 3 or a
    stored non-list; where the common prefix agrees the site is the length
    of the shorter list.  Levels not reached read as 0.
    """
    if len(site) < 3 and isinstance(stored, list):
        for i, (entry, canonical) in enumerate(zip(stored, rebuilt)):
            if entry != canonical:
                return _first_mismatch(entry, canonical, site + (i,))
        site += (min(len(stored), len(rebuilt)),)
    return (site + (0, 0, 0))[:3]


def _shift_tables(
    base: SkewMoments, config: LatticeConfig
) -> dict[tuple[int, int], SkewMoments]:
    """Per-site moment tables: s shifts by mu first, then t shifts by lambda."""
    tables: dict[tuple[int, int], SkewMoments] = {(0, 0): base}
    for s in range(1, config.steps_s + 1):
        tables[(s, 0)] = tables[(s - 1, 0)].shift(config.mu)
    for s in range(config.steps_s + 1):
        for t in range(1, config.steps_t + 1):
            tables[(s, t)] = tables[(s, t - 1)].shift(config.lam)
    return tables


def build_grid(moments: SkewMoments, config: LatticeConfig) -> TauGrid:
    """Populate the full box; raises on the first vanishing tau.

    Each site's four functions come from one :func:`prefix_pfaffians` pass
    over its table, which also adds the site's offset s*mu + t*lam in its
    integers, and are stored as the integer forms the pass gives, with no
    Fraction, no Polynomial and no reduction.
    """
    if moments.max_index < config.required_budget:
        raise DegreeBudgetExceeded(
            f"grid needs a base budget of {config.required_budget}, "
            f"got {moments.max_index}"
        )
    tables = _shift_tables(moments, config)
    tau: dict[tuple[int, int, int], ScalarForm] = {}
    sigma: dict[tuple[int, int, int], ScalarForm] = {}
    tauhat: dict[tuple[int, int, int], PolyForm] = {}
    sighat: dict[tuple[int, int, int], PolyForm] = {}
    for (s, t), table in tables.items():
        values = prefix_pfaffians(table, config.pairs, _offset(config, s, t))
        for n, (value, sig, hat, sig_hat) in enumerate(values):
            if not value[0]:
                raise SingularConfiguration(
                    f"tau_{n} vanishes at site ({s},{t})"
                )
            tau[(n, s, t)] = value
            tauhat[(n, s, t)] = hat
            sigma[(n, s, t)] = sig
            sighat[(n, s, t)] = sig_hat
    return TauGrid(config, moments, tables, tau, sigma, tauhat, sighat)


def _sites(
    config: LatticeConfig, ds: int, dt: int, ns: Sequence[int]
) -> Iterator[tuple[int, int, int]]:
    """The (n, s, t) of a stencil that steps ds + 1 in s and dt + 1 in t:
    s < steps_s - ds, t < steps_t - dt and n in ``ns``, n varying fastest."""
    for s in range(config.steps_s - ds):
        for t in range(config.steps_t - dt):
            for n in ns:
                yield n, s, t


# -- relations in z as integer identities --------------------------------
#
# A polynomial with rational coefficients is handled as a form: integer
# coefficients, constant first, over one integer denominator.

_Form = tuple[Sequence[int], int]
# A form times an integer: (coefficients, multiplier, denominator).
_Scaled = tuple[Sequence[int], int, int]

# The coefficients of the constant 1.
_ONE = (1,)


def _offset(config: LatticeConfig, s: int, t: int) -> tuple[int, int]:
    """s*mu + t*lam as an integer pair (numerator, denominator > 0), not
    reduced."""
    pm, qm = config.mu.numerator, config.mu.denominator
    pl, ql = config.lam.numerator, config.lam.denominator
    return s * pm * ql + t * pl * qm, qm * ql


def _lm(config: LatticeConfig) -> tuple[int, int]:
    """lambda - mu as an integer pair (numerator, denominator), not reduced."""
    pm, qm = config.mu.numerator, config.mu.denominator
    pl, ql = config.lam.numerator, config.lam.denominator
    return pl * qm - pm * ql, qm * ql


def _z_forms(config: LatticeConfig) -> tuple[_Form, _Form, _Form]:
    """z - mu, z - lambda and their product as integer forms, with mu = pm/qm
    and lambda = pl/ql: (qm z - pm)/qm, (ql z - pl)/ql and their product
    over qm*ql."""
    pm, qm = config.mu.numerator, config.mu.denominator
    pl, ql = config.lam.numerator, config.lam.denominator
    z_mu, z_lam = (-pm, qm), (-pl, ql)
    return (z_mu, qm), (z_lam, ql), (convolve(z_mu, z_lam), qm * ql)


def _quotient(p: PolyForm, r: ScalarForm) -> _Scaled:
    """p / r for r != 0, both grid forms, as (v, k, d), the polynomial
    k * v / d: (p's coefficients, r's denominator, p's denominator times
    r's numerator).  d takes the sign of r."""
    (v, pd), (rn, rd) = p, r
    return v, rd, pd * rn


def _times(c: tuple[int, int], form: _Scaled) -> _Scaled:
    """c = p/q, a field entry (p, q) with q != 0 of either sign, times a
    value of :func:`_quotient`."""
    (p, q), (v, k, d) = c, form
    return v, p * k, q * d


# -- single-step Pfaffian crosschecks ----------------------------------


# The tails of the twelve crosscheck Pfaffians Pf(0..2n-1, *tail), in
# report order: per quantity (tau, tauhat, sigma, sighat), the steps s+1,
# t+1 and s+1,t+1.  An int r stands for the moment index 2n + r.
_TAILS = (
    (0, MU), (0, LAMBDA), (0, 1, MU, LAMBDA),
    (0, 1, MU, ZVAR), (0, 1, LAMBDA, ZVAR), (0, 1, 2, MU, LAMBDA, ZVAR),
    (1, MU), (1, LAMBDA), (0, 2, MU, LAMBDA),
    (0, 2, MU, ZVAR), (0, 2, LAMBDA, ZVAR), (0, 1, 3, MU, LAMBDA, ZVAR),
)
_STEPS = ((1, 0), (0, 1), (1, 1))
# The twelve check ids, in the order of _TAILS.
_CROSSCHECK_IDS = tuple(
    f"{name}:{label}"
    for name in ("tau", "tauhat", "sigma", "sighat")
    for label in ("s+1", "t+1", "s+1,t+1")
)
_UNIT = (1, 1)


def _crosscheck_site(grid: TauGrid, s: int, t: int) -> tuple:
    """What every crosscheck stencil at (s, t) reads besides the grid's
    values: the bordered Pfaffians of each n off one prefix pass over the
    site's table, the offset s*mu + t*lam as (num, den), and the factors of
    the steps s+1, t+1 and s+1,t+1, as (num, den) for a scalar (1, 1 and
    -lm) and as (k, coefficients, den) for a polynomial (-(z-mu), -(z-lam)
    and -lm(z-mu)(z-lam)), with lm = lambda - mu.  No form is reduced."""
    c = grid.config
    pfaffians = prefix_tails(grid.moments(s, t), c.pairs, c.mu, c.lam, _TAILS)
    lp, lq = _lm(c)
    (z_mu, qm), (z_lam, ql), (z_both, db) = _z_forms(c)
    scalar = (_UNIT, _UNIT, (-lp, lq))
    poly = ((-1, z_mu, qm), (-1, z_lam, ql), (-lp, z_both, lq * db))
    return pfaffians, _offset(c, s, t), scalar, poly


def crosscheck_single_step(grid: TauGrid, n: int, s: int, t: int) -> Report:
    """Compare shift-based lattice values at the three neighbours of (s, t)
    against bordered Pfaffians over the (s, t) table.

    Twelve identities: one per quantity (tau, tauhat, sigma, sighat) and
    step direction (s+1, t+1, and the diagonal s+1,t+1), all by one rule:
    the stepped value times the step's factor is the bordered Pfaffian.
    The factors are 1, 1 and -lm for a scalar and -(z-mu), -(z-lam) and
    -lm(z-mu)(z-lam) for a polynomial, lm = lambda - mu.  The sigma and
    sighat identities carry a one-step bookkeeping term (mu, lambda, or
    mu+lambda times the stepped tau) on top of the plain Pfaffian.  A
    scalar identity (tau, sigma) is checked by cross-multiplication,
    value * factor = Pfaffian (:func:`_same_product`); an identity in z
    (tauhat, sighat) as the two-term integer identity value * factor -
    Pfaffian = 0 (:func:`sums_to_zero`).

    The Pfaffians of every n at a site are read off one bordered prefix
    pass over its table (:func:`skewflow.pfaffian.prefix_tails`), made by
    the first stencil there that needs it and kept on the grid with the
    site's offset and step factors (:func:`_crosscheck_site`).  A
    vanishing leading Pfaffian tau_k of the table, k <= n, which
    :func:`build_grid` (and so :meth:`TauGrid.from_json`) rules out, raises
    SingularConfiguration naming it and the site on a grid assembled by
    hand.
    """
    c = grid.config
    if not (0 <= n <= c.pairs and 0 <= s < c.steps_s and 0 <= t < c.steps_t):
        raise IndexError(f"crosscheck stencil at (n={n}, s={s}, t={t}) leaves the box")
    site = grid._crosscheck.get((s, t))
    if site is None:
        site = grid._crosscheck[s, t] = _crosscheck_site(grid, s, t)
    pfaffians, (op, oq), scalar, poly = site
    if n >= len(pfaffians):
        raise SingularConfiguration(f"tau_{len(pfaffians)} vanishes at site ({s},{t})")
    row = pfaffians[n]
    keys = [(n, s + ds, t + dt) for ds, dt in _STEPS]
    report = Report(
        "crosscheck",
        {"n": n, "s": s, "t": t, "provenance": grid.base.provenance},
    )
    # sigma and sighat first subtract the base site's offset s*mu + t*lam
    # times the stepped tau or tauhat, leaving a one-step term.
    for q, (store, bookkept, in_z) in enumerate((
        (grid._tau, None, False), (grid._tauhat, None, True),
        (grid._sigma, grid._tau, False), (grid._sighat, grid._tauhat, True),
    )):
        if not op:
            bookkept = None
        for j, k in enumerate(keys):
            i = 3 * q + j
            v, vd = store[k]
            pf, pd = row[i]
            if in_z:
                if bookkept is not None:
                    w, wd = bookkept[k]
                    v = [oq * wd * x - op * vd * y for x, y in zip_longest(v, w, fillvalue=0)]
                    vd *= oq * wd
                fk, f, fd = poly[j]
                same = sums_to_zero(((fk, f, v, vd * fd), (-1, _ONE, pf, pd)))
            else:
                if bookkept is not None:
                    w, wd = bookkept[k]
                    v, vd = oq * wd * v - op * vd * w, oq * wd * vd
                same = _same_product((v, vd), scalar[j], (pf[0], pd), _UNIT)
            report.add(_CROSSCHECK_IDS[i], same)
    return report


# -- scalar coefficient field ------------------------------------------


# A field entry: a scalar (num, den), or a matrix ((num, den), (num, den))
# for its (upper, lower) entries; den != 0 of either sign, not reduced.
_Entry = ScalarForm | tuple[ScalarForm, ScalarForm]


def _components(entry: _Entry) -> tuple[ScalarForm, ...]:
    """The (num, den) pairs of a field entry: the scalar's one, or the
    matrix entry's upper and lower."""
    return (entry,) if type(entry[0]) is int else entry


def _reduced(entry: _Entry) -> Rational | AntiDiagonal:
    """A field entry reduced: a Fraction, or an :class:`AntiDiagonal` of two."""
    if type(entry[0]) is int:
        return Fraction(*entry)
    (up, uq), (lp, lq) = entry
    return AntiDiagonal(Fraction(up, uq), Fraction(lp, lq))


class _FieldView(Mapping):
    """A read-only view of one field store, keyed (n, s, t): each entry
    is reduced on access, and membership, iteration and length read the
    store itself."""

    __slots__ = ("_store",)

    def __init__(self, store: dict):
        self._store = store

    def __getitem__(self, key):
        return _reduced(self._store[key])

    def __contains__(self, key) -> bool:
        return key in self._store

    def __iter__(self):
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)


class CoefficientField:
    """A, B, C, D per interior site, keyed (n, s, t); A only for n >= 1.

    ``CoefficientField(config, a, b, c, d)`` takes the four stores of
    integer-form entries, kept private and unreduced: a scalar field entry
    is (num, den), a matrix field entry ((num, den), (num, den)) for its
    (upper, lower) entries, den != 0 of either sign.  The verifiers read
    the stores.  ``a``, ``b``, ``c`` and ``d`` are read-only mappings over
    them that reduce an entry on each access, to a Fraction for the scalar
    field and to an :class:`AntiDiagonal` of Fractions for the matrix one.
    """

    __slots__ = ("config", "_a", "_b", "_c", "_d")

    def __init__(self, config, a, b, c, d):
        self.config = config
        self._a = a
        self._b = b
        self._c = c
        self._d = d

    @property
    def a(self) -> Mapping:
        return _FieldView(self._a)

    @property
    def b(self) -> Mapping:
        return _FieldView(self._b)

    @property
    def c(self) -> Mapping:
        return _FieldView(self._c)

    @property
    def d(self) -> Mapping:
        return _FieldView(self._d)


def _ratios(
    config: LatticeConfig, x: dict, y: dict, k: tuple[int, int]
) -> tuple[dict, dict, dict, dict]:
    """The A, B, C, D tau-ratios with numerators from the lattice function
    stored in x, denominators from the one in y and constant k, an integer
    pair (num, den > 0); an entry whose denominator vanishes is left out.

        A = k x_{n+1} x_{n-1}^{s+1,t+1} / (y_n^{s+1,t} y_n^{s,t+1})      (n >= 1)
        B = k x_n x_n^{s+1,t+1} / (y_n^{s+1,t} y_n^{s,t+1})
        C = x_{n+1}^{s+1,t} x_n^{s,t+1} / (k y_{n+1} y_n^{s+1,t+1})
        D = x_{n+1}^{s,t+1} x_n^{s+1,t} / (k y_{n+1} y_n^{s+1,t+1})

    (unmarked sites are (s, t)).  x and y are grid stores of scalar forms
    (num, den).  Each entry is the unreduced pair (top u0 v0, bottom u1 v1)
    of its five factors' numerators and denominators, with no gcd; its
    denominator is nonzero and may be negative.
    """

    def ratio(top: int, bottom: int, u: ScalarForm, v: ScalarForm) -> ScalarForm:
        return top * u[0] * v[0], bottom * u[1] * v[1]

    kp, kq = k
    a, b, cc, d = {}, {}, {}, {}
    for key in _sites(config, 0, 0, range(config.pairs + 1)):
        n, s, t = key
        # k / (y_n^{s+1,t} y_n^{s,t+1}) = top / bottom
        (p1, q1), (p2, q2) = y[n, s + 1, t], y[n, s, t + 1]
        if p1 and p2:
            top, bottom = kp * q1 * q2, kq * p1 * p2
            if n >= 1:
                a[key] = ratio(top, bottom, x[n + 1, s, t], x[n - 1, s + 1, t + 1])
            b[key] = ratio(top, bottom, x[n, s, t], x[n, s + 1, t + 1])
        # 1 / (k y_{n+1} y_n^{s+1,t+1}) = top / bottom
        (p1, q1), (p2, q2) = y[n + 1, s, t], y[n, s + 1, t + 1]
        if p1 and p2:
            top, bottom = kq * q1 * q2, kp * p1 * p2
            cc[key] = ratio(top, bottom, x[n + 1, s + 1, t], x[n, s, t + 1])
            d[key] = ratio(top, bottom, x[n + 1, s, t + 1], x[n, s + 1, t])
    return a, b, cc, d


def coefficient_field(grid: TauGrid) -> CoefficientField:
    """Tau-ratio coefficients of the scalar contiguous relations, each
    stored as the integer pair :func:`_ratios` gives.

    Built on the first call for a grid and kept on it, so every later call
    (:func:`verify_slax` makes one) returns the same object, shared by
    every caller; its public views are read-only.
    """
    if grid._scalar_field is None:
        c = grid.config
        lp, lq = _lm(c)
        ratios = _ratios(c, grid._tau, grid._tau, (-lp, lq))
        grid._scalar_field = CoefficientField(c, *ratios)
    return grid._scalar_field


# -- bilinear systems ---------------------------------------------------


def _bilinear(
    fields: tuple, n: int, m: int, s: int, t: int, lm: tuple[int, int], z: tuple
) -> bool:
    """One bilinear relation at (n, s, t), exact in z:

        lm (z-mu)(z-lam) x_{n+1} yhat_{m-1}^{s+1,t+1}
          = (z-lam) y_m^{s+1,t} xhat_n^{s,t+1} - (z-mu) y_m^{s,t+1} xhat_n^{s+1,t}
            + lm x_n^{s+1,t+1} yhat_m

    (unmarked sites are (s, t)) for fields = (x, xhat, y, yhat), grid
    stores of scalar and polynomial forms, lm = lambda - mu as an integer
    pair (numerator, denominator) and z the forms :func:`_z_forms` gives.
    m = n+1 gives the "up" shape (dckp1, edckp3/4), m = n the "down" shape
    (dckp2, edckp1/2).  Checked as one integer identity: the four terms
    sum to zero (:func:`sums_to_zero`).
    """
    x, xhat, y, yhat = fields
    lp, lq = lm
    (z_mu, dm), (z_lam, dl), (z_both, db) = z
    (a, ad), (ha, had) = x[n + 1, s, t], yhat[m - 1, s + 1, t + 1]
    (b, bd), (hb, hbd) = y[m, s + 1, t], xhat[n, s, t + 1]
    (c, cd), (hc, hcd) = y[m, s, t + 1], xhat[n, s + 1, t]
    (d, dd), (hd, hdd) = x[n, s + 1, t + 1], yhat[m, s, t]
    return sums_to_zero((
        (lp * a, z_both, ha, lq * ad * had * db),
        (-b, z_lam, hb, bd * hbd * dl),
        (c, z_mu, hc, cd * hcd * dm),
        (-lp * d, _ONE, hd, lq * dd * hdd),
    ))


# The bilinear relations of each suite, in report order at a site: (id,
# fields (x, xhat, y, yhat) by store name, m - n, least n).
_TAU, _SIG = ("_tau", "_tauhat"), ("_sigma", "_sighat")
_BILINEAR = {
    "dckp": (("dckp1", _TAU + _TAU, 1, 0), ("dckp2", _TAU + _TAU, 0, 1)),
    "edckp": (
        ("edckp1", _SIG + _TAU, 0, 1), ("edckp2", _TAU + _SIG, 0, 1),
        ("edckp3", _SIG + _TAU, 1, 0), ("edckp4", _TAU + _SIG, 1, 0),
    ),
}


def _bilinear_report(grid: TauGrid, suite: str) -> Report:
    """Each relation of ``suite`` (:func:`_bilinear`) at every interior
    site, from its least n to pairs, n varying fastest."""
    c = grid.config
    lm, z = _lm(c), _z_forms(c)
    rels = [
        (rel, [getattr(grid, name) for name in names], up, least)
        for rel, names, up, least in _BILINEAR[suite]
    ]
    report = Report(suite, {"provenance": grid.base.provenance})
    for n, s, t in _sites(c, 0, 0, range(c.pairs + 1)):
        tag = f"n={n},s={s},t={t}"
        for rel, fields, up, least in rels:
            if n >= least:
                report.add(f"{rel}:{tag}", _bilinear(fields, n, n + up, s, t, lm, z))
    return report


def verify_dckp(grid: TauGrid) -> Report:
    """The two bilinear tau/tauhat relations, exact in z at each interior site."""
    return _bilinear_report(grid, "dckp")


def sample_points(
    count: int, exclude: Sequence[RationalLike] = ()
) -> list[Rational]:
    """Deterministic rational sample pool for pointwise verifications."""
    banned = {rat(x) for x in exclude}
    pool: list[Rational] = [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(-1, 3),
    ]
    odd = 3
    while len(pool) < count + len(banned):
        pool.append(Fraction(odd))
        odd += 2
    out = [x for x in pool if x not in banned]
    return out[:count]


def _sample_points(config: LatticeConfig, samples: Sequence[RationalLike]) -> list[str]:
    """The sample points of a slax/edlax report, as recorded: distinct, at
    least 2*pairs+3 of them; ValueError otherwise."""
    pts = [rat(x) for x in samples]
    if len(set(pts)) != len(pts):
        raise ValueError("sample points must be distinct")
    if len(pts) < 2 * config.pairs + 3:
        raise ValueError(f"need at least {2 * config.pairs + 3} sample points")
    return [rat_str(x) for x in pts]


def _contiguous(
    report: Report, name: str, grid: TauGrid, field: CoefficientField, vec: dict, act
) -> None:
    """Both contiguous relations at every interior site, each checked once
    per component as one integer identity in z, on the field's integer-form
    stores:

        (z-lam) v_n^{s,t+1} - (z-mu) v_n^{s+1,t}
            = -B v_n + (z-mu)(z-lam) A v_{n-1}^{s+1,t+1}        (A for n >= 1)
        (z-mu)(z-lam) v_n^{s+1,t+1} - v_{n+1}
            = (z-lam) C v_n^{s,t+1} - (z-mu) D v_n^{s+1,t}

    (unmarked sites are (s, t)), each written as a sum of terms that is
    zero (:func:`sums_to_zero`).  ``vec`` maps (n, s, t) to the value
    vector there, its components as :func:`_quotient` gives them, undefined
    where its first component is None; ``act(k, v)`` is the vector the
    field entry k makes of v, in the same terms.  An instance that needs an
    undefined vector or a coefficient the field omits is recorded as
    skipped.
    """
    z_mu, z_lam, z_both = _z_forms(grid.config)

    def holds(terms: list) -> bool:
        # terms (sign, factor form, vector); each component sums to 0
        return all(
            sums_to_zero([
                (sign * vector[i][1], f, vector[i][0], fd * vector[i][2])
                for sign, (f, fd), vector in terms
            ])
            for i in range(len(terms[0][2]))
        )

    for key in _sites(grid.config, 0, 0, range(grid.config.pairs + 1)):
        n, s, t = key
        tag = f"n={n},s={s},t={t}"
        here, v_s, v_t = vec[key], vec[n, s + 1, t], vec[n, s, t + 1]
        prev = vec[n - 1, s + 1, t + 1] if n >= 1 else None
        if (
            None in (here[0], v_s[0], v_t[0])
            or key not in field._b
            or (n >= 1 and (prev[0] is None or key not in field._a))
        ):
            report.skip(f"{name}1:{tag}", "sigma vanishes inside the stencil")
        else:
            terms = [(1, z_lam, v_t), (-1, z_mu, v_s), (1, (_ONE, 1), act(field._b[key], here))]
            if n >= 1:
                terms.append((-1, z_both, act(field._a[key], prev)))
            report.add(f"{name}1:{tag}", holds(terms))
        diag, up = vec[n, s + 1, t + 1], vec[n + 1, s, t]
        if None in (diag[0], up[0], v_t[0], v_s[0]) or key not in field._c or key not in field._d:
            report.skip(f"{name}2:{tag}", "sigma vanishes inside the stencil")
        else:
            report.add(f"{name}2:{tag}", holds([
                (1, z_both, diag),
                (-1, (_ONE, 1), up),
                (-1, z_lam, act(field._c[key], v_t)),
                (1, z_mu, act(field._d[key], v_s)),
            ]))


def verify_slax(grid: TauGrid, samples: Sequence[RationalLike]) -> Report:
    """Both scalar contiguous relations, each checked once as an integer
    identity in z (:func:`_contiguous` on the vectors (q_2n,), q_2n =
    tauhat_n/tau_n read off the two forms by :func:`_quotient`).

    ``samples`` is validated (distinct points, at least 2*pairs+3 of them)
    and recorded in the report.  On a grid built by :func:`build_grid` both
    sides of every relation have degree at most 2*pairs+2, below the
    sample count, so a check at the sample points gives the same verdict.
    """
    c = grid.config
    report = Report(
        "slax",
        {"samples": _sample_points(c, samples), "provenance": grid.base.provenance},
    )
    q = {key: (_quotient(hat, grid._tau[key]),) for key, hat in grid._tauhat.items()}
    # The scalar field's constant is mu - lambda, the matrix field's
    # lambda - mu, so a scalar coefficient acts with its sign flipped.
    _contiguous(
        report, "slax", grid, coefficient_field(grid), q,
        lambda k, v: (_times((-k[0], k[1]), v[0]),),
    )
    return report


def _additive(field: CoefficientField, n: int, s: int, t: int) -> bool:
    """The additive balance at (n, s, t),

        A^{s+1,t+1} - A_{n+1} + B_{n+1} - B^{s+1,t+1}
            = C^{s,t+1} - C^{s+1,t} + D^{s+1,t} - D^{s,t+1}

    (unmarked indices are n, s, t), checked per component as one integer
    sum of constant terms (:func:`sums_to_zero`); KeyError where an entry
    is missing."""
    a, b, cc, d = field._a, field._b, field._c, field._d
    signed = (
        (1, a[n, s + 1, t + 1]), (-1, a[n + 1, s, t]),
        (1, b[n + 1, s, t]), (-1, b[n, s + 1, t + 1]),
        (-1, cc[n, s, t + 1]), (1, cc[n, s + 1, t]),
        (-1, d[n, s + 1, t]), (1, d[n, s, t + 1]),
    )
    parts = [(sign, _components(entry)) for sign, entry in signed]
    return all(
        sums_to_zero([(sign * pq[i][0], _ONE, _ONE, pq[i][1]) for sign, pq in parts])
        for i in range(len(parts[0][1]))
    )


def _same_product(w: ScalarForm, x: ScalarForm, y: ScalarForm, z: ScalarForm) -> bool:
    """w x == y z for four scalars (num, den), den != 0 of either sign
    (field entries, or the crosscheck's values, factors and Pfaffians), by
    cross-multiplication: w0 x0 y1 z1 == y0 z0 w1 x1."""
    return w[0] * x[0] * y[1] * z[1] == y[0] * z[0] * w[1] * x[1]


# The product relations lhs * x = r1 * r2 of the nonlinear systems.  A row
# holds the relation's id; the step (ds, dt) of its stencil, which drops
# the last ds values of s and dt of t; how many top values of n it drops;
# and its factors (lhs, x, r1, r2) at (n, s, t), first with the
# scalar-system ("pattern") indices, then with the printed ones (None
# where the two coincide).
_PRODUCTS = (
    ("product-ac", (1, 0), 0,
     lambda f, n, s, t: (f._a[n, s + 1, t], f._c[n - 1, s + 1, t], f._a[n, s, t], f._c[n, s, t]),
     lambda f, n, s, t: (f._a[n, s + 1, t], f._c[n - 1, s + 1, t], f._a[n, s, t], f._c[n, s + 1, t])),
    ("product-ad", (0, 1), 0,
     lambda f, n, s, t: (f._a[n, s, t + 1], f._d[n - 1, s, t + 1], f._a[n, s, t], f._d[n, s, t]),
     None),
    ("product-bd", (1, 0), 1,
     lambda f, n, s, t: (f._b[n, s + 1, t], f._d[n, s + 1, t], f._b[n + 1, s, t], f._d[n, s, t]),
     None),
    ("product-bc", (0, 1), 1,
     lambda f, n, s, t: (f._b[n, s, t + 1], f._c[n, s, t + 1], f._b[n + 1, s, t], f._c[n, s, t]),
     lambda f, n, s, t: (f._b[n, s, t + 1], f._d[n, s, t + 1], f._b[n + 1, s, t], f._d[n, s, t])),
)


def _instances(field: CoefficientField, factors, step: tuple[int, int], top: int) -> list:
    """The factors of each instance of a product relation whose
    coefficients all exist."""
    out = []
    for n, s, t in _sites(field.config, *step, range(1, field.config.pairs + 1 - top)):
        try:
            out.append(factors(field, n, s, t))
        except KeyError:
            pass
    return out


def verify_dpfl(field: CoefficientField) -> Report:
    """The scalar nonlinear system: additive balance plus four products.

    The products are checked site by site, first the two whose stencil
    steps in s (ac, bd), then the two stepping in t (ad, bc).
    """
    c = field.config
    report = Report("dpfl", {})
    for n, s, t in _sites(c, 1, 1, range(1, c.pairs)):
        report.add(f"additive:n={n},s={s},t={t}", _additive(field, n, s, t))
    for step in ((1, 0), (0, 1)):
        rows = [row for row in _PRODUCTS if row[1] == step]
        for s in range(c.steps_s - step[0]):
            for t in range(c.steps_t - step[1]):
                for rel_id, _, top, factors, _ in rows:
                    for n in range(1, c.pairs + 1 - top):
                        lhs, x, r1, r2 = factors(field, n, s, t)
                        report.add(f"{rel_id}:n={n},s={s},t={t}", _same_product(lhs, x, r1, r2))
    return report


# -- 2x2 matrix extension ----------------------------------------------


@dataclass(frozen=True)
class AntiDiagonal:
    """2x2 matrix with zero diagonal, stored as (upper, lower) entries: a
    matrix field entry as its views hand it out."""

    upper: Rational  # row 0, column 1
    lower: Rational  # row 1, column 0


def _same_antidiagonal_product(lhs: _Entry, x: _Entry, r1: _Entry, r2: _Entry) -> bool:
    """lhs x == r1 r2 for four matrix field entries: a product of two
    antidiagonal matrices is the diagonal (u1 l2, l1 u2), so the check is
    :func:`_same_product` once per diagonal entry."""
    return _same_product(lhs[0], x[1], r1[0], r2[1]) and _same_product(lhs[1], x[0], r1[1], r2[0])


def matrix_coefficient_field(grid: TauGrid) -> CoefficientField:
    """Matrix coefficients per interior site: the scalar tau-ratios with
    lambda - mu for mu - lambda, sigma in the denominators of the upper
    entries and in the numerators of the lower ones, each entry stored as
    the pair (upper, lower) of the integer pairs :func:`_ratios` gives.

    An entry is omitted (not stored) wherever a sigma in its denominator
    vanishes; the verifiers skip relation instances that need missing
    entries.  The origin always has sigma_0 = 0, and random tables can put
    further accidental zeros on the grid.

    Like :func:`coefficient_field`, built once per grid (:func:`verify_edlax`
    reads the same object) and shared; its public views are read-only.
    """
    if grid._matrix_field is None:
        c = grid.config
        lm = _lm(c)
        upper = _ratios(c, grid._tau, grid._sigma, lm)
        lower = _ratios(c, grid._sigma, grid._tau, lm)
        both = ({k: (u[k], w[k]) for k in u if k in w} for u, w in zip(upper, lower))
        grid._matrix_field = CoefficientField(c, *both)
    return grid._matrix_field


def verify_edckp(grid: TauGrid) -> Report:
    """The four bilinear relations coupling tau/sigma with tauhat/sighat."""
    return _bilinear_report(grid, "edckp")


def verify_edlax(grid: TauGrid, samples: Sequence[RationalLike]) -> Report:
    """The two vector contiguous relations, each checked once per component
    as an integer identity in z (:func:`_contiguous` on the vectors
    (phi_2n, phi_2n+1), phi_2n = tauhat_n/sigma_n and phi_2n+1 =
    sighat_n/tau_n read as :func:`_quotient` gives them), plus per-site
    skew-orthogonality of the phi family.

    The orthogonality pairs tauhat_n and sighat_n themselves, so no phi is
    formed: a pairing of phis vanishes with theirs, <phi_2n|phi_2n+1> =
    tau_{n+1}/sigma_n is checked as <tauhat_n|sighat_n> = tau_{n+1} tau_n,
    and phi_2n is monic where tauhat_n has leading coefficient sigma_n.

    ``samples`` is validated (distinct points, at least 2*pairs+3 of them)
    and recorded in the report.  A check at those points gives the same
    verdict as the identity in z whenever lhs - rhs has degree below the
    sample count.  On a grid with the degrees :func:`build_grid` gives
    (phi_2n of degree 2n, phi_2n+1 monic of degree 2n+1) the degree is at
    most 2*pairs+2; only the second component of edlax2 at n = pairs can
    reach 2*pairs+3, and only when an odd phi is not monic, which
    :func:`build_grid` never produces.  The identity in z is the stricter
    check.

    Relation instances touching a site where some needed sigma vanishes are
    recorded as skipped.  sigma_0 = (s*mu + t*lam) * tau_0 vanishes by
    construction at the origin and wherever s*mu + t*lam = 0, so phi_0 is
    only required to exist away from those sites.  At the origin sigma_n
    (n >= 1) is Pf(0..2n-2, 2n) of the table itself, which may vanish (a
    symmetric measure zeroes them all), so phi_2n is exempt there exactly
    where that Pfaffian of ``grid.moments(0, 0)`` vanishes, read off one
    :func:`prefix_pfaffians` pass; every other phi_2n is required.
    """
    c = grid.config
    report = Report(
        "edlax",
        {"samples": _sample_points(c, samples), "provenance": grid.base.provenance},
    )
    # (phi_2n, phi_2n+1) = (tauhat_n/sigma_n, sighat_n/tau_n) at every
    # site, phi_2n None where sigma_n vanishes
    phi = {
        key: (
            _quotient(hat, grid._sigma[key]) if grid._sigma[key][0] else None,
            _quotient(grid._sighat[key], grid._tau[key]),
        )
        for key, hat in grid._tauhat.items()
    }
    _contiguous(
        report, "edlax", grid, matrix_coefficient_field(grid), phi,
        lambda k, v: (_times(k[0], v[1]), _times(k[1], v[0])),
    )
    for s, t in grid.sites():
        # tauhat_n and sighat_n, the phis times sigma_n and tau_n: a pairing
        # vanishes with the phis', and <phi_2n|phi_2n+1> = tau_{n+1}/sigma_n
        # reads <tauhat_n|sighat_n> = tau_{n+1} tau_n
        hats = [
            p
            for n in range(c.pairs + 1)
            for p in (
                grid._tauhat[n, s, t] if grid._sigma[n, s, t][0] else None,
                grid._sighat[n, s, t],
            )
        ]
        pairings = skew_pairings(grid.moments(s, t), hats)
        for u in range(len(hats)):
            for v in range(u + 1, len(hats)):
                tag = f"phi-orthogonality:<phi{u}|phi{v}>:s={s},t={t}"
                if (u, v) not in pairings:
                    report.skip(tag, "phi undefined (sigma vanishes)")
                    continue
                num, den = pairings[u, v]
                if u % 2 == 0 and v == u + 1:
                    (p1, q1), (p0, q0) = grid._tau[u // 2 + 1, s, t], grid._tau[u // 2, s, t]
                    report.add(tag, num * q1 * q0 == p1 * p0 * den)
                else:
                    report.add(tag, num == 0)
        # phi_2n is monic where the z^2n coefficient of tauhat_n is sigma_n
        monic = []
        for n in range(c.pairs + 1):
            if hats[2 * n] is not None:
                (h, hd), (sn, sd) = hats[2 * n], grid._sigma[n, s, t]
                if 2 * n < len(h) and h[2 * n] * sd == sn * hd:
                    monic.append(n)
        # phi_0 is exempt where s*mu + t*lam = 0, and phi_2n at the origin
        # where the table's own sigma_n vanishes (see the docstring)
        missing = {n for n in range(1, c.pairs + 1) if hats[2 * n] is None}
        if missing and (s, t) == (0, 0):
            values = prefix_pfaffians(grid.moments(0, 0), c.pairs)
            missing -= {n for n, (_, sig, _, _) in enumerate(values) if not sig[0]}
        report.add(
            f"phi-even-defined:s={s},t={t}",
            not missing and (hats[0] is not None or not _offset(c, s, t)[0]),
            f"monic even indices: {monic}",
        )
    return report


_EDPFL_VARIANTS = ("pattern-swapped", "pattern", "printed", "printed-swapped")


def verify_edpfl(field: CoefficientField) -> Report:
    """Matrix nonlinear system: the additive balance, then every product
    relation in four index/order variants.

    Because the coefficients are antidiagonal their products do not commute,
    so each relation is evaluated with both product orders on the right-hand
    side ("-swapped") and with both sets of site indices ("printed" vs the
    scalar-system "pattern").  The form that holds is "pattern-swapped": the
    scalar-system indices with the right-hand product order reversed.  A
    relation passes when that variant has at least one admissible instance
    and holds at every one; the verdicts of all four variants go into the
    check details.  A relation is skipped when no variant has an admissible
    instance, or when only the others have one (a singular site removes
    every instance of the form that holds).
    """
    c = field.config
    report = Report("edpfl", {})
    for n, s, t in _sites(c, 1, 1, range(1, c.pairs)):
        tag = f"additive:n={n},s={s},t={t}"
        try:
            report.add(tag, _additive(field, n, s, t))
        except KeyError:
            report.skip(tag, "coefficient undefined (sigma vanishes)")
    for rel_id, step, top, pattern, printed in _PRODUCTS:
        at_pattern = _instances(field, pattern, step, top)
        at_printed = at_pattern if printed is None else _instances(field, printed, step, top)
        if not at_pattern:
            report.skip(rel_id, "no admissible pattern-swapped instance" if at_printed
                        else "every instance touches a singular site")
            continue
        holds = {}
        for name, insts in (("pattern", at_pattern), ("printed", at_printed)):
            holds[name] = all(
                _same_antidiagonal_product(lhs, x, r1, r2) for lhs, x, r1, r2 in insts
            )
            holds[f"{name}-swapped"] = all(
                _same_antidiagonal_product(lhs, x, r2, r1) for lhs, x, r1, r2 in insts
            )
        detail = " ".join(f"{k}={'pass' if holds[k] else 'fail'}" for k in _EDPFL_VARIANTS)
        report.add(rel_id, holds["pattern-swapped"], detail)
    return report
