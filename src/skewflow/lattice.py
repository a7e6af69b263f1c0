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
s*mu + t*lam to sigma and sighat in its integers, and
:func:`crosscheck_single_step` reads its twelve bordered Pfaffians off one
elimination of the shared leading block
(:func:`skewflow.pfaffian.bordered_pfaffians`).  The four functions are
determined by the base table and the box, so a grid file is not parsed:
:meth:`TauGrid.from_json` rebuilds the grid with :func:`build_grid` from the
file's ``config`` and ``base_moments`` and only compares the stored fields
with it.

Ratios of these produce the even-degree lattice polynomials q_{2n} =
tauhat_n/tau_n, the coefficient fields of the contiguous relations, and the
phi polynomials of the extended (vector) theory.  The scalar and 2x2 matrix
systems share their formulas: :func:`_ratios` writes each coefficient once
(tau over tau for the scalar field; tau over sigma and sigma over tau for
the upper and lower matrix entries) as one integer quotient, each field is
built once per grid and shared by every verifier that reads it
(:func:`coefficient_field`, :func:`matrix_coefficient_field`), and
:func:`_additive` and ``_PRODUCTS`` write each nonlinear relation once, for
dpfl's scalar and edpfl's antidiagonal products; :func:`_contiguous` checks
the contiguous relations of slax and edlax in one loop.  Every verifier
checks its identities by exact rational arithmetic, and each relation in z
(bilinear or contiguous) once, as an identity of polynomials; a failed
identity is reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Sequence

from .algebra import Polynomial, Rational, RationalLike, rat, rat_str
from .errors import DegreeBudgetExceeded, SingularConfiguration
from .moments import SkewMoments
from .pfaffian import LAMBDA, MU, ZVAR, bordered_pfaffians, prefix_pfaffians
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

    The two coefficient fields are built from the grid's values on first
    use and kept in the private ``_scalar_field`` and ``_matrix_field``
    slots (see :func:`coefficient_field`); a grid's values are not
    modified after construction.
    """

    __slots__ = (
        "config", "base", "tables", "_tau", "_sigma", "_tauhat", "_sighat",
        "_scalar_field", "_matrix_field",
    )

    def __init__(
        self,
        config: LatticeConfig,
        base: SkewMoments,
        tables: dict[tuple[int, int], SkewMoments],
        tau: dict[tuple[int, int, int], Rational],
        sigma: dict[tuple[int, int, int], Rational],
        tauhat: dict[tuple[int, int, int], Polynomial],
        sighat: dict[tuple[int, int, int], Polynomial],
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

    # -- accessors ----------------------------------------------------
    # The four stores hold exactly the points 0 <= n <= pairs+1,
    # 0 <= s <= steps_s, 0 <= t <= steps_t, so a read outside the grid
    # raises KeyError naming the point.

    def tau(self, n: int, s: int, t: int) -> Rational:
        return self._tau[n, s, t]

    def sigma(self, n: int, s: int, t: int) -> Rational:
        return self._sigma[n, s, t]

    def tau_hat(self, n: int, s: int, t: int) -> Polynomial:
        return self._tauhat[n, s, t]

    def sigma_hat(self, n: int, s: int, t: int) -> Polynomial:
        return self._sighat[n, s, t]

    def moments(self, s: int, t: int) -> SkewMoments:
        return self.tables[(s, t)]

    def q_even(self, n: int, s: int, t: int) -> Polynomial:
        """Monic even-degree lattice SOP q_{2n}^{s,t} = tauhat_n/tau_n."""
        return self.tau_hat(n, s, t).scale(1 / self.tau(n, s, t))

    def phi_even(self, n: int, s: int, t: int) -> Polynomial:
        """phi_{2n}^{s,t} = tauhat_n/sigma_n; undefined where sigma_n = 0."""
        sig = self.sigma(n, s, t)
        if sig == 0:
            raise SingularConfiguration(
                f"sigma_{n} vanishes at site ({s},{t}); phi_{2 * n} undefined"
            )
        return self.tau_hat(n, s, t).scale(1 / sig)

    def phi_odd(self, n: int, s: int, t: int) -> Polynomial:
        """phi_{2n+1}^{s,t} = sighat_n/tau_n."""
        return self.sigma_hat(n, s, t).scale(1 / self.tau(n, s, t))

    def sites(self) -> Iterator[tuple[int, int]]:
        for s in range(self.config.steps_s + 1):
            for t in range(self.config.steps_t + 1):
                yield (s, t)

    def degenerate(self) -> "TauGrid":
        """Copy with sigma := tau and sighat := tauhat.

        Collapses the extended (vector) theory onto the scalar one; useful
        for consistency checks of the extended-system verifiers.
        """
        return TauGrid(
            self.config,
            self.base,
            self.tables,
            self._tau,
            dict(self._tau),
            self._tauhat,
            dict(self._tauhat),
        )

    # -- serialization ------------------------------------------------

    def _fields(self) -> dict[str, list]:
        """The four stored fields as to_json writes them: (n, s, t) nested lists."""
        c = self.config

        def nest(store, emit):
            return [
                [
                    [emit(store[(n, s, t)]) for t in range(c.steps_t + 1)]
                    for s in range(c.steps_s + 1)
                ]
                for n in range(c.pairs + 2)
            ]

        return {
            "tau": nest(self._tau, rat_str),
            "sigma": nest(self._sigma, rat_str),
            "tau_hat": nest(self._tauhat, Polynomial.to_json),
            "sigma_hat": nest(self._sighat, Polynomial.to_json),
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
    integers, so each value is reduced once.
    """
    if moments.max_index < config.required_budget:
        raise DegreeBudgetExceeded(
            f"grid needs a base budget of {config.required_budget}, "
            f"got {moments.max_index}"
        )
    tables = _shift_tables(moments, config)
    tau: dict[tuple[int, int, int], Rational] = {}
    sigma: dict[tuple[int, int, int], Rational] = {}
    tauhat: dict[tuple[int, int, int], Polynomial] = {}
    sighat: dict[tuple[int, int, int], Polynomial] = {}
    for (s, t), table in tables.items():
        offset = s * config.mu + t * config.lam
        values = prefix_pfaffians(table, config.pairs, offset)
        for n, (value, sig, hat, sig_hat) in enumerate(values):
            if value == 0:
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


def _z_factors(
    config: LatticeConfig,
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """z - mu, z - lambda and their product."""
    z_mu = Polynomial((-config.mu, 1))
    z_lam = Polynomial((-config.lam, 1))
    return z_mu, z_lam, z_mu * z_lam


# -- single-step Pfaffian crosschecks ----------------------------------


def crosscheck_single_step(grid: TauGrid, n: int, s: int, t: int) -> Report:
    """Compare shift-based lattice values at the three neighbours of (s, t)
    against bordered Pfaffians over the (s, t) table.

    Twelve identities: one per quantity (tau, tauhat, sigma, sighat) and
    step direction (s+1, t+1, and the diagonal s+1,t+1), all by one rule:
    the stepped value times the step's factor is the bordered Pfaffian.
    The factors are 1, 1 and -lm for a scalar and -(z-mu), -(z-lam) and
    -lm(z-mu)(z-lam) for a polynomial, lm = lambda - mu.  The sigma and
    sighat identities carry a one-step bookkeeping term (mu, lambda, or
    mu+lambda times the stepped tau) on top of the plain Pfaffian.  All
    twelve Pfaffians share the leading block 0..2n-1 and are read off one
    elimination of it (:func:`skewflow.pfaffian.bordered_pfaffians`).  A
    vanishing leading Pfaffian of the table, which :func:`build_grid` (and
    so :meth:`TauGrid.from_json`) rules out, raises SingularConfiguration
    naming it and the site on a grid assembled by hand.
    """
    c = grid.config
    if not (0 <= n <= c.pairs and 0 <= s < c.steps_s and 0 <= t < c.steps_t):
        raise IndexError(f"crosscheck stencil at (n={n}, s={s}, t={t}) leaves the box")
    mu, lam = c.mu, c.lam
    lm = lam - mu
    offset = s * mu + t * lam
    z_mu, z_lam, z_both = _z_factors(c)
    i0, i1, i2, i3 = range(2 * n, 2 * n + 4)
    # Per quantity: the stepped value, its factors for the steps s+1, t+1
    # and s+1,t+1, and the tails of its bordered Pfaffians for those steps.
    scalar = (1, 1, -lm)
    poly = (-z_mu, -z_lam, z_both.scale(-lm))
    quantities = (
        ("tau", grid.tau, scalar, ([i0, MU], [i0, LAMBDA], [i0, i1, MU, LAMBDA])),
        (
            "tauhat",
            grid.tau_hat,
            poly,
            ([i0, i1, MU, ZVAR], [i0, i1, LAMBDA, ZVAR], [i0, i1, i2, MU, LAMBDA, ZVAR]),
        ),
        # sigma and sighat first subtract the base site's (s*mu + t*lam)
        # bookkeeping from the stepped site's, leaving a one-step term.
        (
            "sigma",
            lambda *k: grid.sigma(*k) - offset * grid.tau(*k),
            scalar,
            ([i1, MU], [i1, LAMBDA], [i0, i2, MU, LAMBDA]),
        ),
        (
            "sighat",
            lambda *k: grid.sigma_hat(*k) - grid.tau_hat(*k).scale(offset),
            poly,
            ([i0, i2, MU, ZVAR], [i0, i2, LAMBDA, ZVAR], [i0, i1, i3, MU, LAMBDA, ZVAR]),
        ),
    )
    every_tail = [tail for *_, tails in quantities for tail in tails]
    try:
        pfaffians = iter(bordered_pfaffians(grid.moments(s, t), n, mu, lam, every_tail))
    except SingularConfiguration as exc:
        raise SingularConfiguration(f"{exc} at site ({s},{t})") from None

    report = Report(
        "crosscheck",
        {"n": n, "s": s, "t": t, "provenance": grid.base.provenance},
    )
    steps = (("s+1", s + 1, t), ("t+1", s, t + 1), ("s+1,t+1", s + 1, t + 1))
    for name, value, factors, tails in quantities:
        for (label, s1, t1), factor, tail in zip(steps, factors, tails):
            pf = next(pfaffians)
            if tail[-1] is not ZVAR:  # a bordered Pfaffian without z is a number
                pf = pf.coefficient(0)
            report.add(f"{name}:{label}", value(n, s1, t1) * factor == pf)
    return report


# -- scalar coefficient field ------------------------------------------


class CoefficientField:
    """A, B, C, D per interior site, keyed (n, s, t); A only for n >= 1.

    The scalar field holds rationals, the matrix field
    :class:`AntiDiagonal` entries.
    """

    __slots__ = ("config", "a", "b", "c", "d")

    def __init__(self, config, a, b, c, d):
        self.config = config
        self.a = a
        self.b = b
        self.c = c
        self.d = d


def _ratios(
    config: LatticeConfig, x: dict, y: dict, k: Rational
) -> tuple[dict, dict, dict, dict]:
    """The A, B, C, D tau-ratios with numerators from the lattice function
    stored in x, denominators from the one in y and constant k; an entry
    whose denominator vanishes is left out.

        A = k x_{n+1} x_{n-1}^{s+1,t+1} / (y_n^{s+1,t} y_n^{s,t+1})      (n >= 1)
        B = k x_n x_n^{s+1,t+1} / (y_n^{s+1,t} y_n^{s,t+1})
        C = x_{n+1}^{s+1,t} x_n^{s,t+1} / (k y_{n+1} y_n^{s+1,t+1})
        D = x_{n+1}^{s,t+1} x_n^{s+1,t} / (k y_{n+1} y_n^{s+1,t+1})

    (unmarked sites are (s, t)).  Each entry is one integer quotient of
    the numerators and denominators of its five factors, reduced by one
    gcd.
    """
    parts = {key: (v.numerator, v.denominator) for key, v in x.items()}
    ys = {key: (v.numerator, v.denominator) for key, v in y.items()}

    def ratio(top: int, bottom: int, u: tuple[int, int], v: tuple[int, int]) -> Rational:
        return Fraction(top * u[0] * v[0], bottom * u[1] * v[1])

    kp, kq = k.numerator, k.denominator
    a, b, cc, d = {}, {}, {}, {}
    for key in _sites(config, 0, 0, range(config.pairs + 1)):
        n, s, t = key
        # k / (y_n^{s+1,t} y_n^{s,t+1}) = top / bottom
        (p1, q1), (p2, q2) = ys[n, s + 1, t], ys[n, s, t + 1]
        if p1 and p2:
            top, bottom = kp * q1 * q2, kq * p1 * p2
            if n >= 1:
                a[key] = ratio(top, bottom, parts[n + 1, s, t], parts[n - 1, s + 1, t + 1])
            b[key] = ratio(top, bottom, parts[n, s, t], parts[n, s + 1, t + 1])
        # 1 / (k y_{n+1} y_n^{s+1,t+1}) = top / bottom
        (p1, q1), (p2, q2) = ys[n + 1, s, t], ys[n, s + 1, t + 1]
        if p1 and p2:
            top, bottom = kq * q1 * q2, kp * p1 * p2
            cc[key] = ratio(top, bottom, parts[n + 1, s + 1, t], parts[n, s, t + 1])
            d[key] = ratio(top, bottom, parts[n + 1, s, t + 1], parts[n, s + 1, t])
    return a, b, cc, d


def coefficient_field(grid: TauGrid) -> CoefficientField:
    """Tau-ratio coefficients of the scalar contiguous relations.

    Built on the first call for a grid and kept on it, so every later call
    (:func:`verify_slax` makes one) returns the same object.  The field is
    shared by every caller and must not be modified.
    """
    if grid._scalar_field is None:
        c = grid.config
        ratios = _ratios(c, grid._tau, grid._tau, c.mu - c.lam)
        grid._scalar_field = CoefficientField(c, *ratios)
    return grid._scalar_field


# -- bilinear systems ---------------------------------------------------


def _bilinear(
    fields: tuple, n: int, m: int, s: int, t: int, lm: Rational, z: tuple
) -> bool:
    """One bilinear relation at (n, s, t), exact in z:

        lm (z-mu)(z-lam) x_{n+1} yhat_{m-1}^{s+1,t+1}
          = (z-lam) y_m^{s+1,t} xhat_n^{s,t+1} - (z-mu) y_m^{s,t+1} xhat_n^{s+1,t}
            + lm x_n^{s+1,t+1} yhat_m

    (unmarked sites are (s, t)) for fields = (x, xhat, y, yhat), grid
    accessors.  m = n+1 gives the "up" shape (dckp1, edckp3/4), m = n the
    "down" shape (dckp2, edckp1/2).
    """
    x, xhat, y, yhat = fields
    z_mu, z_lam, z_both = z
    lhs = z_both.scale(lm * x(n + 1, s, t)) * yhat(m - 1, s + 1, t + 1)
    rhs = (
        z_lam.scale(y(m, s + 1, t)) * xhat(n, s, t + 1)
        - z_mu.scale(y(m, s, t + 1)) * xhat(n, s + 1, t)
        + yhat(m, s, t).scale(lm * x(n, s + 1, t + 1))
    )
    return lhs == rhs


def verify_dckp(grid: TauGrid) -> Report:
    """The two bilinear tau/tauhat relations, exact in z at each interior site."""
    c = grid.config
    lm = c.lam - c.mu
    z = _z_factors(c)
    tau = (grid.tau, grid.tau_hat, grid.tau, grid.tau_hat)
    report = Report("dckp", {"provenance": grid.base.provenance})
    for n, s, t in _sites(c, 0, 0, range(c.pairs + 1)):
        tag = f"n={n},s={s},t={t}"
        report.add(f"dckp1:{tag}", _bilinear(tau, n, n + 1, s, t, lm, z))
        if n >= 1:
            report.add(f"dckp2:{tag}", _bilinear(tau, n, n, s, t, lm, z))
    return report


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
    as an identity of polynomial vectors in z:

        (z-lam) v_n^{s,t+1} - (z-mu) v_n^{s+1,t}
            = -B v_n + (z-mu)(z-lam) A v_{n-1}^{s+1,t+1}        (A for n >= 1)
        (z-mu)(z-lam) v_n^{s+1,t+1} - v_{n+1}
            = (z-lam) C v_n^{s,t+1} - (z-mu) D v_n^{s+1,t}

    (unmarked sites are (s, t)).  ``vec`` maps (n, s, t) to the value
    vector there, undefined where its first component is None, and
    ``act(k, v)`` is the vector coefficient k makes of v.  An instance that
    needs an undefined vector or a coefficient the field omits is recorded
    as skipped.
    """
    z_mu, z_lam, z_both = _z_factors(grid.config)
    for key in _sites(grid.config, 0, 0, range(grid.config.pairs + 1)):
        n, s, t = key
        tag = f"n={n},s={s},t={t}"
        here, v_s, v_t = vec[key], vec[n, s + 1, t], vec[n, s, t + 1]
        prev = vec[n - 1, s + 1, t + 1] if n >= 1 else None
        if (
            None in (here[0], v_s[0], v_t[0])
            or key not in field.b
            or (n >= 1 and (prev[0] is None or key not in field.a))
        ):
            report.skip(f"{name}1:{tag}", "sigma vanishes inside the stencil")
        else:
            lhs = [z_lam * u - z_mu * v for u, v in zip(v_t, v_s)]
            rhs = [-x for x in act(field.b[key], here)]
            if n >= 1:
                rhs = [x + z_both * y for x, y in zip(rhs, act(field.a[key], prev))]
            report.add(f"{name}1:{tag}", lhs == rhs)
        diag, up = vec[n, s + 1, t + 1], vec[n + 1, s, t]
        if None in (diag[0], up[0], v_t[0], v_s[0]) or key not in field.c or key not in field.d:
            report.skip(f"{name}2:{tag}", "sigma vanishes inside the stencil")
        else:
            lhs = [z_both * u - v for u, v in zip(diag, up)]
            cterm, dterm = act(field.c[key], v_t), act(field.d[key], v_s)
            rhs = [z_lam * x - z_mu * y for x, y in zip(cterm, dterm)]
            report.add(f"{name}2:{tag}", lhs == rhs)


def verify_slax(grid: TauGrid, samples: Sequence[RationalLike]) -> Report:
    """Both scalar contiguous relations, each checked once as an identity
    of polynomials in z (:func:`_contiguous` on the vectors (q_2n,)).

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
    q = {
        (n, s, t): (grid.q_even(n, s, t),)
        for s, t in grid.sites()
        for n in range(c.pairs + 2)
    }
    # The scalar field's constant is mu - lambda, the matrix field's
    # lambda - mu, so a scalar coefficient acts with its sign flipped.
    _contiguous(
        report, "slax", grid, coefficient_field(grid), q, lambda k, v: (v[0].scale(-k),)
    )
    return report


def _additive(field: CoefficientField, n: int, s: int, t: int) -> bool:
    """The additive balance at (n, s, t); KeyError where an entry is missing."""
    a, b, cc, d = field.a, field.b, field.c, field.d
    return (
        a[(n, s + 1, t + 1)] - a[(n + 1, s, t)] + b[(n + 1, s, t)] - b[(n, s + 1, t + 1)]
        == cc[(n, s, t + 1)] - cc[(n, s + 1, t)] + d[(n, s + 1, t)] - d[(n, s, t + 1)]
    )


# The product relations lhs * x = r1 * r2 of the nonlinear systems.  A row
# holds the relation's id; the step (ds, dt) of its stencil, which drops
# the last ds values of s and dt of t; how many top values of n it drops;
# and its factors (lhs, x, r1, r2) at (n, s, t), first with the
# scalar-system ("pattern") indices, then with the printed ones (None
# where the two coincide).
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
                        report.add(f"{rel_id}:n={n},s={s},t={t}", lhs * x == r1 * r2)
    return report


# -- 2x2 matrix extension ----------------------------------------------


@dataclass(frozen=True)
class AntiDiagonal:
    """2x2 matrix with zero diagonal, stored as (upper, lower) entries."""

    upper: Rational  # row 0, column 1
    lower: Rational  # row 1, column 0

    # the edpfl additive balance (:func:`_additive`) adds and subtracts entries
    def __add__(self, other: "AntiDiagonal") -> "AntiDiagonal":
        return AntiDiagonal(self.upper + other.upper, self.lower + other.lower)

    def __sub__(self, other: "AntiDiagonal") -> "AntiDiagonal":
        return AntiDiagonal(self.upper - other.upper, self.lower - other.lower)

    def times(self, other: "AntiDiagonal") -> tuple[Rational, Rational]:
        """Product of two antidiagonal matrices, a diagonal (d00, d11)."""
        return (self.upper * other.lower, self.lower * other.upper)

    def apply(self, vec: tuple[Polynomial, Polynomial]) -> tuple[Polynomial, Polynomial]:
        return (vec[1].scale(self.upper), vec[0].scale(self.lower))


def matrix_coefficient_field(grid: TauGrid) -> CoefficientField:
    """Matrix coefficients per interior site: the scalar tau-ratios with
    lambda - mu for mu - lambda, sigma in the denominators of the upper
    entries and in the numerators of the lower ones.

    An entry is omitted (not stored) wherever a sigma in its denominator
    vanishes; the verifiers skip relation instances that need missing
    entries.  The origin always has sigma_0 = 0, and random tables can put
    further accidental zeros on the grid.

    Like :func:`coefficient_field`, built once per grid (:func:`verify_edlax`
    reads the same object) and shared: it must not be modified.
    """
    if grid._matrix_field is None:
        c = grid.config
        lm = c.lam - c.mu
        upper = _ratios(c, grid._tau, grid._sigma, lm)
        lower = _ratios(c, grid._sigma, grid._tau, lm)
        both = (
            {k: AntiDiagonal(u[k], w[k]) for k in u if k in w} for u, w in zip(upper, lower)
        )
        grid._matrix_field = CoefficientField(c, *both)
    return grid._matrix_field


def verify_edckp(grid: TauGrid) -> Report:
    """The four bilinear relations coupling tau/sigma with tauhat/sighat."""
    c = grid.config
    lm = c.lam - c.mu
    z = _z_factors(c)
    sig_tau = (grid.sigma, grid.sigma_hat, grid.tau, grid.tau_hat)
    tau_sig = (grid.tau, grid.tau_hat, grid.sigma, grid.sigma_hat)
    report = Report("edckp", {"provenance": grid.base.provenance})
    for n, s, t in _sites(c, 0, 0, range(c.pairs + 1)):
        tag = f"n={n},s={s},t={t}"
        if n >= 1:
            report.add(f"edckp1:{tag}", _bilinear(sig_tau, n, n, s, t, lm, z))
            report.add(f"edckp2:{tag}", _bilinear(tau_sig, n, n, s, t, lm, z))
        report.add(f"edckp3:{tag}", _bilinear(sig_tau, n, n + 1, s, t, lm, z))
        report.add(f"edckp4:{tag}", _bilinear(tau_sig, n, n + 1, s, t, lm, z))
    return report


def verify_edlax(grid: TauGrid, samples: Sequence[RationalLike]) -> Report:
    """The two vector contiguous relations, each checked once as an identity
    of polynomial vectors in z, plus per-site skew-orthogonality of the phi
    family.

    ``samples`` is validated (distinct points, at least 2*pairs+3 of them)
    and recorded in the report.  A check at those points gives the same
    verdict as the polynomial check whenever lhs - rhs has degree below the
    sample count.  On a grid with the degrees :func:`build_grid` gives
    (phi_2n of degree 2n, phi_2n+1 monic of degree 2n+1) the degree is at
    most 2*pairs+2; only the second component of edlax2 at n = pairs can
    reach 2*pairs+3, and only when an odd phi is not monic, which
    :func:`build_grid` never produces.  The polynomial check is the
    stricter one.

    Relation instances touching a site where some needed sigma vanishes are
    recorded as skipped.  sigma_0 = (s*mu + t*lam) * tau_0 vanishes by
    construction at the origin and wherever s*mu + t*lam = 0, so phi_0 is
    only required to exist away from those sites.  At the origin sigma_1 is
    the bare moment s_02, which may be zero, so phi_2 is not required there;
    every other phi_2n is required at every site.
    """
    c = grid.config
    report = Report(
        "edlax",
        {"samples": _sample_points(c, samples), "provenance": grid.base.provenance},
    )
    # (phi_2n, phi_2n+1) at every site, phi_2n None where sigma_n vanishes
    phi = {
        (n, s, t): (
            None if grid.sigma(n, s, t) == 0 else grid.phi_even(n, s, t),
            grid.phi_odd(n, s, t),
        )
        for s, t in grid.sites()
        for n in range(c.pairs + 2)
    }
    _contiguous(
        report, "edlax", grid, matrix_coefficient_field(grid), phi, AntiDiagonal.apply
    )
    for s, t in grid.sites():
        phis = [p for n in range(c.pairs + 1) for p in phi[(n, s, t)]]
        pairings = skew_pairings(grid.moments(s, t), phis)
        for u in range(len(phis)):
            for v in range(u + 1, len(phis)):
                tag = f"phi-orthogonality:<phi{u}|phi{v}>:s={s},t={t}"
                if (u, v) not in pairings:
                    report.skip(tag, "phi undefined (sigma vanishes)")
                    continue
                if u % 2 == 0 and v == u + 1:
                    expected = grid.tau(u // 2 + 1, s, t) / grid.sigma(u // 2, s, t)
                else:
                    expected = Fraction(0)
                report.add(tag, pairings[u, v] == expected)
        monic = [
            n
            for n in range(c.pairs + 1)
            if phis[2 * n] is not None
            and phis[2 * n].coefficient(2 * n) == 1
        ]
        # phi_0 is exempt where s*mu + t*lam = 0, and phi_2 at the origin,
        # where sigma_1 is the bare moment s_02 (see the docstring)
        higher = phis[4::2] if (s, t) == (0, 0) else phis[2::2]
        report.add(
            f"phi-even-defined:s={s},t={t}",
            all(p is not None for p in higher)
            and (phis[0] is not None or s * c.mu + t * c.lam == 0),
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
            holds[name] = all(lhs.times(x) == r1.times(r2) for lhs, x, r1, r2 in insts)
            holds[f"{name}-swapped"] = all(
                lhs.times(x) == r2.times(r1) for lhs, x, r1, r2 in insts
            )
        detail = " ".join(f"{k}={'pass' if holds[k] else 'fail'}" for k in _EDPFL_VARIANTS)
        report.add(rel_id, holds["pattern-swapped"], detail)
    return report
