"""Multivariate gamma functions, integer partitions, and zonal polynomials.

Zonal polynomials use the normalization in which the ones of a given
weight k sum to ``(tr X)**k``. Their coefficients in the monomial
symmetric functions m_lam are built once per weight in exact rational
arithmetic and memoized; they do not depend on the number of variables,
so that table is keyed by weight alone. Evaluation in p variables uses a
second memoized table per (weight, p): the distinct exponent vectors of
every m_lam with at most p parts, stacked, and each C_kappa's float
coefficient row. One spectrum (or a batch) then takes one power-product
over the stacked exponents, a segmented sum into the m_lam, and a dot
product with the row.

The expansion of prod_{i<j}(x_i + x_j) in zonal polynomials is exact as
well: the product is multiplied out into integer monomial coefficients
and solved against the weight-p(p-1)/2 table by substitution down the
dominance order, in rational arithmetic.

The scalar Gauss series 2F1(a, b; c; x) is summed in float, with a
proved geometric bound on the terms left out.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lgamma, log, pi, prod

import numpy as np

from .errors import CapExceeded, DomainError

__all__ = [
    "log_mvgamma",
    "log_partition_gamma_upper",
    "log_partition_gamma_lower",
    "partitions_of",
    "ZonalTable",
    "zonal_table",
    "zonal_polynomial",
    "zonal_expansion_coefficients",
    "hyp2f1_series",
]

_LOG_PI = log(pi)

ZONAL_WEIGHT_CAP = 12
EXPANSION_P_CAP = 5
# The Gauss series stops once a bound on its remaining terms is below
# HYP2F1_RTOL of the partial sum; past HYP2F1_TERM_CAP terms (x near 1)
# it gives up. At x = 0.99 parameters below 3 in size need 150 to 1,500
# terms, and at x = 0.999 a few thousand.
HYP2F1_RTOL = 1e-14
HYP2F1_TERM_CAP = 10_000


def log_mvgamma(p: int, nu: float) -> float:
    """Log of the p-variate gamma function at nu.

    log Gamma_p(nu) = p(p-1)/4 * log(pi) + sum_{j=0}^{p-1} log Gamma(nu - j/2),
    defined for nu > (p-1)/2.
    """
    p = int(p)
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got {p}")
    if not nu > (p - 1) / 2:
        raise DomainError(f"log_mvgamma needs nu > (p-1)/2 = {(p - 1) / 2}, got {nu}")
    return 0.25 * p * (p - 1) * _LOG_PI + sum(lgamma(nu - 0.5 * j) for j in range(p))


def hyp2f1_series(a: float, b: float, c: float, x: float) -> float:
    """Gauss 2F1(a, b; c; x) = sum_n (a)_n (b)_n / ((c)_n n!) x^n for 0 <= x < 1, c > 0.

    The terms are summed in float. Once n >= max(-a, -b, 0), every later
    term ratio (a+m)(b+m) x / ((c+m)(m+1)) is at most
    q = x max(1, (a+n)/(n+1)) max(1, (b+n)/(c+n)), since each factor is
    monotone in m and tends to 1; the terms after t_n then sum to at most
    |t_n| q / (1 - q). Summation stops when that bound is below
    HYP2F1_RTOL of the partial sum, or at a zero term: at a nonpositive
    integer a or b the series terminates, and at x = 0 it is exactly 1.
    Raises CapExceeded when HYP2F1_TERM_CAP terms do not get there.
    """
    if not (0.0 <= x < 1.0 and c > 0.0):
        raise DomainError(f"hyp2f1_series needs 0 <= x < 1 and c > 0, got x={x}, c={c}")
    total, term = 1.0, 1.0
    for n in range(HYP2F1_TERM_CAP):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        if term == 0.0:
            return total
        m = n + 1
        if m >= -a and m >= -b:
            q = x * max(1.0, (a + m) / (m + 1)) * max(1.0, (b + m) / (c + m))
            if q < 1.0 and abs(term) * q / (1.0 - q) <= HYP2F1_RTOL * abs(total):
                return total
    raise CapExceeded(f"2F1({a}, {b}; {c}; {x}) not converged in {HYP2F1_TERM_CAP} terms")


def _padded(kappa, m: int) -> list[int]:
    k = [int(x) for x in kappa]
    if any(x < 0 for x in k) or any(k[i] < k[i + 1] for i in range(len(k) - 1)):
        raise DomainError(f"not a partition: {kappa}")
    if len(k) > m:
        if any(x > 0 for x in k[m:]):
            raise DomainError(f"partition {kappa} has more than {m} parts")
        k = k[:m]
    return k + [0] * (m - len(k))


def log_partition_gamma_upper(m: int, a: float, kappa) -> float:
    """Log of the partition-shifted m-variate gamma with parts added.

    log of pi^{m(m-1)/4} * prod_{j=1}^m Gamma(a + k_j - (j-1)/2); every
    gamma argument must be positive.
    """
    k = _padded(kappa, m)
    args = [a + k[j] - 0.5 * j for j in range(m)]
    if min(args) <= 0.0:
        raise DomainError(f"gamma argument not positive: a={a}, kappa={tuple(kappa)}")
    return 0.25 * m * (m - 1) * _LOG_PI + sum(lgamma(x) for x in args)


def log_partition_gamma_lower(m: int, b: float, kappa) -> float:
    """Log of the partition-shifted m-variate gamma with parts subtracted.

    log of pi^{m(m-1)/4} * prod_{j=1}^m Gamma(b - k_j - (m-j)/2); requires
    b > k_1 + (m-1)/2, which makes every gamma argument positive.
    """
    k = _padded(kappa, m)
    args = [b - k[j] - 0.5 * (m - 1 - j) for j in range(m)]
    if min(args) <= 0.0:
        raise DomainError(f"needs b > k_1 + (m-1)/2; got b={b}, kappa={tuple(kappa)}")
    return 0.25 * m * (m - 1) * _LOG_PI + sum(lgamma(x) for x in args)


def partitions_of(k: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of k into at most max_parts parts, reverse-lexicographic."""
    k = int(k)
    if k < 0:
        raise DomainError(f"weight must be >= 0, got {k}")
    if max_parts is None:
        max_parts = k
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


def _rho(kappa) -> int:
    # sum_i k_i (k_i - i) with 1-based i; the recurrence denominator.
    return sum(k * (k - i) for i, k in enumerate(kappa, start=1))


def _dominated(mu, kappa) -> bool:
    # mu <= kappa in dominance order (equal weights assumed).
    s_mu = s_ka = 0
    for i in range(max(len(mu), len(kappa))):
        s_mu += mu[i] if i < len(mu) else 0
        s_ka += kappa[i] if i < len(kappa) else 0
        if s_mu > s_ka:
            return False
    return True


def _moves(lam):
    """Single-move targets of lam: add t to part i, remove t from part j > i, re-sort.

    Yields (coefficient l_i - l_j + 2t, resulting partition). Positions with
    equal values count separately.
    """
    ell = len(lam)
    for j in range(1, ell):
        for i in range(j):
            for t in range(1, lam[j] + 1):
                vec = list(lam)
                vec[i] += t
                vec[j] -= t
                mu = tuple(sorted((x for x in vec if x > 0), reverse=True))
                yield lam[i] - lam[j] + 2 * t, mu


@dataclass(frozen=True)
class ZonalTable:
    """Monomial-basis coefficients of all zonal polynomials of one weight.

    ``coeffs[kappa][lam]`` is the (exact rational) coefficient of the
    monomial symmetric function m_lam in C_kappa. ``order`` lists the
    partitions of the weight in reverse-lexicographic order.
    """

    k: int
    order: tuple[tuple[int, ...], ...]
    coeffs: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]


def _build_table(k: int) -> ZonalTable:
    parts = partitions_of(k)
    monic: dict[tuple, dict[tuple, Fraction]] = {}
    for a, kappa in enumerate(parts):
        row = {kappa: Fraction(1)}
        rho_k = _rho(kappa)
        for lam in parts[a + 1 :]:
            if not _dominated(lam, kappa):
                continue
            acc = Fraction(0)
            for coef, mu in _moves(lam):
                c = row.get(mu)
                if c is not None:
                    acc += coef * c
            if acc:
                row[lam] = acc / (rho_k - _rho(lam))
        monic[kappa] = row
    # Rescale so the weight-k zonal polynomials sum to (tr X)^k: match
    # (sum x_i)^k = sum_lam (k!/prod lam_i!) m_lam by forward substitution
    # down the dominance-compatible order.
    scale: dict[tuple, Fraction] = {}
    for lam in parts:
        t = Fraction(factorial(k), prod(factorial(x) for x in lam))
        for kappa in parts:
            if kappa == lam:
                break
            c = monic[kappa].get(lam)
            if c is not None:
                t -= scale[kappa] * c
        scale[lam] = t
    coeffs = {
        kappa: {lam: scale[kappa] * c for lam, c in row.items()}
        for kappa, row in monic.items()
    }
    return ZonalTable(k=k, order=tuple(parts), coeffs=coeffs)


_TABLE_CACHE: dict[int, ZonalTable] = {}
_TABLE_LOCK = threading.Lock()


def zonal_table(k: int) -> ZonalTable:
    """Memoized zonal coefficient table for weight k (cap ZONAL_WEIGHT_CAP)."""
    k = int(k)
    if k < 0:
        raise DomainError(f"weight must be >= 0, got {k}")
    if k > ZONAL_WEIGHT_CAP:
        raise CapExceeded(f"zonal weight {k} exceeds cap {ZONAL_WEIGHT_CAP}")
    with _TABLE_LOCK:
        table = _TABLE_CACHE.get(k)
        if table is None:
            table = _build_table(k)
            _TABLE_CACHE[k] = table
        return table


@dataclass(frozen=True)
class _MonomialBasis:
    """Monomial symmetric functions of one weight in p variables.

    ``exponents`` stacks the distinct exponent vectors of every partition
    lam of the weight with at most p parts, lam by lam in table order;
    ``starts`` holds the row where each lam begins, so m_lam(x) is the sum
    of x**e over its rows. ``rows[kappa]`` is C_kappa's float coefficient
    on each m_lam, taken from the exact table.
    """

    exponents: np.ndarray
    starts: np.ndarray
    rows: dict[tuple[int, ...], np.ndarray]


def _distinct_permutations(vec: tuple[int, ...]) -> list[tuple[int, ...]]:
    if not vec:
        return [()]
    out = []
    for v in sorted(set(vec), reverse=True):
        rest = list(vec)
        rest.remove(v)
        out.extend((v,) + tail for tail in _distinct_permutations(tuple(rest)))
    return out


def _build_basis(table: ZonalTable, p: int) -> _MonomialBasis:
    lams = [lam for lam in table.order if len(lam) <= p]
    exponents, starts = [], []
    for lam in lams:
        starts.append(len(exponents))
        exponents.extend(_distinct_permutations(lam + (0,) * (p - len(lam))))
    rows = {
        kappa: np.array([float(table.coeffs[kappa].get(lam, 0)) for lam in lams])
        for kappa in lams
    }
    return _MonomialBasis(
        exponents=np.array(exponents, dtype=np.int64).reshape(-1, p),
        starts=np.array(starts, dtype=np.intp),
        rows=rows,
    )


_BASIS_CACHE: dict[tuple[int, int], _MonomialBasis] = {}


def _monomial_basis(k: int, p: int) -> _MonomialBasis:
    table = zonal_table(k)
    with _TABLE_LOCK:
        basis = _BASIS_CACHE.get((k, p))
        if basis is None:
            basis = _build_basis(table, p)
            _BASIS_CACHE[(k, p)] = basis
        return basis


def zonal_polynomial(kappa, eigenvalues) -> float | np.ndarray:
    """Zonal polynomial C_kappa evaluated at a spectrum (or batch of spectra).

    Parameters
    ----------
    kappa : partition
        Non-increasing tuple of positive ints.
    eigenvalues : array_like
        Spectrum of the matrix argument, shape ``(p,)`` or ``(..., p)``.

    Returns
    -------
    float or ndarray
        C_kappa at each spectrum. Normalized so that the zonal
        polynomials of weight k sum to ``(sum of eigenvalues)**k``.
    """
    kappa = tuple(int(x) for x in kappa if int(x) != 0)
    x = np.asarray(eigenvalues, dtype=float)
    scalar = x.ndim == 1
    p = x.shape[-1]
    if len(kappa) > p:
        raise DomainError(f"partition {kappa} has more parts than variables ({p})")
    basis = _monomial_basis(sum(kappa), p)
    terms = np.prod(x[..., None, :] ** basis.exponents, axis=-1)
    out = np.add.reduceat(terms, basis.starts, axis=-1) @ basis.rows[kappa]
    return float(out) if scalar else out


def _pair_product_monomials(p: int) -> Counter:
    # Integer coefficient of each monomial x^e in prod_{i<j} (x_i + x_j).
    poly = Counter({(0,) * p: 1})
    for i in range(p):
        for j in range(i + 1, p):
            nxt: Counter = Counter()
            for e, c in poly.items():
                for t in (i, j):
                    bumped = list(e)
                    bumped[t] += 1
                    nxt[tuple(bumped)] += c
            poly = nxt
    return poly


_EXPANSION_CACHE: dict[int, dict[tuple[int, ...], float]] = {}
_EXPANSION_LOCK = threading.Lock()


def zonal_expansion_coefficients(p: int, cap: int = EXPANSION_P_CAP) -> dict[tuple[int, ...], float]:
    """Coefficients a_kappa with prod_{i<j}(x_i + x_j) = sum_kappa a_kappa C_kappa(x).

    The product over the p(p-1)/2 unordered pairs of eigenvalues is the
    Schur function s_delta, delta = (p-1, ..., 1, 0), a symmetric
    polynomial of degree p(p-1)/2; the sum runs over the partitions of
    that weight with at most p parts. The product is multiplied out into
    integer monomial coefficients, and since C_kappa involves only the
    m_lam with lam dominated by kappa, the a_kappa follow exactly in
    rational arithmetic by substitution down the table order. Every
    partition is a key; those whose exact coefficient is zero map to 0.0.
    """
    p = int(p)
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if p > cap:
        raise CapExceeded(f"p={p} exceeds expansion cap {cap}")
    with _EXPANSION_LOCK:
        cached = _EXPANSION_CACHE.get(p)
        if cached is None:
            table = zonal_table(p * (p - 1) // 2)
            target = _pair_product_monomials(p)
            exact: dict[tuple[int, ...], Fraction] = {}
            for lam in (lam for lam in table.order if len(lam) <= p):
                t = Fraction(target[lam + (0,) * (p - len(lam))])
                for kappa, a in exact.items():
                    t -= a * table.coeffs[kappa].get(lam, 0)
                exact[lam] = t / table.coeffs[lam][lam]
            cached = {kappa: float(a) for kappa, a in exact.items()}
            _EXPANSION_CACHE[p] = cached
        return dict(cached)
