"""Multivariate gamma functions, integer partitions, and zonal polynomials.

Zonal polynomials use the normalization in which the ones of a given
weight k sum to ``(tr X)**k``. One memoized table per (weight k,
variables m) holds them: the coefficients in the monomial symmetric
functions m_lam of every C_kappa with at most m parts, built in exact
rational arithmetic over those partitions only (no other row feeds
them), each C_kappa's float coefficient row, and, from the first
evaluation on, the distinct exponent vectors of each m_lam in m
variables, stacked. One spectrum (or a batch) then takes one
power-product over the stacked exponents, a segmented sum into the
m_lam, and a dot product with the row.

The expansion of prod_{i<j}(x_i + x_j) in zonal polynomials is exact as
well: the product is multiplied out into integer monomial coefficients
and solved against the table of weight p(p-1)/2 in p variables by
substitution down the dominance order, in rational arithmetic.

The scalar Gauss series 2F1(a, b; c; x) is summed in float, with a
proved geometric bound on the terms left out.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, isfinite, lgamma, log, pi, prod
from types import MappingProxyType

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
# HYP2F1_RTOL of the partial sum; past HYP2F1_TERM_CAP terms per slice
# (x1 near 1) it gives up. At x1 = 0.99 parameters below 3 in size need
# about 3,300 terms, and at x1 = 0.999 about 33,000.
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


def _ratio_products(a: float, b: float, c: float, d: float, x: float, n: int) -> np.ndarray:
    """T_m = (a)_m (b)_m / ((c)_m (d)_m) x^m for m < n, with c, d > 0.

    The ratios T_{m+1} / T_m are accumulated in log space with their
    signs, so no partial product overflows or underflows on the way; a
    zero ratio (a terminating Pochhammer, or x = 0) gives exact zeros.
    """
    m = np.arange(n - 1.0)
    r = (a + m) * (b + m) / ((c + m) * (d + m)) * x
    log_t = np.zeros(n)
    np.cumsum(np.log(np.abs(r)), out=log_t[1:])
    sign = np.ones(n)
    np.cumprod(np.sign(r), out=sign[1:])
    return sign * np.exp(log_t)


def _hyp2f1_factors(a: float, b: float, c: float, x1: float, x2: float, n: int):
    """Factors (u, v, w) of the terms of 2F1(a, b; c; diag(x1, x2)) with k1 < n.

    The term of kappa = (k1, k2), k2 <= k1, is u[k2] v[k1] w[k1 - k2], with

        u[m] = (a - 1/2)_m (b - 1/2)_m / ((c - 1/2)_m m!) x2^m,
        v[m] = (a)_m (b)_m / ((c)_m (1/2)_m) x1^m / (2m + 1),
        w[j] = (2j + 1) R_j(1, x2/x1),
        R_j(s, t) = sum_i (1/2)_i (1/2)_(j-i) / (i! (j-i)!) s^(j-i) t^i.

    That is (a)_kappa (b)_kappa / ((c)_kappa |kappa|!) C_kappa(x1, x2) with
    (a)_kappa = (a)_k1 (a - 1/2)_k2 and the two-variable zonal polynomial
    C_kappa(x1, x2) = C_kappa(I_2) (x1 x2)^k2 R_(k1-k2)(x1, x2), where
    C_kappa(I_2) / |kappa|! = (2j + 1) / ((2 k1 + 1) (1/2)_k1 k2!)
    (Muirhead 1982, Thm 7.2.7) and R_j(1, 1) = 1. R_j(x1, x2) is
    (x1 x2)^(j/2) times the Legendre polynomial P_j at
    (x1 + x2) / (2 sqrt(x1 x2)); its coefficients are positive, so it is
    summed here as the convolution that defines it, without cancellation,
    over the powers of x2/x1 that do not underflow.
    """
    # a zero ratio logs as -inf; a term past the float range becomes inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = _ratio_products(a - 0.5, b - 0.5, c - 0.5, 1.0, x2, n)
        v = _ratio_products(a, b, c, 0.5, x1, n) / (2.0 * np.arange(n) + 1.0)
        half = _ratio_products(0.5, 1.0, 1.0, 1.0, 1.0, n)
        powers = _ratio_products(0.5, 1.0, 1.0, 1.0, x2 / x1, n)
    powers = powers[: np.flatnonzero(powers)[-1] + 1]
    w = (2.0 * np.arange(n) + 1.0) * np.convolve(half, powers)[:n]
    return u, v, w


def hyp2f1_series(a: float, b: float, c: float, x1: float, x2: float = 0.0) -> float:
    """Gauss 2F1(a, b; c; X) of a matrix X with eigenvalues 1 > x1 >= x2 >= 0, for c > 1/2.

    In the zonal normalization this is the sum over partitions kappa of
    at most two parts of (a)_kappa (b)_kappa / ((c)_kappa |kappa|!)
    C_kappa(X), with each term the product u[k2] v[k1] w[k1 - k2] of
    `_hyp2f1_factors`. Ordered by k2, the sum is a sequence of slices;
    slice k2 carries x2^k2, so at x2 = 0 only the slice k2 = 0 is left,
    and it is the scalar Gauss series sum_n (a)_n (b)_n / ((c)_n n!) x1^n.
    Each slice is summed over k1 < n at once, as a correlation of v with w.

    Bound on what is left out, with M = n - 1 >= 1/2 - min(a, b):
    - Along a slice, the term ratio is at most
      q = x1 max(1, (a+M)/(M+1/2)) max(1, (b+M)/(c+M)) from k1 = M on,
      since each factor of the Pochhammer ratio is monotone in k1 and
      tends to 1, R_(j+1)(1, t) <= R_j(1, t) for t <= 1, and
      (2j + 3)(2 k1 + 1) <= (2j + 1)(2 k1 + 3). A slice's terms past
      k1 = M thus sum to at most q / (1 - q) times its term at M.
    - The slice heads (k1 = k2) have ratios at most
      Q = q x2 max(1, (a-1/2+M)/(M+1)) max(1, (b-1/2+M)/(c-1/2+M)) from
      k2 = M on, so the slices past M sum to at most
      |head at M| Q / ((1 - q)(1 - Q)).
    Summation stops once both together are below HYP2F1_RTOL of the
    sum; a series that terminates (a or b a nonpositive integer, or a
    half-integer for the k2 > 0 slices) leaves exactly zero. Otherwise n
    doubles, and past HYP2F1_TERM_CAP values of k1 (x1 near 1), or when
    a partial sum overflows, it gives up with CapExceeded.
    """
    if not (1.0 > x1 >= x2 >= 0.0 and c > 0.5):
        raise DomainError(f"hyp2f1_series needs 1 > x1 >= x2 >= 0 and c > 1/2, got x=({x1}, {x2}), c={c}")
    if x1 == 0.0:
        return 1.0
    # x1^n reaches HYP2F1_RTOL (1 - x1) at this n; most series stop there
    n = int(min(max(16.0, np.ceil(log(HYP2F1_RTOL * (1.0 - x1)) / log(x1)) + 16.0), HYP2F1_TERM_CAP))
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            u, v, w = _hyp2f1_factors(a, b, c, x1, x2, n)
            slices = np.flatnonzero(u)[-1] + 1
            total = float(u[:slices] @ np.correlate(np.concatenate((v, np.zeros(slices - 1))), w, "valid"))
            if not isfinite(total):
                raise CapExceeded(f"2F1({a}, {b}; {c}; ({x1}, {x2})) overflows a float")
            M = n - 1
            if M >= 0.5 - min(a, b):
                q = x1 * max(1.0, (a + M) / (M + 0.5)) * max(1.0, (b + M) / (c + M))
                Q = q * x2 * max(1.0, (a - 0.5 + M) / (M + 1.0)) * max(1.0, (b - 0.5 + M) / (c - 0.5 + M))
                if q < 1.0 and Q < 1.0:
                    last = float(np.abs(u[:slices] * w[M - np.arange(slices)]).sum()) * abs(v[M])
                    left = q / (1.0 - q) * last + abs(u[M] * v[M]) * Q / ((1.0 - q) * (1.0 - Q))
                    if left <= HYP2F1_RTOL * abs(total):
                        return total
            if n == HYP2F1_TERM_CAP:
                raise CapExceeded(
                    f"2F1({a}, {b}; {c}; ({x1}, {x2})) not converged in {HYP2F1_TERM_CAP} terms per slice"
                )
            n = min(2 * n, HYP2F1_TERM_CAP)


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


def _distinct_permutations(vec: tuple[int, ...]) -> list[tuple[int, ...]]:
    if not vec:
        return [()]
    out = []
    for v in sorted(set(vec), reverse=True):
        rest = list(vec)
        rest.remove(v)
        out.extend((v,) + tail for tail in _distinct_permutations(tuple(rest)))
    return out


@dataclass(frozen=True)
class ZonalTable:
    """The zonal polynomials of weight k in m variables, in the monomial basis.

    ``order`` lists the partitions of k with at most m parts in
    reverse-lexicographic order, and ``coeffs[kappa][lam]`` is the exact
    rational coefficient of the monomial symmetric function m_lam in
    C_kappa; ``rows[kappa]`` is C_kappa's float coefficient on each m_lam.
    ``monomials`` is built on first use, because a caller that reads only
    coefficients would otherwise pay for every monomial of degree k in m
    variables: it is the pair (exponents, starts), where exponents stacks
    the distinct exponent vectors of every m_lam, lam by lam in order,
    and starts holds the row where each lam begins, so m_lam(x) is the
    sum of x**e over its rows.
    """

    k: int
    m: int
    order: tuple[tuple[int, ...], ...]
    coeffs: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]
    rows: dict[tuple[int, ...], np.ndarray]

    @cached_property
    def monomials(self) -> tuple[np.ndarray, np.ndarray]:
        exponents, starts = [], []
        for lam in self.order:
            starts.append(len(exponents))
            exponents.extend(_distinct_permutations(lam + (0,) * (self.m - len(lam))))
        return np.array(exponents, dtype=np.int64).reshape(-1, self.m), np.array(starts, dtype=np.intp)


@cache
def zonal_table(k: int, m: int) -> ZonalTable:
    """Memoized zonal table of weight k in m variables (weight cap ZONAL_WEIGHT_CAP).

    Only the partitions with at most m parts enter: a move of the
    recurrence never adds a part, and C_kappa involves only the m_lam
    with lam dominated by kappa, so these rows depend only on each other
    and equal the rows of the full table. An m above k keeps every
    partition, so its rows are those of m = k.
    """
    k, m = int(k), int(m)
    if k < 0:
        raise DomainError(f"weight must be >= 0, got {k}")
    if m < 1:
        raise DomainError(f"number of variables must be >= 1, got {m}")
    if k > ZONAL_WEIGHT_CAP:
        raise CapExceeded(f"zonal weight {k} exceeds cap {ZONAL_WEIGHT_CAP}")
    parts = partitions_of(k, m)
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
    rows = {kappa: np.array([float(coeffs[kappa].get(lam, 0)) for lam in parts]) for kappa in parts}
    return ZonalTable(k=k, m=m, order=tuple(parts), coeffs=coeffs, rows=rows)


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
    table = zonal_table(sum(kappa), p)
    exponents, starts = table.monomials
    terms = np.prod(x[..., None, :] ** exponents, axis=-1)
    out = np.add.reduceat(terms, starts, axis=-1) @ table.rows[kappa]
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


@cache
def zonal_expansion_coefficients(p: int) -> Mapping[tuple[int, ...], float]:
    """Coefficients a_kappa with prod_{i<j}(x_i + x_j) = sum_kappa a_kappa C_kappa(x).

    The product over the p(p-1)/2 unordered pairs of eigenvalues is the
    Schur function s_delta, delta = (p-1, ..., 1, 0), a symmetric
    polynomial of degree p(p-1)/2; the sum runs over the partitions of
    that weight with at most p parts. The product is multiplied out into
    integer monomial coefficients, and since C_kappa involves only the
    m_lam with lam dominated by kappa, the a_kappa follow exactly in
    rational arithmetic by substitution down the table order. Every
    partition is a key; those whose exact coefficient is zero map to 0.0.
    The memoized mapping is read-only.
    """
    p = int(p)
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if p > EXPANSION_P_CAP:
        raise CapExceeded(f"p={p} exceeds expansion cap {EXPANSION_P_CAP}")
    table = zonal_table(p * (p - 1) // 2, p)
    target = _pair_product_monomials(p)
    exact: dict[tuple[int, ...], Fraction] = {}
    for lam in table.order:
        t = Fraction(target[lam + (0,) * (p - len(lam))])
        for kappa, a in exact.items():
            t -= a * table.coeffs[kappa].get(lam, 0)
        exact[lam] = t / table.coeffs[lam][lam]
    return MappingProxyType({kappa: float(a) for kappa, a in exact.items()})
