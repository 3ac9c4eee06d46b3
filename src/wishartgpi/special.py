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
proved geometric bound on the terms left out, and so is the
exponentially scaled Kummer function e^-x 1F1(a; b; x), elementwise over
an array of x.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import ceil, factorial, isfinite, lgamma, log, pi, prod, sqrt
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
    "log_hyp1f1_scaled",
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
# e^-x 1F1(a; b; x) leaves out terms worth at most HYP1F1_RTOL of the sum.
# Up to x = HYP1F1_HORNER_X it is one polynomial in Horner form: at
# |a - b| <= 2 that takes at most about 120 terms, whose coefficients,
# about 1/n!, stay far from the underflow 1/n! meets near n = 170.
# Above it, a window of HYP1F1_WINDOW sqrt(x) terms on either side of
# the Poisson mode is summed in log space.
HYP1F1_RTOL = 1e-16
HYP1F1_HORNER_X = 50.0
HYP1F1_WINDOW = 10.0
_WINDOW_CELLS = 1 << 16


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
    # a zero ratio logs as -inf; a term past the float range becomes inf.
    # At x2 = 0 only the slice k2 = 0 is left, and u is not formed: for
    # c <= 1/2 its (c - 1/2)_m would vanish or change sign.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = _ratio_products(a - 0.5, b - 0.5, c - 0.5, 1.0, x2, n) if x2 else np.eye(1, n)[0]
        v = _ratio_products(a, b, c, 0.5, x1, n) / (2.0 * np.arange(n) + 1.0)
        half = _ratio_products(0.5, 1.0, 1.0, 1.0, 1.0, n)
        powers = _ratio_products(0.5, 1.0, 1.0, 1.0, x2 / x1, n)
    powers = powers[: np.flatnonzero(powers)[-1] + 1]
    w = (2.0 * np.arange(n) + 1.0) * np.convolve(half, powers)[:n]
    return u, v, w


def hyp2f1_series(a: float, b: float, c: float, x1: float, x2: float = 0.0) -> float:
    """Gauss 2F1(a, b; c; X) of a matrix X with eigenvalues 1 > x1 >= x2 >= 0.

    It needs c > 1/2, or c > 0 when x2 = 0: the scalar series.

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
    if not (1.0 > x1 >= x2 >= 0.0 and (c > 0.5 or (x2 == 0.0 and c > 0.0))):
        raise DomainError(
            f"hyp2f1_series needs 1 > x1 >= x2 >= 0 and c > 1/2 (c > 0 at x2 = 0), got x=({x1}, {x2}), c={c}"
        )
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


def _binet(x):
    # mu(x) = log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2 for x >= 10,
    # by Stirling's series to x^-11; the next term is below 7e-16
    t = 1.0 / (x * x)
    return (1 / 12 - t * (1 / 360 - t * (1 / 1260 - t * (1 / 1680 - t * (1 / 1188 - t * 691 / 360360))))) / x


def _log_gamma_ratio(z, s):
    """log Gamma(z + s) - log Gamma(z) for z, z + s >= 10, elementwise.

    By Stirling's formula with Binet's remainder mu,
    (z - 1/2) log1p(s/z) + s log(z + s) - s + mu(z + s) - mu(z): no term
    is of the size of log Gamma(z) itself, so a ratio near 1 keeps its
    digits where lgamma(z + s) - lgamma(z) would lose them.
    """
    return (z - 0.5) * np.log1p(s / z) + s * np.log(z + s) - s + _binet(z + s) - _binet(z)


def log_hyp1f1_scaled(a: float, b: float, x) -> np.ndarray:
    """log(e^-x 1F1(a; b; x)) for a, b > 0, elementwise over an array of x >= 0.

    e^-x 1F1(a; b; x) = sum_n e^-x x^n / n! * (a)_n / (b)_n is the mean of
    (a)_n / (b)_n under n ~ Poisson(x), a series of positive terms, and
    it is summed as one: a polynomial in Horner form for the x up to
    HYP1F1_HORNER_X (`_log_hyp1f1_horner`), a log-space window around
    the Poisson mode above (`_log_hyp1f1_window`). Each path leaves out
    terms worth at most HYP1F1_RTOL of the sum, by a proved bound.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"log_hyp1f1_scaled needs a, b > 0, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < np.inf)):
        raise DomainError("log_hyp1f1_scaled needs finite x >= 0")
    if x.size == 0 or x.max() <= HYP1F1_HORNER_X:
        return _log_hyp1f1_horner(a, b, x)
    out = np.empty(x.shape)
    small = x <= HYP1F1_HORNER_X
    out[small] = _log_hyp1f1_horner(a, b, x[small])
    out[~small] = _log_hyp1f1_window(a, b, x[~small])
    return out


def _horner_coefficients(a: float, b: float, top: float) -> np.ndarray:
    """Coefficients c_n = (a)_n / ((b)_n n!) of the Horner path at x <= top.

    The term ratio t_(n+1) / t_n = x (a + n) / ((b + n)(n + 1)) is at most
    q = x max(1, (a + N)/(b + N)) / (N + 1) from n = N on, so the terms
    from N on sum to at most t_N / (1 - q). The first N whose bound is
    below HYP1F1_RTOL of the terms before it, at x = top, holds at every
    x <= top: the terms' shares c_n x^n / S(x) are an exponential family
    in log x with statistic n, so the share of the terms from N on only
    grows with x.
    """
    k = np.arange(400.0)  # far more terms than any x <= HYP1F1_HORNER_X needs at |a - b| <= 10
    ratio = (a + k) / ((b + k) * (k + 1.0))
    terms = np.cumprod(np.concatenate(([1.0], ratio * top)))
    partial = np.cumsum(terms)
    n = k[1:]
    q = top * np.maximum(1.0, (a + n) / (b + n)) / (n + 1.0)
    with np.errstate(divide="ignore"):
        ok = (q < 1.0) & (terms[1:-1] / (1.0 - q) <= HYP1F1_RTOL * partial[:-2])
    if not ok.any():
        raise CapExceeded(f"1F1({a}; {b}; {top}) needs more than {k.size} Horner terms")
    count = int(np.argmax(ok)) + 1
    coeffs = np.cumprod(np.concatenate(([1.0], ratio[: count - 1])))
    if not coeffs[-1] >= np.finfo(float).tiny:
        raise CapExceeded(f"1F1({a}; {b}; x) Horner coefficients underflow")
    return coeffs


def _log_hyp1f1_horner(a: float, b: float, x: np.ndarray) -> np.ndarray:
    # sum_(n<N) c_n x^n, innermost coefficient first; every step adds
    # positive numbers, so the relative error stays within 2N units
    coeffs = _horner_coefficients(a, b, float(x.max()) if x.size else 0.0)
    acc = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    out = np.log(acc, out=acc)
    out -= x
    return out


def _log_hyp1f1_window(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The x > HYP1F1_HORNER_X path of `log_hyp1f1_scaled`.

    Around m = floor(x), the Poisson weights w_n and the ratios
    r_n = (a)_n / (b)_n are accumulated in log space from their steps,
    log(x / (n + 1)) and log1p((a - b) / (b + n)), out to n = m +- J,
    so no term is formed from numbers of the size of log n!. The sum is
    r_m sum w_n (r_n / r_m) / sum w_n, the weights normalized over the
    window, and log r_m comes from `_log_gamma_ratio` (b + m >= 50).
    What the window leaves out is bounded by geometric tails: the terms
    w_n r_n past n_hi = m + J have ratio at most
    q = x max(1, (a + n_hi)/(b + n_hi)) / (n_hi + 1) and the w_n alone
    x / (n_hi + 1); below n_lo = m - J the w_n shrink by at most n_lo / x
    per step, and r_n there is at most max(r_0, r_lo), r_n being monotone.
    The relative errors of the two sums add up, and J, first
    HYP1F1_WINDOW sqrt(x) + 8, doubles until they are below HYP1F1_RTOL
    for every x. Rows go through in batches of about _WINDOW_CELLS terms.
    """
    log_ab = _log_gamma_ratio(b, a - b) if min(a, b) >= 10.0 else lgamma(a) - lgamma(b)
    out = np.empty(x.shape)
    half = int(ceil(HYP1F1_WINDOW * sqrt(float(x.max())))) + 8
    rows = max(1, _WINDOW_CELLS // (2 * half + 1))
    for lo in range(0, x.size, rows):
        part, width = x[lo : lo + rows], half
        while True:
            got, ok = _window_sums(a, b, part, width, log_ab)
            if ok:
                break
            width *= 2
        out[lo : lo + rows] = got
    return out


def _window_sums(a, b, x, half, log_ab):
    # log of the window's estimate for every x, and whether every tail
    # bound holds, over the 2 * half + 1 terms n = floor(x) + j
    m = np.floor(x)
    j = np.arange(-half, half + 1.0)
    n = m[:, None] + j
    below = n < 0.0
    k = np.maximum(n[:, :-1], 0.0)
    step_w = np.log1p((x[:, None] - (k + 1.0)) / (k + 1.0))
    step_t = step_w + np.log1p((a - b) / (b + k))
    log_w = np.zeros(n.shape)
    log_t = np.zeros(n.shape)
    for log_v, step in ((log_w, step_w), (log_t, step_t)):
        np.cumsum(step[:, half:], axis=1, out=log_v[:, half + 1 :])
        np.cumsum(-step[:, half - 1 :: -1], axis=1, out=log_v[:, half - 1 :: -1])
        log_v[below] = -np.inf
    sum_w = np.exp(log_w).sum(axis=1)
    sum_t = np.exp(log_t).sum(axis=1)
    log_rm = _log_gamma_ratio(b + m, a - b) - log_ab
    out = log_rm + np.log(sum_t) - np.log(sum_w)
    # tails past n_hi
    hi = n[:, -1]
    rho = x / (hi + 1.0)
    q = x * np.maximum(1.0, (a + hi) / (b + hi)) / (hi + 1.0)
    with np.errstate(divide="ignore"):
        err = np.exp(log_w[:, -1]) * rho / (1.0 - rho) / sum_w
        err += np.where(q < 1.0, np.exp(log_t[:, -1]) * q / (1.0 - q), np.inf) / sum_t
    # tails below n_lo, where the window does not reach n = 0
    lo = n[:, 0]
    cut = lo > 0.0
    if cut.any():
        rho_lo = lo[cut] / x[cut]
        tail_w = np.exp(log_w[cut, 0]) * rho_lo / (1.0 - rho_lo)
        r_lo = np.maximum(log_t[cut, 0] - log_w[cut, 0], -log_rm[cut])
        err[cut] += tail_w / sum_w[cut] + tail_w * np.exp(r_lo) / sum_t[cut]
    return out, bool(np.all(err <= HYP1F1_RTOL))


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
