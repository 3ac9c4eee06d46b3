"""Wishart model: sampling, density, Laplace transform, minor moments.

The scale matrix is partitioned into diagonal blocks by a BlockSpec; the
degrees-of-freedom parameter alpha is real with alpha > p - 1. Sampling
uses the Bartlett factorization, which stays valid for non-integer alpha.

The batch sampler returns the factors, not the matrices. It draws a
batch's variates up front, in the fixed order of the stream, into
per-thread scratch, and hands back a FactorStream that builds A = L B
sub-block by sub-block: _SUB_DRAWS draws at a time, each a lower
triangular (p, p, w) array with the draw index last, so that each entry
is one contiguous row across draws. A sub-block is one GEMM and stays in
cache while a functional reads it; the draws, and every bit of every
factor, are those of one GEMM over the whole batch. The factor_* kernels
read Monte Carlo functionals off a factor block without forming or
decomposing the p x p matrices:

- factor_logdet: a leading block's log-determinant is 2 sum log A_jj
  with A_jj = L_jj B_jj; a 1x1 block is log sum_k A_ik^2; a 2x2 block is
  a c - b^2 where that does not cancel (at least _DET_GUARD * a c), else
  slogdet; larger blocks use slogdet of the block's Gram matrix.
- factor_eigvals: descending eigenvalues, closed form at p <= 2 and by
  O. K. Smith's trigonometric method at p = 3 (CACM 4(4), 1961), with
  near-repeated or ill-conditioned draws (_GAP_GUARD, _COND_GUARD) and
  every p > 3 going through eigvalsh.
- factor_gram / factor_matrices: Gram blocks as (b, b, m) arrays, and
  the full draws as (m, p, p) matrices.

Scratch ownership: the variates, each factor block and the Monte Carlo
column blocks built from them live in buffers that belong to the calling
thread and are reused by its next batch (see `_scratch`). A view of them
is valid until the next draw on the same thread, so nothing may draw
inside a draw.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from math import exp, log, pi, prod

import numpy as np

from .errors import DomainError, NotPositiveDefinite
from .linalg import BlockSpec, as_symmetric, block_view, is_positive_definite, sqrt_pd
from .special import hyp2f1_series, log_mvgamma

__all__ = [
    "RngStream",
    "WishartModel",
    "sample",
    "factor_gram",
    "factor_matrices",
    "factor_logdet",
    "factor_eigvals",
    "log_density",
    "laplace_transform",
    "log_laplace_transform",
    "minor_moment",
    "log_minor_moment",
    "pair_moment",
    "PAIR_BLOCK_CAP",
    "log_det_moment",
    "random_correlation",
    "sphere_batch",
]

_LOG_2 = log(2.0)
# `pair_moment` has a closed form when the smaller block has at most this
# many rows, so that P^2 has at most two eigenvalues.
PAIR_BLOCK_CAP = 2
# Share of a c below which a 2x2 determinant a c - b^2 goes through slogdet.
_DET_GUARD = 1e-4
# Relative eigenvalue gap and inverse condition below which a 3x3 draw
# goes through eigvalsh instead of the trigonometric closed form.
_GAP_GUARD = 1e-2
_COND_GUARD = 1e-3
# Draws per sub-block of a FactorStream, and of the sphere and radial
# estimators. At p = 5 a 4096-draw block of B and of A is 800 KiB each,
# so both stay in a 2 MiB L2 while a functional reads them. Measured on
# 4-chunk estimators (one BLAS thread, Xeon with 2 MiB L2 per core), 4096
# to 8192 draws was fastest at p = 2, 3, 5 and 10; 1024 cost 25-40% more
# at p = 2 and 3, and 16384 cost 5-10% more at p = 5 and 10.
_SUB_DRAWS = 4096
# Scratch buffers above this many doubles (32 MiB) are allocated fresh
# and not kept, so one large pilot or `sample` call is not retained.
_SCRATCH_KEEP = 1 << 22
_thread_scratch = threading.local()


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_id).

    Streams with different ids are statistically independent and cheap to
    construct, which lets estimators be reproduced exactly from the pair
    of integers alone.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= int(v) < 2**64:
                raise ValueError(f"{name} must fit in uint64, got {v}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class WishartModel:
    """Wishart distribution on p x p matrices with a block partition.

    Parameters
    ----------
    alpha : float
        Degrees of freedom; must exceed ``p - 1``.
    sigma : array_like
        Positive definite p x p scale matrix.
    spec : BlockSpec, optional
        Diagonal block partition; defaults to a single p x p block.
    """

    alpha: float
    sigma: np.ndarray
    spec: BlockSpec = None  # type: ignore[assignment]

    def __post_init__(self):
        sigma = as_symmetric(self.sigma)
        p = sigma.shape[0]
        if not is_positive_definite(sigma):
            raise NotPositiveDefinite("scale matrix must be positive definite")
        if not self.alpha > p - 1:
            raise DomainError(f"alpha must exceed p - 1 = {p - 1}, got {self.alpha}")
        spec = self.spec if self.spec is not None else BlockSpec((p,))
        if spec.total != p:
            raise ValueError(f"block partition covers {spec.total} rows, matrix has {p}")
        sigma.setflags(write=False)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "spec", spec)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    @property
    def d(self) -> int:
        return self.spec.d

    @cached_property
    def _chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma)

    @cached_property
    def _sqrt_sigma(self) -> np.ndarray:
        return sqrt_pd(self.sigma)

    @cached_property
    def _logdet_sigma(self) -> float:
        return float(np.linalg.slogdet(self.sigma)[1])

    def sigma_block(self, i: int) -> np.ndarray:
        """Diagonal block Sigma_ii."""
        return block_view(self.sigma, self.spec, i, i)

    def standalone(self, i: int) -> "WishartModel":
        """Model of the i-th diagonal block alone: same alpha, scale Sigma_ii."""
        return WishartModel(self.alpha, self.sigma_block(i))


def _scratch(name: str, shape) -> np.ndarray:
    """This thread's float64 buffer `name`, viewed as `shape`; contents undefined.

    The buffer is kept for the next call with the same name on the same
    thread, which overwrites it, so the view is valid only until then.
    It grows to the largest request and is never shrunk; requests above
    _SCRATCH_KEEP doubles get a fresh array that is not kept.
    """
    size = prod(shape)
    if size > _SCRATCH_KEEP:
        return np.empty(shape)
    buf = getattr(_thread_scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_thread_scratch, name, buf)
    return buf[:size].reshape(shape)


def _sub_blocks(m: int) -> list[slice]:
    """Consecutive slices of at most _SUB_DRAWS draws covering range(m)."""
    return [slice(lo, min(lo + _SUB_DRAWS, m)) for lo in range(0, m, _SUB_DRAWS)]


class FactorStream:
    """m Bartlett factors A = L B, built from drawn variates one sub-block at a time.

    Iterating yields ``(draws, A)``: a slice of draw indices and their
    factors as a lower-triangular (p, p, w) array, draw index last. A is
    per-thread scratch, overwritten by the next sub-block; the variates
    are per-thread scratch too, valid until the next `_sample_batch` on
    the same thread. `full` gathers every block into one fresh array.
    """

    def __init__(self, chol: np.ndarray, normals: np.ndarray, chi: np.ndarray):
        self._chol = chol
        self._normals = normals
        self._chi = chi

    @property
    def m(self) -> int:
        return self._chi.shape[1]

    def __iter__(self):
        L = self._chol
        p = L.shape[0]
        rows, cols = np.tril_indices(p, k=-1)
        diag = np.arange(p)
        for draws in _sub_blocks(self.m):
            w = draws.stop - draws.start
            B = _scratch("factor_b", (p, p, w))
            B[cols, rows] = 0.0
            B[rows, cols] = self._normals[draws].T
            B[diag, diag] = self._chi[:, draws]
            A = _scratch("factor_a", (p, p, w))
            np.matmul(L, B.reshape(p, p * w), out=A.reshape(p, p * w))
            yield draws, A

    def full(self) -> np.ndarray:
        """All m factors as one fresh (p, p, m) array."""
        p = self._chol.shape[0]
        out = np.empty((p, p, self.m))
        for draws, A in self:
            out[:, :, draws] = A
        return out


def _sample_batch(model: WishartModel, gen: np.random.Generator, m: int) -> FactorStream:
    """The variates of m Bartlett factors A = L B, as a FactorStream.

    L is the Cholesky factor of the scale matrix and B lower triangular
    with standard normals below the diagonal and chi variables on it, so
    A is lower triangular and A[:, :, s] A[:, :, s]^T is the s-th
    Wishart draw.

    The generator is consumed here, in a fixed order: all subdiagonal
    normals as an (m, p(p-1)/2) array in C order, then the chi-square
    diagonals from the top left down, m at a time. A draw therefore
    depends only on the stream, never on the sub-block size or on
    surrounding code.
    """
    p = model.p
    normals = _scratch("normals", (m, p * (p - 1) // 2))
    if normals.size:
        gen.standard_normal(out=normals)
    chi = _scratch("chi", (p, m))
    for i in range(p):
        gen.standard_gamma((model.alpha - i) / 2.0, out=chi[i])
    # Generator.gamma(k, 2.0) is 2.0 * standard_gamma(k), bit for bit
    chi *= 2.0
    np.sqrt(chi, out=chi)
    return FactorStream(model._chol, normals, chi)


def factor_gram(A: np.ndarray, rows: slice | None = None) -> np.ndarray:
    """Diagonal block X[rows, rows] of X = A A^T for a (p, p, m) factor.

    Returns a (b, b, m) array, exactly symmetric; each entry sums only
    the columns where both lower-triangular rows are nonzero.
    """
    lo, hi = (0, A.shape[0]) if rows is None else (rows.start, rows.stop)
    G = np.empty((hi - lo, hi - lo, A.shape[2]))
    for i in range(hi - lo):
        for j in range(i + 1):
            k = lo + j + 1
            G[i, j] = G[j, i] = np.einsum("km,km->m", A[lo + i, :k], A[lo + j, :k])
    return G


def factor_matrices(A: np.ndarray) -> np.ndarray:
    """The (m, p, p) Wishart draws A A^T of a (p, p, m) factor."""
    return np.ascontiguousarray(factor_gram(A).transpose(2, 0, 1))


def factor_logdet(A: np.ndarray, rows: slice) -> np.ndarray:
    """log|X[rows, rows]| per draw for X = A A^T, as an (m,) array.

    A leading block is 2 sum log A_jj, the Bartlett diagonal L_jj B_jj,
    and a 1x1 block the log of its Gram entry. A 2x2 block is a c - b^2
    unless that falls below _DET_GUARD * a c, where cancellation would
    cost digits; those draws, and every larger block, go through slogdet.
    """
    lo, hi = rows.start, rows.stop
    if lo == 0:
        diag = A[np.arange(hi), np.arange(hi)]
        return 2.0 * np.log(diag).sum(axis=0)
    G = factor_gram(A, rows)
    if hi - lo == 1:
        return np.log(G[0, 0])
    if hi - lo > 2:
        return np.linalg.slogdet(G.transpose(2, 0, 1))[1]
    ac = G[0, 0] * G[1, 1]
    det = ac - G[0, 1] * G[0, 1]
    ok = det > _DET_GUARD * ac
    out = np.log(det, out=np.empty_like(det), where=ok)
    if not ok.all():
        out[~ok] = np.linalg.slogdet(G[:, :, ~ok].transpose(2, 0, 1))[1]
    return out


def factor_eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of X = A A^T per draw, descending, as an (m, p) array.

    p = 1 and p = 2 are closed form. p = 3 uses the trigonometric
    solution of O. K. Smith (CACM 4(4), 1961); draws whose relative
    eigenvalue gap is below _GAP_GUARD or whose condition exceeds
    1/_COND_GUARD, where the arccos loses digits, go through eigvalsh,
    as do all p > 3.
    """
    p = A.shape[0]
    if p > 3:
        return np.linalg.eigvalsh(factor_matrices(A))[:, ::-1]
    if p == 1:
        return (A[0, 0] ** 2)[:, None]
    G = factor_gram(A)
    if p == 2:
        # the small root as |X| / top, with |X| = (A_00 A_11)^2 free of cancellation
        half = (G[0, 0] + G[1, 1]) / 2.0
        top = half + np.hypot(G[0, 0] - half, G[0, 1])
        return np.column_stack((top, (A[0, 0] * A[1, 1]) ** 2 / top))
    q = (G[0, 0] + G[1, 1] + G[2, 2]) / 3.0
    d0, d1, d2 = G[0, 0] - q, G[1, 1] - q, G[2, 2] - q
    x01, x02, x12 = G[0, 1], G[0, 2], G[1, 2]
    rad = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (x01 * x01 + x02 * x02 + x12 * x12)) / 6.0)
    # |X - qI| / (2 rad^3) = cos(3 phi); the roots are q + 2 rad cos(phi + 2 pi k / 3).
    # A vanishing rad yields a zero gap below, so those draws fall back.
    with np.errstate(divide="ignore", invalid="ignore"):
        half_det = (
            d0 * (d1 * d2 - x12 * x12) - x01 * (x01 * d2 - x12 * x02) + x02 * (x01 * x12 - d1 * x02)
        ) / (2.0 * rad**3)
        phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    top = q + 2.0 * rad * np.cos(phi)
    low = q + 2.0 * rad * np.cos(phi + 2.0 * pi / 3.0)
    mid = 3.0 * q - top - low
    ok = (np.minimum(top - mid, mid - low) > _GAP_GUARD * top) & (low > _COND_GUARD * top)
    lam = np.column_stack((top, mid, low))
    if not ok.all():
        lam[~ok] = np.linalg.eigvalsh(G[:, :, ~ok].transpose(2, 0, 1))[:, ::-1]
    return lam


def sample(model: WishartModel, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Draw from the model; one (p, p) matrix, or (size, p, p) when size given."""
    gen = rng.generator()
    if size is None:
        return factor_matrices(_sample_batch(model, gen, 1).full())[0]
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return factor_matrices(_sample_batch(model, gen, int(size)).full())


def log_density(model: WishartModel, X) -> float:
    """Log density at a positive definite matrix X.

    (alpha - p - 1)/2 * log|X| - tr(Sigma^'-1' X)/2 minus the normalizer
    p*alpha/2*log 2 + alpha/2*log|Sigma| + log Gamma_p(alpha/2). Rejects
    non-PD input instead of returning -inf.
    """
    X = as_symmetric(X)
    p = model.p
    if X.shape[0] != p:
        raise ValueError(f"matrix is {X.shape[0]}x{X.shape[0]}, model is {p}x{p}")
    if not is_positive_definite(X):
        raise DomainError("log_density requires a positive definite argument")
    logdet_x = float(np.linalg.slogdet(X)[1])
    quad = float(np.trace(np.linalg.solve(model.sigma, X)))
    alpha = model.alpha
    return (
        0.5 * (alpha - p - 1) * logdet_x
        - 0.5 * quad
        - 0.5 * p * alpha * _LOG_2
        - 0.5 * alpha * model._logdet_sigma
        - log_mvgamma(p, alpha / 2.0)
    )


def log_laplace_transform(model: WishartModel, T) -> float:
    """log E[etr(-T X)] = -alpha/2 * log|I + 2 T Sigma|.

    Valid iff T + Sigma^-1/2 is positive definite; computed through the
    congruent matrix I + 2 Sigma^{1/2} T Sigma^{1/2} so that the domain
    check and the log-determinant use one symmetric eigenproblem.
    """
    T = as_symmetric(T)
    if T.shape[0] != model.p:
        raise ValueError("argument dimension does not match the model")
    S = model._sqrt_sigma
    W = np.eye(model.p) + 2.0 * S @ T @ S
    lam = np.linalg.eigvalsh((W + W.T) / 2.0)
    if lam[0] <= 0.0:
        raise DomainError("Laplace transform undefined: T + Sigma^-1/2 not positive definite")
    return -0.5 * model.alpha * float(np.sum(np.log(lam)))


def laplace_transform(model: WishartModel, T) -> float:
    """E[etr(-T X)] = |I + 2 T Sigma|^(-alpha/2)."""
    return exp(log_laplace_transform(model, T))


def log_det_moment(alpha: float, p: int, logdet_sigma: float, nu: float) -> float:
    """log E(|X|^nu) for X Wishart(alpha, Sigma) with p = dim, |Sigma| given.

    Equals p*nu*log 2 + nu*log|Sigma| + log Gamma_p(alpha/2 + nu)
    - log Gamma_p(alpha/2); finite iff nu > (p-1)/2 - alpha/2.
    """
    if not nu > (p - 1) / 2.0 - alpha / 2.0:
        raise DomainError(
            f"determinant moment diverges: need nu > {(p - 1) / 2.0 - alpha / 2.0}, got {nu}"
        )
    return (
        p * nu * _LOG_2
        + nu * logdet_sigma
        + log_mvgamma(p, alpha / 2.0 + nu)
        - log_mvgamma(p, alpha / 2.0)
    )


def log_minor_moment(model: WishartModel, i: int, nu: float) -> float:
    """log E(|X_ii|^nu) for the i-th diagonal block of a model draw."""
    sigma_ii = model.sigma_block(i)
    logdet = float(np.linalg.slogdet(sigma_ii)[1])
    return log_det_moment(model.alpha, sigma_ii.shape[0], logdet, nu)


def minor_moment(model: WishartModel, i: int, nu: float) -> float:
    """E(|X_ii|^nu): closed-form moment of a principal minor determinant."""
    return exp(log_minor_moment(model, i, nu))


def pair_moment(model: WishartModel, i: int, j: int, h: float, k: float) -> float:
    """E(|X_ii|^h |X_jj|^k) for two diagonal blocks, the smaller at most PAIR_BLOCK_CAP x PAIR_BLOCK_CAP.

    With s the smaller block (s = i on a tie) and o the other, let P^2 be
    the squared canonical correlations between them: the eigenvalues of
    W^-1 Sigma_so Sigma_oo^-1 Sigma_os W^-T, W = chol(Sigma_ss), clipped
    at 0. Then

        E|X_ii|^h |X_jj|^k = E|X_ii|^h * E|X_jj|^k * 2F1(-h, -k; alpha/2; P^2)

    with 2F1 of matrix argument (Constantine, Ann. Math. Statist. 34,
    1963; Muirhead 1982, Ch. 7), summed by `hyp2f1_series`: one or two
    eigenvalues, since the smaller block has at most two rows. Whether a
    pair qualifies depends on the block sizes alone, never on the rank of
    P^2. Raises DomainError when neither block is small enough or a
    marginal moment diverges, and CapExceeded when the series does not
    converge within its cap.
    """
    sizes = model.spec.sizes
    s, o = (i, j) if sizes[i] <= sizes[j] else (j, i)
    if i == j or sizes[s] > PAIR_BLOCK_CAP:
        raise DomainError(
            f"pair moment needs two distinct blocks, one at most {PAIR_BLOCK_CAP}x{PAIR_BLOCK_CAP}; got {i}, {j}"
        )
    cross = np.linalg.solve(np.linalg.cholesky(model.sigma_block(s)), block_view(model.sigma, model.spec, s, o))
    p2 = cross @ np.linalg.solve(model.sigma_block(o), cross.T)
    x = np.maximum(np.linalg.eigvalsh((p2 + p2.T) / 2.0), 0.0)[::-1]
    series = hyp2f1_series(-h, -k, model.alpha / 2.0, *(float(v) for v in x))
    return exp(log_minor_moment(model, i, h) + log_minor_moment(model, j, k)) * series


def random_correlation(p: int, rng: RngStream, jitter: float = 1e-6) -> np.ndarray:
    """Random full-rank correlation matrix (unit diagonal, PD).

    Normalizes a Gram matrix of p Gaussian vectors in dimension p + 2;
    the jitter bounds the spectrum away from zero.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    gen = rng.generator()
    G = gen.standard_normal((p, p + 2))
    C = G @ G.T + jitter * np.eye(p)
    d = 1.0 / np.sqrt(np.diag(C))
    R = d[:, None] * C * d[None, :]
    np.fill_diagonal(R, 1.0)
    return (R + R.T) / 2.0


def sphere_batch(gen: np.random.Generator, m: int, d: int) -> np.ndarray:
    """m uniform draws on the unit sphere in R^d from `gen`, as an (m, d) array."""
    Z = gen.standard_normal((m, d))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)
