"""Symmetric-matrix primitives and block partitioning.

All matrices are dense, real and symmetric, held as plain numpy arrays.
``as_symmetric`` is the single entry point that validates shape and
symmetrizes exactly; every public operation routes its input through it.
Dimensions are expected to stay small (tens, not thousands), so clarity
wins over blocked algorithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isfinite
from numbers import Real

import numpy as np

from .errors import IndexOutOfRange, NotPositiveDefinite, SingularPivot

__all__ = [
    "BlockSpec",
    "as_real",
    "as_symmetric",
    "is_nonnegative_definite",
    "is_positive_definite",
    "sqrt_pd",
    "sym_eigenvalues",
    "block_view",
    "block_cholesky",
    "schur_complement",
    "direct_sum",
]


def as_real(val, what: str = "value") -> float:
    """`val` as a float; ValueError naming `what` unless it is a finite real number (not a bool)."""
    if isinstance(val, Real) and not isinstance(val, bool):
        try:
            if isfinite(val):
                return float(val)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a finite real number, got {val!r}")


def as_symmetric(a, tol: float = 1e-8) -> np.ndarray:
    """Return an exactly symmetric float copy of a square matrix.

    Parameters
    ----------
    a : array_like
        Square matrix. Asymmetry up to ``tol`` (relative to the largest
        entry) is repaired by averaging with the transpose; anything
        larger is rejected.
    tol : float
        Relative asymmetry tolerance.

    Raises
    ------
    ValueError
        If `a` is not square or not symmetric within `tol`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > tol * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class BlockSpec:
    """Partition of ``{0, ..., total-1}`` into contiguous diagonal blocks.

    ``sizes[i]`` is the side length of block ``i``; blocks are indexed
    0-based in order of appearance along the diagonal.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 1 or any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive integers, got {self.sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def d(self) -> int:
        """Number of blocks."""
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Total dimension covered by the partition."""
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        return (0, *accumulate(self.sizes))

    def range(self, i: int) -> slice:
        """Index slice of block `i`; raises IndexOutOfRange outside 0..d-1."""
        if not 0 <= i < self.d:
            raise IndexOutOfRange(f"block index {i} outside 0..{self.d - 1}")
        off = self.offsets
        return slice(off[i], off[i + 1])


def block_view(S, spec: BlockSpec, i: int, j: int) -> np.ndarray:
    """Sub-block ``S[i, j]`` of a partitioned matrix (copy)."""
    S = np.asarray(S, dtype=float)
    if S.shape != (spec.total, spec.total):
        raise ValueError(f"matrix shape {S.shape} does not match partition total {spec.total}")
    return S[spec.range(i), spec.range(j)].copy()


def is_positive_definite(S, tol: float = 1e-12) -> bool:
    """Whether `S` is positive definite at a relative pivot tolerance.

    Runs a diagonally pivoted Cholesky sweep; the matrix passes iff every
    pivot exceeds ``tol`` times the largest original diagonal entry. The
    relative threshold keeps the answer invariant under ``S -> c*S``.
    """
    A = as_symmetric(S).copy()
    n = A.shape[0]
    dmax = A.diagonal().max()
    if dmax <= 0.0:
        return False
    thresh = tol * dmax
    for k in range(n):
        j = k + int(np.argmax(A.diagonal()[k:]))
        if A[j, j] <= thresh:
            return False
        if j != k:
            A[[k, j], :] = A[[j, k], :]
            A[:, [k, j]] = A[:, [j, k]]
        v = A[k + 1 :, k]
        A[k + 1 :, k + 1 :] -= np.outer(v, v) / A[k, k]
    return True


def is_nonnegative_definite(S, tol: float = 1e-10) -> bool:
    """Whether the least eigenvalue of `S` is at least ``-tol`` times its largest entry (or 1)."""
    S = as_symmetric(S)
    return float(np.linalg.eigvalsh(S)[0]) >= -tol * max(1.0, float(np.abs(S).max()))


def sqrt_pd(S) -> np.ndarray:
    """Symmetric positive definite square root of a positive definite matrix."""
    S = as_symmetric(S)
    lam, V = np.linalg.eigh(S)
    if lam[0] <= 0.0:
        raise NotPositiveDefinite(f"matrix is not positive definite (min eigenvalue {lam[0]:.3e})")
    Q = (V * np.sqrt(lam)) @ V.T
    return (Q + Q.T) / 2.0


def sym_eigenvalues(S) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending."""
    return np.linalg.eigvalsh(as_symmetric(S))[::-1]


def block_cholesky(S, spec: BlockSpec) -> np.ndarray:
    """Block lower-triangular factor M with S = M M^T and symmetric PD diagonal blocks.

    Classic block Cholesky, except each diagonal factor is the symmetric
    square root of its Schur complement rather than a triangular factor.
    1x1 blocks fall out of the same code path.

    Raises
    ------
    NotPositiveDefinite
        If some leading Schur complement block is not positive definite.
    """
    S = as_symmetric(S)
    if S.shape != (spec.total, spec.total):
        raise ValueError(f"matrix shape {S.shape} does not match partition total {spec.total}")
    d = spec.d
    M = np.zeros_like(S)
    for j in range(d):
        rj = spec.range(j)
        C = S[rj, rj].copy()
        for k in range(j):
            C -= M[rj, spec.range(k)] @ M[rj, spec.range(k)].T
        Mjj = sqrt_pd(C)
        M[rj, rj] = Mjj
        Mjj_inv = np.linalg.inv(Mjj)
        for i in range(j + 1, d):
            ri = spec.range(i)
            C = S[ri, rj].copy()
            for k in range(j):
                C -= M[ri, spec.range(k)] @ M[rj, spec.range(k)].T
            M[ri, rj] = C @ Mjj_inv
    return M


def _gather(spec: BlockSpec, blocks) -> np.ndarray:
    idx = []
    for b in blocks:
        r = spec.range(b)
        idx.extend(range(r.start, r.stop))
    return np.asarray(idx, dtype=int)


def schur_complement(S, spec: BlockSpec, keep, pivot) -> np.ndarray:
    """Schur complement S_kk - S_kp S_pp^{-1} S_pk over block index sets.

    `keep` and `pivot` are disjoint sequences of block indices; the result
    is indexed in `keep` order.
    """
    S = as_symmetric(S)
    if S.shape != (spec.total, spec.total):
        raise ValueError(f"matrix shape {S.shape} does not match partition total {spec.total}")
    keep = list(keep)
    pivot = list(pivot)
    if not keep or not pivot:
        raise ValueError("keep and pivot must both be non-empty")
    if set(keep) & set(pivot):
        raise ValueError("keep and pivot must be disjoint")
    ki = _gather(spec, keep)
    pi = _gather(spec, pivot)
    Spp = S[np.ix_(pi, pi)]
    Spk = S[np.ix_(pi, ki)]
    try:
        X = np.linalg.solve(Spp, Spk)
    except np.linalg.LinAlgError as exc:
        raise SingularPivot(f"pivot block is singular: {exc}") from None
    # LU succeeds on nearly singular input; catch that with a residual check.
    resid = np.abs(Spp @ X - Spk).max()
    if not np.isfinite(resid) or resid > 1e-8 * max(1.0, np.abs(Spk).max()):
        raise SingularPivot("pivot block is numerically singular")
    out = S[np.ix_(ki, ki)] - S[np.ix_(ki, pi)] @ X
    return (out + out.T) / 2.0


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal direct sum of square matrices (two or more)."""
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if not mats:
        raise ValueError("direct_sum needs at least one block")
    out = np.zeros(tuple(map(sum, zip(*(m.shape for m in mats)))))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out
