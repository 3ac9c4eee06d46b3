import numpy as np
import pytest

from wishartgpi.errors import IndexOutOfRange, NotPositiveDefinite, SingularPivot
from wishartgpi.linalg import (
    BlockSpec,
    as_symmetric,
    block_cholesky,
    block_view,
    direct_sum,
    is_positive_definite,
    schur_complement,
    sqrt_pd,
    sym_eigenvalues,
)

rng = np.random.default_rng(1234)


def random_pd(p, jitter=0.5):
    G = rng.standard_normal((p, p + 2))
    return G @ G.T + jitter * np.eye(p)


def test_as_symmetric_averages_roundoff():
    a = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
    s = as_symmetric(a)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == pytest.approx(0.5, abs=1e-11)


def test_as_symmetric_rejects_asymmetry_and_shape():
    with pytest.raises(ValueError):
        as_symmetric(np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_symmetric(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_block_spec_offsets_and_ranges():
    spec = BlockSpec((2, 3, 1))
    assert spec.d == 3
    assert spec.total == 6
    assert spec.offsets == (0, 2, 5, 6)
    assert spec.range(1) == slice(2, 5)
    with pytest.raises(IndexOutOfRange):
        spec.range(3)
    with pytest.raises(IndexOutOfRange):
        spec.range(-1)
    with pytest.raises(ValueError):
        BlockSpec((2, 0))


def test_block_view_is_a_copy():
    spec = BlockSpec((1, 2))
    S = random_pd(3)
    v = block_view(S, spec, 1, 1)
    assert np.array_equal(v, S[1:, 1:])
    v[0, 0] = 99.0
    assert S[1, 1] != 99.0


@pytest.mark.parametrize("p", [1, 2, 4, 7])
def test_is_positive_definite_matches_eigenvalue_oracle(p):
    for _ in range(25):
        S = random_pd(p, jitter=0.1)
        assert is_positive_definite(S) == bool(np.linalg.eigvalsh(S)[0] > 0)
        # rank-deficient: project out the top eigenvector
        w, v = np.linalg.eigh(S)
        flat = S - w[0] * np.outer(v[:, 0], v[:, 0])
        sing = flat - (np.linalg.eigvalsh(flat)[0]) * np.eye(p)
        assert not is_positive_definite(sing - 1e-6 * np.eye(p)) or p == 1


def test_is_positive_definite_rejects_indefinite():
    S = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert not is_positive_definite(S)
    assert not is_positive_definite(np.zeros((2, 2)))


def test_sqrt_pd_squares_back():
    for p in (1, 3, 5):
        S = random_pd(p)
        R = sqrt_pd(S)
        assert np.allclose(R @ R, S, atol=1e-10 * np.abs(S).max())
        assert np.allclose(R, R.T)
    with pytest.raises(NotPositiveDefinite):
        sqrt_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sym_eigenvalues_descending():
    S = random_pd(5)
    lam = sym_eigenvalues(S)
    assert all(lam[i] >= lam[i + 1] for i in range(4))
    assert np.allclose(sorted(lam), np.linalg.eigvalsh(S))


def test_block_cholesky_reconstructs_and_is_block_triangular():
    spec = BlockSpec((2, 1, 3))
    S = random_pd(6)
    M = block_cholesky(S, spec)
    assert np.allclose(M @ M.T, S, atol=1e-10 * np.abs(S).max())
    # strictly-upper block rectangles vanish
    assert np.allclose(M[0:2, 2:6], 0.0)
    assert np.allclose(M[2:3, 3:6], 0.0)


def test_block_cholesky_diagonal_blocks_are_schur_roots():
    spec = BlockSpec((2, 2))
    S = random_pd(4)
    M = block_cholesky(S, spec)
    assert np.allclose(M[:2, :2], sqrt_pd(S[:2, :2]))
    schur = S[2:, 2:] - S[2:, :2] @ np.linalg.solve(S[:2, :2], S[:2, 2:])
    assert np.allclose(M[2:, 2:], sqrt_pd(schur), atol=1e-10)


def test_schur_complement_matches_direct_formula():
    spec = BlockSpec((2, 1, 2))
    S = random_pd(5)
    want = S[3:, 3:] - S[3:, :3] @ np.linalg.inv(S[:3, :3]) @ S[:3, 3:]
    got = schur_complement(S, spec, keep=[2], pivot=[0, 1])
    assert np.allclose(got, want, atol=1e-10)


def test_schur_complement_singular_pivot():
    spec = BlockSpec((1, 1))
    S = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularPivot):
        schur_complement(S, spec, keep=[1], pivot=[0])


def test_direct_sum_layout():
    A = np.array([[1.0, 2.0], [2.0, 3.0]])
    B = np.array([[4.0]])
    C = direct_sum(A, B)
    assert C.shape == (3, 3)
    assert np.array_equal(C[:2, :2], A)
    assert C[2, 2] == 4.0
    assert np.count_nonzero(C) == 5
    three = direct_sum(A, B, np.eye(2))
    assert three.shape == (5, 5)
