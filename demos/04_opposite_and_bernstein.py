#!/usr/bin/env python3
"""Checks where the exponent signs disagree, plus completely monotone pairs.

Mixing one inverted minor with positive powers flips the direction of
the product inequality depending on which side carries the inversion:
the first-block-inverted form has a lower bound with an explicit
cross-correlation factor, the last-block-inverted form an upper bound.
A separate pairing result covers Bernstein-type functionals of the two
diagonal blocks; both of its sides are finite sums of Laplace
transforms, so that check is exact and the zero-correlation case is an
equality to the last bit.
"""

from __future__ import annotations

import numpy as np

from wishartgpi import (
    BernsteinSpec,
    BlockSpec,
    RngStream,
    WishartModel,
    bernstein_pair_check,
    opposite_gpi_lower,
    opposite_gpi_upper,
    random_correlation,
    schur_complement,
)


def corr2(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


def main() -> int:
    # d=2 scalar blocks: E |X11|^-n1 |X22|^n2 vs the decoupled product
    rho = 0.6
    model = WishartModel(8.0, corr2(rho), BlockSpec((1, 1)))
    nus = (0.8, 1.3)
    v = opposite_gpi_lower(model, nus, n=150_000, rng=RngStream(11))
    print(f"lower (first block inverted): {v.verdict}, status={v.status}")
    print(f"  lhs={v.lhs:.5g} +- {v.lhs_se:.2g}  rhs={v.rhs:.5g}  z={v.z:.2f}")
    # the rhs shrinks the decoupled product by the conditional-variance
    # ratio of block 2 given block 1, here (1 - rho^2)^nu_2
    shrunk = schur_complement(model.sigma, model.spec, keep=[1], pivot=[0])
    factor = (float(shrunk[0, 0]) / model.sigma[1, 1]) ** nus[1]
    print(f"  coupling factor in rhs: (1 - rho^2)^{nus[1]} = {factor:.5g}")

    # at d=2 the upper variant bounds the very same moment from above,
    # so the two checks bracket E |X11|^-0.8 |X22|^1.3 between 2.03 and 3.63
    v = opposite_gpi_upper(model, nus, n=150_000, rng=RngStream(12))
    print(f"upper (same moment, decoupled product on top): {v.verdict}, status={v.status}")
    print(f"  lhs={v.lhs:.5g} +- {v.lhs_se:.2g}  rhs={v.rhs:.5g} +- {v.rhs_se:.2g}  z={v.z:.2f}")

    # larger mixed case with matrix blocks
    spec = BlockSpec((2, 1, 2))
    sigma = random_correlation(5, RngStream(400))
    model5 = WishartModel(12.0, sigma, spec)
    v = opposite_gpi_upper(model5, (0.6, 0.9, 0.5), n=150_000, rng=RngStream(13))
    print(f"\nblocks (2,1,2), leading blocks inverted: exponents (-0.6, -0.9, +0.5)")
    print(f"  {v.verdict} (z={v.z:.2f}, status={v.status})")

    # Bernstein pair: f applied to X11, g to X22, both of the
    # trace-plus-mixture-of-exponentials form. Both sides are finite sums
    # of Laplace transforms, so the check is exact: the margin is a
    # weighted sum of transform gaps, each nonnegative
    f = BernsteinSpec(np.array([[0.5]]), ((1.0, np.array([[0.08]])),))
    g = BernsteinSpec(np.array([[0.3]]), ((2.0, np.array([[0.05]])), (0.5, np.array([[0.2]]))))
    v = bernstein_pair_check(model, f, g)
    print(f"\nBernstein pair at rho=0.6: {v.verdict} (exact, n={v.n})")
    print(f"  E f(X11) g(X22) = {v.lhs:.8g}")
    print(f"  decoupled product = {v.rhs:.8g}, margin {v.detail['gap']:.3e}")

    # at rho=0 every transform gap vanishes: the sides coincide exactly
    model0 = WishartModel(8.0, np.eye(2), BlockSpec((1, 1)))
    v = bernstein_pair_check(model0, f, g)
    print(f"rho=0 margin: {v.margin:+.2e}, {v.verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
