"""Inequality checks: statistical verdicts for every bound in the library.

Each check validates its inputs and computes what it can in closed form,
then hands one driver, `_mc_verdicts`, a draw callback of k Monte Carlo
columns and a map from their joint estimate to the two sides of each of
its verdicts. The driver runs one estimator on the next stream of the
check's StreamPlan and classifies every comparison as Holds / Violated /
Inconclusive through the z-score of its margin. A split statement
E[L R] >= E[L] E[R] takes L and R as columns of that one sample and the
stderr of its margin from their joint co-moments; a check that takes a
sequence of splits reads every split off the same draws. Streams go out
in call order (a calibration pilot, the estimator, then any rerun), so
one scale matrix uses one plan whatever the number of splits.

Control variates: the sandwich, conj11, opp_lower and opp_upper draw
through `product_columns` with ``controls=True``. When the statement
has a 1x1 block coupled to the rest, that estimator conditions on it:
it draws the other rows only and every column carries the block's
conditional moment E[X_jj^h | rest], a noncentral chi-square moment, in
place of X_jj^h. Otherwise, when an exponent is inverted, it is tilted:
it samples W(alpha - 2c, Sigma) and weights every column by K |X|^c,
which leaves each mean unchanged and keeps inverse minors bounded. It
adds a column for every single block and every pair of blocks whose
smaller block is at most 2x2 and whose closed-form moment
(`pair_moment` for a pair) has a finite variance under that estimator,
and the tilt weight, of mean exactly 1. `_mc_verdicts` reads every side
off `JointEstimate.controlled`, the same draws regressed on those exactly
known means; each such verdict records the tilt c under ``tilt``, the
1-based conditioned block (or None) under ``conditioned``, and the
control groups and the plain / controlled margin-variance ratio under
``controls``. When every column is a control (two blocks, one of them
at most 2x2), the verdict is exact and nothing is drawn. The Bernstein
pair and the radial moment ratio are closed forms and never draw.

Rerun rule: any Violated verdict, proved or not, is a candidate Monte
Carlo false positive. The driver then runs the estimator once more at
10x the sample size on fresh streams and replaces only the candidates'
verdicts, each recording its first n and z under ``candidate_rerun``. A
proved statement is thus reported Violated only when two independent
passes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import exp, gamma, hypot, inf, lgamma, log, log1p, prod

import numpy as np

from .errors import (
    DegenerateEvent,
    DegenerateVariance,
    DivergentIntegral,
    DomainError,
    UpperBoundUnavailable,
)
from .bounds import integral_window, log_minor_bound_integral
from .linalg import as_real, as_symmetric, block_cholesky, direct_sum, is_nonnegative_definite, schur_complement
from .montecarlo import (
    ExponentVector,
    JointEstimate,
    MCEstimate,
    PowerProducts,
    as_plan,
    column_block,
    mc_mean,
    mc_probability,  # noqa: F401  (perfbench/layers.py traces the estimators bound here)
    product_columns,
)
from .special import _binet, log_mvgamma
from .wishart import WishartModel, _sample_batch, _sub_blocks, factor_eigvals, factor_logdet
from .wishart import laplace_transform, log_minor_moment, sphere_batch

__all__ = [
    "STATEMENTS",
    "InequalityVerdict",
    "verdict_from",
    "proved_status",
    "lt_order_gap",
    "gpi_sandwich",
    "product_moment_conjecture_check",
    "tail_probability_conjecture_check",
    "eigen_gpi_check",
    "BernsteinSpec",
    "bernstein_pair_check",
    "opposite_gpi_lower",
    "opposite_gpi_upper",
    "RadialSpec",
    "radial_moment_ratio",
    "elliptical_gpi_check",
]

_LOG_2 = log(2.0)

# Registered one-line description per inequality id; report rows must
# carry these strings verbatim.
STATEMENTS = {
    "lt_order": "Laplace transform with the full scale matrix dominates the block-diagonal split at every nonnegative block-diagonal argument",
    "sandwich": "split product of inverse-minor moments <= joint inverse-minor moment <= factored integral upper bound",
    "conj11": "joint product moment of principal minors dominates the product of marginal minor moments",
    "conj36": "joint probability that every minor is below its threshold dominates the split product of group probabilities",
    "opp_lower": "joint moment with one inverted minor dominates the shrink-factored product of marginal moments",
    "opp_upper": "joint moment with inverted minors and one upright minor is at most the decoupled product",
    "bernstein": "expected product of increasing exponential-mixture functionals over two blocks dominates its independent-blocks value",
    "eigen": "ordered-eigenvalue power product moment dominates the split product of eigenvalue group moments",
    "elliptical": "sphere-projected absolute-power product ratio dominates the radial moment ratio",
}


def proved_status(inequality_id: str, d: int, block_sizes, radial: RadialSpec | None = None) -> str:
    """Whether the inequality is proved, open, or conditional for this shape.

    The elliptical variant is a theorem only in the Gaussian case at
    d <= 2: a chi-square radial with d degrees of freedom. Any other
    radial, a chi-square of another dof included, turns it into a claim
    about that specific elliptical law, which can genuinely fail.
    """
    if inequality_id in ("lt_order", "sandwich", "opp_upper", "bernstein", "eigen"):
        return "proved"
    if inequality_id == "conj11":
        return "proved" if d <= 2 else "open"
    if inequality_id == "conj36":
        return "proved" if all(int(p) == 1 for p in block_sizes) else "open"
    if inequality_id == "opp_lower":
        return "proved" if d <= 2 else "conditional"
    if inequality_id == "elliptical":
        gaussian = radial is not None and radial.kind == "chisq" and radial.dof in (None, d)
        return "proved" if d <= 2 and gaussian else "open"
    raise KeyError(f"unknown inequality id {inequality_id!r}")


@dataclass(frozen=True, eq=False)
class InequalityVerdict:
    """Outcome of one inequality comparison.

    ``margin`` is oriented so that positive means the inequality is
    satisfied; ``z = margin / margin stderr`` (+-inf for exact-vs-exact
    comparisons). ``status`` records whether the statement is proved,
    open, or conditional for the instance shape.
    """

    verdict: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    margin: float
    z: float
    z_threshold: float
    direction: str
    statement: str = ""
    status: str = "proved"
    n: int = 0
    detail: dict = field(default_factory=dict)


def _as_estimate(x) -> MCEstimate:
    if isinstance(x, MCEstimate):
        return x
    return MCEstimate.exact(float(x))


def verdict_from(
    lhs,
    rhs,
    direction: str = ">=",
    z_threshold: float = 3.0,
    statement: str = "",
    status: str = "proved",
    detail: dict | None = None,
    margin_se: float | None = None,
) -> InequalityVerdict:
    """Classify `lhs direction rhs` from two estimates (or exact scalars).

    The margin's stderr is `margin_se` when given, as it must be when the
    two sides come from one sample; otherwise the sides are independent
    and their stderrs pool. Holds needs a nonnegative oriented margin at
    least z_threshold margin stderrs wide; Violated needs the margin
    negative by the same width; everything else is Inconclusive. A zero
    margin stderr (exact-vs-exact) uses a tolerance of 1e-10 of the larger
    side, relative only, so sides of any scale compare alike, and the
    z = +-inf convention.
    """
    if direction not in (">=", "<="):
        raise ValueError(f"direction must be '>=' or '<=', got {direction!r}")
    a, b = _as_estimate(lhs), _as_estimate(rhs)
    margin = a.mean - b.mean if direction == ">=" else b.mean - a.mean
    se = _margin_se(a, b, margin_se)
    if se == 0.0:
        tol = 1e-10 * max(abs(a.mean), abs(b.mean))
        ok = margin >= -tol
        z = inf if ok else -inf
        word = "Holds" if ok else "Violated"
    else:
        z = margin / se
        if margin >= 0.0 and z >= z_threshold:
            word = "Holds"
        elif z <= -z_threshold:
            word = "Violated"
        else:
            word = "Inconclusive"
    return InequalityVerdict(
        verdict=word,
        lhs=a.mean,
        lhs_se=a.stderr,
        rhs=b.mean,
        rhs_se=b.stderr,
        margin=margin,
        z=z,
        z_threshold=float(z_threshold),
        direction=direction,
        statement=statement,
        status=status,
        n=max(a.n, b.n),
        detail={} if detail is None else dict(detail),
    )


def _margin_se(lhs, rhs, margin_se) -> float:
    # The stderr a verdict reads: margin_se when the sides share a sample,
    # otherwise the pooled stderrs of independent sides.
    if margin_se is not None:
        return float(margin_se)
    return hypot(_as_estimate(lhs).stderr, _as_estimate(rhs).stderr)


def _mc_verdicts(
    ineq: str, status: str, draw, k: int, sides, n: int, plan, z_threshold: float, product=None
) -> dict:
    """Every verdict of one check, keyed as `sides` keys them, from one estimator.

    ``draw(generator, m)`` returns an (m, k) array; ``sides(est, n)`` maps
    the JointEstimate of n draws to ``{key: (direction, lhs, rhs,
    margin_se, detail)}``, with margin_se None for independent sides. The
    estimator takes the next stream of `plan`; k = 0 draws nothing and
    takes none. `product`, the `ProductColumns` that `draw` and k come
    from, brings control variates: `sides` then reads
    `JointEstimate.controlled`, and each detail records the tilt c under
    ``tilt``, the 1-based conditioned block (or None) under
    ``conditioned`` and, under ``controls``, the control groups (1-based
    blocks; [] is the tilt weight) and the plain / controlled
    margin-variance ratio. When every column is a control, the sides are
    exact: nothing is drawn, no stream is taken, and every side reads
    n = 1 and stderr 0. The rerun rule of the module docstring applies to
    the Violated keys.
    """
    controls = product.controls if product is not None else {}
    means = {j: mu for j, (_, mu) in controls.items()}
    groups = [[i + 1 for i in blocks] for blocks, _ in controls.values()]
    exact = k > 0 and len(means) == k

    def once(n_eff):
        if exact:
            est = JointEstimate(np.array([means[j] for j in range(k)]), np.zeros((k, k)), 1)
        elif k:
            est = mc_mean(draw, n_eff, plan.allocate(), columns=k)
        else:
            est = JointEstimate(np.zeros(0), np.zeros((0, 0)), n_eff)
        got = sides(est.controlled(means), n_eff)
        if product is not None:
            plain = sides(est, n_eff)
            for key, (direction, lhs, rhs, margin_se, detail) in got.items():
                was, se = _margin_se(*plain[key][1:4]), _margin_se(lhs, rhs, margin_se)
                ratio = (was / se) ** 2 if se else (inf if was else 1.0)
                detail = {
                    **detail,
                    "tilt": product.tilt,
                    "conditioned": None if product.conditioned is None else product.conditioned + 1,
                    "controls": {"groups": groups, "variance_ratio": ratio},
                }
                got[key] = (direction, lhs, rhs, margin_se, detail)
        return {
            key: verdict_from(
                lhs, rhs, direction, z_threshold, STATEMENTS[ineq], status, detail, margin_se
            )
            for key, (direction, lhs, rhs, margin_se, detail) in got.items()
        }

    first = once(int(n))
    candidates = [key for key, v in first.items() if v.verdict == "Violated"]
    if not candidates:
        return first
    confirm = once(10 * int(n))
    for key in candidates:
        v = confirm[key]
        rerun = {"first_n": int(n), "first_z": first[key].z}
        first[key] = replace(v, detail={**v.detail, "candidate_rerun": rerun})
    return first


def _split_sides(est: JointEstimate, joint, left, right, scale: float = 1.0):
    """E[joint] and scale * E[left] * E[right], all from one sample.

    Each factor is a column of `est` (None: the exact constant 1).
    Returns the two sides as estimates and the delta-method stderr of
    their difference, with gradient (1, -scale E[right], -scale E[left])
    on the joint co-moments, so the correlation between the sides counts.
    """
    lhs = est.column(joint)
    a, b = est.column(left).mean, est.column(right).mean
    g_rhs = scale * (est.unit(left, b) + est.unit(right, a))
    rhs = MCEstimate(scale * a * b, est.stderr(g_rhs), est.n)
    return lhs, rhs, est.stderr(est.unit(joint) - g_rhs)


def _sides_by_split(est: JointEstimate, ks, triples, detail) -> dict:
    # The >= sides of each split k from its (joint, left, right) columns.
    return {k: (">=", *_split_sides(est, *t), detail(k)) for k, t in zip(ks, triples)}


def _split_list(splits, top: int) -> list[int]:
    # The distinct splits of a check, in order; each must lie in 2..top.
    ks = list(dict.fromkeys(int(k) for k in splits))
    if not ks:
        raise ValueError("need at least one split")
    for k in ks:
        if not 2 <= k <= top:
            raise ValueError(f"split k must be in 2..{top}, got {k}")
    return ks


def _split_groups(d: int, k: int) -> tuple[range, range]:
    # Split convention: k in {2, ..., d}; first group is blocks 1..k-1,
    # second is k..d (1-based), i.e. 0-based index ranges below.
    if not 2 <= k <= d:
        raise ValueError(f"split k must be in 2..{d}, got {k}")
    return range(k - 1), range(k - 1, d)


def _joint_and_split_groups(d: int, ks) -> list[range]:
    # All d indices, then the two groups of each split in turn.
    groups = [range(d)]
    for k in ks:
        groups += _split_groups(d, k)
    return groups


def _split_triples(index, count: int) -> list[tuple]:
    # (joint, left, right) columns of each split, from the column index of
    # the groups laid out by _joint_and_split_groups.
    return [(index[0], index[1 + 2 * j], index[2 + 2 * j]) for j in range(count)]


def split_model(model: WishartModel, k: int) -> WishartModel:
    """The model with cross-covariances across the split at k zeroed out.

    Block margins are untouched; only the coupling between the two block
    groups is removed.
    """
    _split_groups(model.d, k)
    cut = model.spec.offsets[k - 1]
    sigma_star = model.sigma.copy()
    sigma_star[:cut, cut:] = 0.0
    sigma_star[cut:, :cut] = 0.0
    return WishartModel(model.alpha, sigma_star, model.spec)


def lt_order_gap(model: WishartModel, k: int, t_blocks) -> float:
    """Exact Laplace-transform gap between the model and its split at k.

    `t_blocks` holds one nonnegative definite matrix per block; the
    transform argument is their direct sum. Returns E etr(-T X) minus
    the same expectation under the split scale matrix; nonnegative for
    every valid input, and exactly zero when the scale matrix is already
    block-diagonal across the split or when every argument block is zero.
    """
    if len(t_blocks) != model.d:
        raise ValueError(f"expected {model.d} argument blocks, got {len(t_blocks)}")
    blocks = []
    for i, t in enumerate(t_blocks):
        t = as_symmetric(t)
        if t.shape[0] != model.spec.sizes[i]:
            raise ValueError(f"argument block {i} has size {t.shape[0]}, expected {model.spec.sizes[i]}")
        if not is_nonnegative_definite(t):
            raise DomainError(f"argument block {i} is not nonnegative definite")
        blocks.append(t)
    T = direct_sum(*blocks)
    lhs = laplace_transform(model, T)
    rhs = laplace_transform(split_model(model, k), T)
    return lhs - rhs


def gpi_sandwich(
    model: WishartModel,
    exps: ExponentVector,
    splits,
    n: int,
    rng,
    z_threshold: float = 3.0,
    bounds: tuple[str, ...] = ("lower", "upper"),
    override_finiteness: bool = False,
) -> dict[tuple[int, str], InequalityVerdict]:
    """Two-sided check on the joint inverse-minor moment E prod |X_ii|^(-nu_i).

    Lower: at each split k in `splits` (each in {2, ..., d}) the joint
    moment dominates the product of the two split-group moments. The
    joint moment and every split's group moments are columns of one
    sample, and each margin's stderr comes from their joint co-moments.
    Upper: the joint moment (the same estimate) is at most
    prod_i 2^(p_i alpha/2) / Gamma_{p_i}(nu_i) * I(M_ii), with M the
    block Cholesky factor of the scale matrix and I the closed-form
    bound integral. The upper bound does not depend on k: it is computed
    once and reported at every split.

    Returns verdicts keyed by (split, side), splits in order and the
    lower side first. Raises UpperBoundUnavailable when some nu_i falls
    outside its integral convergence window, and InfiniteMoment when a
    moment is not guaranteed finite unless `override_finiteness` allows
    Unknown.
    """
    if any(s != -1 for s in exps.signs):
        raise ValueError("the sandwich applies to all-inverted exponents (every sign -1)")
    ks = _split_list(splits, model.d)
    lower = ks if "lower" in bounds else []
    groups = _joint_and_split_groups(model.d, lower)
    cols = product_columns(model, exps, groups, override_finiteness, controls=True)
    triples = _split_triples(cols.index, len(lower))
    upper = None
    if "upper" in bounds:
        M = block_cholesky(model.sigma, model.spec)
        log_bound = 0.0
        rules = []
        for i in range(model.d):
            p_i = model.spec.sizes[i]
            nu_i = exps.values[i]
            ri = model.spec.range(i)
            try:
                log_bound += (
                    0.5 * p_i * model.alpha * _LOG_2
                    - log_mvgamma(p_i, nu_i)
                    + log_minor_bound_integral(M[ri, ri], model.alpha, nu_i)
                )
            except (DomainError, DivergentIntegral) as err:
                raise UpperBoundUnavailable(
                    f"block {i} (size {p_i}): nu={nu_i} unusable for the integral bound: {err}"
                ) from None
            rules.append(integral_window(p_i, model.alpha)[2])
        upper = exp(log_bound)

    def sides(est, _n):
        low = _sides_by_split(
            est, lower, triples, lambda k: {"side": "lower", "split": k, "shared_splits": ks}
        )
        out = {}
        for k in ks:
            if k in low:
                out[k, "lower"] = low[k]
            if upper is not None:
                detail = {"side": "upper", "window_rules": rules, "shared_splits": ks}
                out[k, "upper"] = ("<=", est.column(cols.index[0]), upper, None, detail)
        return out

    return _mc_verdicts("sandwich", "proved", cols.draw, cols.k, sides, n, as_plan(rng), z_threshold, cols)


def product_moment_conjecture_check(
    model: WishartModel,
    exps: ExponentVector,
    n: int,
    rng,
    z_threshold: float = 3.0,
) -> InequalityVerdict:
    """E prod |X_ii|^{nu_i} >= prod E |X_ii|^{nu_i} for nonnegative powers.

    The right side is the fully split product, available in closed form:
    iterating the two-group split at every k refines down to it, so it
    is the strongest decoupled bound and makes the comparison one-sided
    Monte Carlo. Neither side depends on a split point, so one verdict
    serves every split. Proved for d <= 2, otherwise an open conjecture
    (Violated candidates re-run at 10x n).
    """
    if any(s != 1 for s in exps.signs):
        raise ValueError("the product-moment conjecture takes nonnegative powers (all signs +1)")
    if model.d < 2:
        raise ValueError("need at least two blocks")
    status = proved_status("conj11", model.d, model.spec.sizes)
    cols = product_columns(model, exps, [range(model.d)], controls=True)
    rhs = exp(sum(log_minor_moment(model, i, v) for i, v in enumerate(exps.values)))

    def sides(est, _n):
        return {None: (">=", est.column(cols.index[0]), rhs, None, {})}

    return _mc_verdicts("conj11", status, cols.draw, cols.k, sides, n, as_plan(rng), z_threshold, cols)[None]


def tail_probability_conjecture_check(
    model: WishartModel,
    thresholds,
    splits,
    n: int,
    rng,
    z_threshold: float = 3.0,
) -> dict[int, InequalityVerdict]:
    """P(all minors below thresholds) >= split product of group probabilities.

    With ``thresholds=None`` each threshold is calibrated to marginal
    probability 1/2 from one pilot run of n/10 draws (per-block medians
    of the minor determinants; a 500-draw floor keeps tiny-n medians
    usable). The joint event and both groups of every split in `splits`
    are indicator columns of one sample. Returns verdicts keyed by
    split. Proved when every block is scalar, otherwise open. Raises
    DegenerateEvent when an estimated probability hits 0 or 1.
    """
    ks = _split_list(splits, model.d)
    status = proved_status("conj36", model.d, model.spec.sizes)
    plan = as_plan(rng)
    slices = [model.spec.range(i) for i in range(model.d)]
    if thresholds is None:
        pilot = max(int(n) // 10, 500)
        A = _sample_batch(model, plan.allocate().generator(), pilot).full()
        thresholds = tuple(float(np.median(np.exp(factor_logdet(A, sl)))) for sl in slices)
    else:
        thresholds = tuple(float(t) for t in thresholds)
        if len(thresholds) != model.d:
            raise ValueError(f"expected {model.d} thresholds, got {len(thresholds)}")
        if any(t <= 0 for t in thresholds):
            raise ValueError("thresholds must be positive")

    log_t = [log(t) for t in thresholds]
    # no two of these groups coincide, so each is its own column
    groups = _joint_and_split_groups(model.d, ks)
    triples = _split_triples(range(len(groups)), len(ks))

    def draw(gen, m):
        out = column_block(len(groups), m)
        for draws, A in _sample_batch(model, gen, m):
            below = [factor_logdet(A, sl) <= lt for sl, lt in zip(slices, log_t)]
            for row, g in zip(out, groups):
                row[draws] = np.all([below[i] for i in g], axis=0)
        return out.T

    def sides(est, _n):
        return _sides_by_split(
            est, ks, triples, lambda k: {"thresholds": thresholds, "split": k, "shared_splits": ks}
        )

    try:
        return _mc_verdicts("conj36", status, draw, len(groups), sides, n, plan, z_threshold)
    except DegenerateVariance:
        raise DegenerateEvent("event probability estimated at 0 or 1; thresholds degenerate") from None


def eigen_gpi_check(
    model: WishartModel,
    nus,
    splits,
    n: int,
    rng,
    z_threshold: float = 3.0,
    fns=None,
) -> dict[int, InequalityVerdict]:
    """E prod L_i^{nu_i} >= split product over the ordered eigenvalues L_1 >= ... >= L_p.

    All expectations are Monte Carlo (ordered eigenvalues admit no
    product closed form), taken from one set of ordered eigenvalues per
    draw (closed form up to 3 x 3, see `factor_eigvals`). The split at
    k in {2, ..., p} separates eigenvalue positions 1..k-1 from k..p
    (1-based); every split in `splits` reads its three expectations off
    the same sample, and the result holds one verdict per split. A group
    whose powers are all zero is the exact constant 1. Passing
    ``fns=(g, h)`` checks the general increasing-functional form
    E g(L_left) h(L_right) >= E g * E h instead: each callable maps a
    (w, group size) array of ordered eigenvalues to w nonnegative
    values, and `nus` is ignored. The callables see the draws in
    sub-blocks of at most a few thousand rows, not a chunk at once, so
    each value must depend on its own row only.
    """
    p = model.p
    ks = _split_list(splits, p)

    if fns is not None:
        g, h = fns
        # three columns per split: g h, g, h
        index, k_cols = [(3 * j, 3 * j + 1, 3 * j + 2) for j in range(len(ks))], 3 * len(ks)

        def draw(gen, m):
            out = column_block(k_cols, m)
            for draws, A in _sample_batch(model, gen, m):
                lam = factor_eigvals(A)
                for j, k in enumerate(ks):
                    gv = np.asarray(g(lam[:, : k - 1]), dtype=float)
                    hv = np.asarray(h(lam[:, k - 1 :]), dtype=float)
                    for vals in (gv, hv):
                        if vals.shape != (len(lam),) or np.any(vals < 0):
                            raise ValueError("eigenvalue functionals must map to m nonnegative values")
                    out[3 * j : 3 * j + 3, draws] = gv * hv, gv, hv
            return out.T

        variant = "increasing-functional"
    else:
        nus = tuple(float(v) for v in nus)
        if len(nus) != p:
            raise ValueError(f"need one exponent per eigenvalue ({p}), got {len(nus)}")
        if any(v < 0 for v in nus):
            raise ValueError(f"eigenvalue exponents must be >= 0, got {nus}")
        cols = PowerProducts(nus, _joint_and_split_groups(p, ks))
        index, k_cols = _split_triples(cols.index, len(ks)), cols.k

        def draw(gen, m):
            out = column_block(k_cols, m)
            for draws, A in _sample_batch(model, gen, m):
                lam = factor_eigvals(A)
                cols.columns({i: np.log(lam[:, i]) for i in cols.used}, out[:, draws])
            return out.T

        variant = "power"

    def sides(est, _n):
        return _sides_by_split(
            est, ks, index, lambda k: {"split": k, "variant": variant, "shared_splits": ks}
        )

    return _mc_verdicts("eigen", "proved", draw, k_cols, sides, n, as_plan(rng), z_threshold)


@dataclass(frozen=True)
class BernsteinSpec:
    """Increasing functional T -> tr(A) + sum_j c_j (1 - etr(-T S_j)).

    A is nonnegative definite, every weight c_j is positive and every
    site S_j positive definite; all matrices share one dimension.
    """

    trace_offset: np.ndarray
    atoms: tuple[tuple[float, np.ndarray], ...] = ()

    def __post_init__(self):
        A = as_symmetric(self.trace_offset)
        if not is_nonnegative_definite(A):
            raise DomainError("trace offset must be nonnegative definite")
        A.setflags(write=False)
        atoms = []
        for c, S in self.atoms:
            c = as_real(c, "atom weight")
            if c <= 0.0:
                raise DomainError(f"atom weight must be positive, got {c}")
            S = as_symmetric(S)
            if S.shape != A.shape:
                raise ValueError("atom site dimension differs from the trace offset")
            if float(np.linalg.eigvalsh(S)[0]) <= 0.0:
                raise DomainError("atom sites must be positive definite")
            S.setflags(write=False)
            atoms.append((c, S))
        object.__setattr__(self, "trace_offset", A)
        object.__setattr__(self, "atoms", tuple(atoms))

    @property
    def dim(self) -> int:
        return self.trace_offset.shape[0]

    def expectation(self, block_model: WishartModel) -> float:
        """Exact E f(X) for X from `block_model`, via its Laplace transform."""
        if block_model.p != self.dim:
            raise ValueError("model dimension differs from the functional's")
        val = float(np.trace(self.trace_offset))
        for c, S in self.atoms:
            val += c * (1.0 - laplace_transform(block_model, S))
        return val


def bernstein_pair_check(
    model: WishartModel,
    f: BernsteinSpec,
    g: BernsteinSpec,
    z_threshold: float = 3.0,
) -> InequalityVerdict:
    """E f(X_11) g(X_22) >= E f(X*_11) E g(X*_22) on a two-block model, exactly.

    Write f = a - sum_j c_j etr(-X_11 S_j) with a = tr(A_f) + sum_j c_j,
    and g = b - sum_k d_k etr(-X_22 T_k) likewise. Both sides expand into
    Laplace transforms, and the single-block terms agree because the
    split keeps the block margins, so
    lhs - rhs = sum_jk c_j d_k lt_order_gap(model, 2, [S_j, T_k]),
    a nonnegative sum (zero when either functional has no atoms). The
    right side comes from the standalone block transforms.
    """
    if model.d != 2:
        raise ValueError(f"this check needs exactly 2 blocks, model has {model.d}")
    if f.dim != model.spec.sizes[0] or g.dim != model.spec.sizes[1]:
        raise ValueError("functional dimensions must match the two block sizes")
    rhs = f.expectation(model.standalone(0)) * g.expectation(model.standalone(1))
    gap = sum((c * d * lt_order_gap(model, 2, [S, T]) for c, S in f.atoms for d, T in g.atoms), 0.0)
    return verdict_from(
        rhs + gap, rhs, ">=", z_threshold, STATEMENTS["bernstein"], "proved", {"gap": gap}
    )


def opposite_gpi_lower(
    model: WishartModel,
    nus,
    n: int,
    rng,
    z_threshold: float = 3.0,
    override_finiteness: bool = False,
) -> InequalityVerdict:
    """One inverted minor against upright minors, bounded below.

    `nus` holds positive magnitudes; the first block enters inverted:
    E(|X_11|^{-nu_1} prod_{i>=2} |X_ii|^{nu_i}) >=
    prod_{i>=2} |I - P_i^T P_i|^{nu_i} * E|X_11|^{-nu_1} * prod E|X_ii|^{nu_i},
    where |I - P_i^T P_i| = |Sigma_ii - Sigma_i1 Sigma_11^{-1} Sigma_1i| / |Sigma_ii|
    shrinks each marginal by its coupling with block 1. The right side
    is fully closed-form. Proved at d = 2, conditional on the
    product-moment conjecture for d >= 3.
    """
    if model.d < 2:
        raise ValueError("need at least two blocks")
    nus = tuple(float(v) for v in nus)
    if len(nus) != model.d or any(v <= 0 for v in nus):
        raise ValueError("need one positive magnitude per block")
    exps = ExponentVector.from_signed((-nus[0],) + nus[1:])
    # refuse before touching the closed form so infeasible exponents fail
    # the same way on both sides of the comparison
    cols = product_columns(model, exps, [range(model.d)], override_finiteness, controls=True)
    status = proved_status("opp_lower", model.d, model.spec.sizes)
    log_rhs = log_minor_moment(model, 0, -nus[0])
    for i in range(1, model.d):
        log_rhs += log_minor_moment(model, i, nus[i])
        shrunk = schur_complement(model.sigma, model.spec, keep=[i], pivot=[0])
        log_shrink = (
            float(np.linalg.slogdet(shrunk)[1])
            - float(np.linalg.slogdet(model.sigma_block(i))[1])
        )
        log_rhs += nus[i] * log_shrink
    rhs = exp(log_rhs)

    def sides(est, _n):
        return {None: (">=", est.column(cols.index[0]), rhs, None, {})}

    return _mc_verdicts("opp_lower", status, cols.draw, cols.k, sides, n, as_plan(rng), z_threshold, cols)[None]


def opposite_gpi_upper(
    model: WishartModel,
    nus,
    n: int,
    rng,
    z_threshold: float = 3.0,
    override_finiteness: bool = False,
) -> InequalityVerdict:
    """Inverted leading minors with one upright trailing minor, bounded above.

    `nus` holds positive magnitudes; every block but the last enters
    inverted: E(prod_{i<d} |X_ii|^{-nu_i} * |X_dd|^{nu_d}) <=
    E(prod_{i<d} |X_ii|^{-nu_i}) * E(|X_dd|^{nu_d}). The two Monte Carlo
    factors are columns of one sample, so the margin's stderr comes from
    their joint co-moments; the upright marginal is exact.
    """
    if model.d < 2:
        raise ValueError("need at least two blocks")
    nus = tuple(float(v) for v in nus)
    if len(nus) != model.d or any(v <= 0 for v in nus):
        raise ValueError("need one positive magnitude per block")
    exps = ExponentVector.from_signed(tuple(-v for v in nus[:-1]) + (nus[-1],))
    cols = product_columns(
        model, exps, [range(model.d), range(model.d - 1)], override_finiteness, controls=True
    )
    upright = exp(log_minor_moment(model, model.d - 1, nus[-1]))

    def sides(est, _n):
        return {None: ("<=", *_split_sides(est, *cols.index[:2], None, scale=upright), {})}

    return _mc_verdicts("opp_upper", "proved", cols.draw, cols.k, sides, n, as_plan(rng), z_threshold, cols)[None]


@dataclass(frozen=True)
class RadialSpec:
    """Distribution of the squared radial factor R of an elliptical vector.

    kind "chisq" (param: dof), "point" (param: value > 0), or
    "lognormal" (params: mu, sigma of log R).
    """

    kind: str
    dof: float | None = None
    value: float | None = None
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("chisq", "point", "lognormal"):
            raise ValueError(f"unknown radial kind {self.kind!r}")
        for name in ("dof", "value", "mu", "sigma"):
            val = getattr(self, name)
            if val is not None or name in ("mu", "sigma"):
                as_real(val, f"radial {name}")
        if self.kind == "chisq" and not (self.dof is None or self.dof > 0):
            raise ValueError("chisq dof must be positive")
        if self.kind == "point" and not (self.value is not None and self.value > 0):
            raise ValueError("point mass needs a positive value")
        if self.kind == "lognormal" and not self.sigma >= 0:
            raise ValueError("lognormal sigma must be >= 0")

    def scaled(self, factor: float) -> "RadialSpec":
        """Spec of factor * R; the moment ratio is invariant under this."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.kind == "chisq":
            raise NotImplementedError("scaled chi-square is not in the radial family")
        if self.kind == "point":
            return RadialSpec("point", value=self.value * factor)
        return RadialSpec("lognormal", mu=self.mu + log(factor), sigma=self.sigma)


def radial_moment_ratio(rspec: RadialSpec, alphas, d: int) -> float:
    """Q_R = prod_i E(R^{alpha_i}) / E(R^{alpha}), exact for every radial law.

    Zero exponents contribute E R^0 = 1 and are dropped first, so at most
    one nonzero exponent gives exactly 1 (the numerator is the
    denominator). A point mass gives 1; chi-square(dof), dof = d by
    default, a gamma ratio; lognormal, with E R^a = exp(a mu + a^2 s^2 / 2),
    exp(-s^2 sum_{i<j} a_i a_j), independent of mu. Q_R <= 1 for all three.
    """
    alphas = tuple(float(a) for a in alphas)
    if any(a < 0 for a in alphas):
        raise ValueError(f"exponents must be >= 0, got {alphas}")
    active = [a for a in alphas if a != 0.0]
    if rspec.kind == "point" or len(active) < 2:
        return 1.0
    if rspec.kind == "chisq":
        # the 2^a factors of E R^a cancel between numerator and
        # denominator, leaving the pure gamma ratio; it is at most 1 by
        # log-convexity of Gamma, and rounding puts it up to a few
        # thousand ulps above 1 when every exponent is tiny (d = 32,
        # each 3e-11), so it is capped there
        dof = rspec.dof if rspec.dof is not None else float(d)
        return min(_gamma_moment_ratio(dof / 2.0, active), 1.0)
    cross = done = 0.0
    for a in active:
        cross += a * done
        done += a
    # sigma = 0 is a point mass, and would meet an infinite cross sum as 0 * inf
    return exp(-(rspec.sigma * rspec.sigma) * cross) if rspec.sigma else 1.0


def _gamma_moment_ratio(h: float, alphas) -> float:
    # prod_i Gamma(h + a_i) / [Gamma(h + sum a) Gamma(h)^(len-1)]; linear
    # scale while no partial product can overflow, log space beyond.
    # Gamma is log-convex, so on [h, h + sum a] |log Gamma| is at most its
    # value at an end or at the minimum near 1.46, which is below 0.13.
    total = sum(alphas)
    if len(alphas) * max(abs(lgamma(h)), abs(lgamma(h + total)), 0.13) < 700.0:
        return prod(gamma(h + a) for a in alphas) / (
            gamma(h + total) * gamma(h) ** (len(alphas) - 1)
        )
    if h < 10.0:
        return exp(
            sum(lgamma(h + a) for a in alphas)
            - lgamma(h + total)
            - (len(alphas) - 1) * lgamma(h)
        )
    # From h = 10 on, lgamma(h) grows like h log h, and differences of such
    # terms lose the digits of a ratio near 1. Each factor is taken as
    # log Gamma(h + a) - log Gamma(h) - a log h
    #   = (h + a - 1/2) log1p(a/h) - a + mu(h + a) - mu(h),
    # with mu Binet's remainder; the a log h cancel across the ratio.
    def shift(a):
        return (h + a - 0.5) * log1p(a / h) - a + _binet(h + a) - _binet(h)

    return exp(sum(shift(a) for a in alphas) - shift(total))


def elliptical_gpi_check(
    A,
    alphas,
    rspec: RadialSpec,
    n: int,
    rng,
    z_threshold: float = 3.0,
) -> InequalityVerdict:
    """Sphere-product ratio against the radial moment ratio.

    With X = A U for U uniform on the sphere, compares
    E(prod |X_i|^{2 alpha_i}) / prod E(|X_i|^{2 alpha_i}) >= Q_R. The left
    side involves only the sphere: its numerator and denominators are
    columns of one sample, and its stderr is the delta method on their
    co-moments. The radial law enters only through Q_R, which is exact.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d) or not np.allclose(A, np.tril(A)) or np.any(np.diag(A) <= 0):
        raise ValueError("A must be lower-triangular with a positive diagonal")
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) != d or any(a < 0 for a in alphas):
        raise ValueError("need one exponent >= 0 per coordinate")
    status = proved_status("elliptical", d, (1,) * d, rspec)
    q = radial_moment_ratio(rspec, alphas, d)
    active = [i for i in range(d) if alphas[i] != 0.0]
    cols = PowerProducts([2.0 * a for a in alphas], [active] + [[i] for i in active])
    num, dens = cols.index[0], cols.index[1:]

    def draw(gen, m):
        out = column_block(cols.k, m)
        for draws in _sub_blocks(m):
            X = sphere_batch(gen, draws.stop - draws.start, d) @ A.T
            cols.columns({i: np.log(np.abs(X[:, i])) for i in cols.used}, out[:, draws])
        return out.T

    def sides(est, _n):
        if len(active) < 2:
            # one active coordinate: the numerator is its own denominator
            lhs = MCEstimate.exact(1.0)
        else:
            ratio = est.mean[num] / np.prod(est.mean[dens])
            grad = est.unit(num, ratio / est.mean[num])
            for j in dens:
                grad -= est.unit(j, ratio / est.mean[j])
            lhs = MCEstimate(float(ratio), est.stderr(grad), est.n)
        # Q_R underflows to 0 for a spread enough radial law
        detail = {"q_r": q, "lhs_over_q": lhs.mean / q if q else inf}
        return {None: (">=", lhs, q, None, detail)}

    # the sphere estimator draws only when two coordinates are active
    k = cols.k if len(active) > 1 else 0
    return _mc_verdicts("elliptical", status, draw, k, sides, n, as_plan(rng), z_threshold)[None]
