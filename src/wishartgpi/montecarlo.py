"""Chunked, reproducible Monte Carlo estimation.

Work is split into fixed-size chunks; chunk c of an estimator anchored at
stream id b draws from the Philox stream (seed, b << 32 | c). Chunks run
in order on the calling thread, and each chunk's means and co-moments
are folded in as soon as it is drawn, so the result is a function of
(seed, anchor, n) alone. An estimator may draw several
columns from one sample; their joint co-moments give the stderr of any
smooth function of the column means by the delta method. A StreamPlan
hands out anchor ids so that the estimators inside one experiment never
share a stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import exp, isfinite, sqrt
from typing import Callable

import numpy as np

from .errors import CapExceeded, DegenerateEvent, DegenerateVariance, DomainError, InfiniteMoment
from .wishart import (
    RngStream,
    WishartModel,
    _sample_batch,
    _scratch,
    factor_logdet,
    log_det_moment,
    log_minor_moment,
    pair_moment,
)

__all__ = [
    "CHUNK_DRAWS",
    "MCEstimate",
    "JointEstimate",
    "PowerProducts",
    "ProductColumns",
    "StreamPlan",
    "ExponentVector",
    "column_block",
    "Finiteness",
    "finiteness_classify",
    "mc_mean",
    "mc_probability",
    "mc_product_moment",
    "product_columns",
]

CHUNK_DRAWS = 65536
_BLOCK_SHIFT = 32
# The tilt c stays below this share of (alpha - p + 1)/2, where
# E_alpha |X|^-c, and with it the tilt weight's variance, diverges.
_TILT_CAP = 0.9


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate: sample mean, stderr of the mean, draw count.

    Exact (zero-variance) quantities are represented with stderr 0.
    """

    mean: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.stderr >= 0.0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")

    @classmethod
    def exact(cls, value: float) -> "MCEstimate":
        return cls(float(value), 0.0, 1)


@dataclass(frozen=True, eq=False)
class JointEstimate:
    """Means of k Monte Carlo columns drawn together, with their co-moments.

    ``comoment`` is the k x k sum of centred cross products over all n
    draws, so comoment / (n - 1) is the sample covariance of one draw.
    A column index of None stands for the exact constant 1.
    """

    mean: np.ndarray
    comoment: np.ndarray
    n: int

    def unit(self, j, weight: float = 1.0) -> np.ndarray:
        """`weight` times the gradient of column j's mean (zero for None)."""
        grad = np.zeros(len(self.mean))
        if j is not None:
            grad[j] = weight
        return grad

    def stderr(self, grad) -> float:
        """Delta-method stderr of a function of the means with gradient `grad`."""
        if self.n < 2:
            return 0.0
        g = np.asarray(grad, dtype=float)
        return sqrt(max(float(g @ self.comoment @ g), 0.0) / (self.n - 1) / self.n)

    def column(self, j) -> MCEstimate:
        if j is None:
            return MCEstimate(1.0, 0.0, self.n)
        return MCEstimate(float(self.mean[j]), self.stderr(self.unit(j)), self.n)

    def controlled(self, controls) -> "JointEstimate":
        """The same draws with control variates: ``controls`` maps columns to exact means.

        Every other column Y is regressed on the control columns C
        (Glasserman 2003, section 4.1): its mean becomes
        Ybar - B (Cbar - mu) with B = S_YC S_CC^+, and its co-moments the
        residual S_YY - B S_CY. A control column comes back exactly mu with
        a zero row and column, so a function of control means alone has
        stderr exactly 0. B is solved on the controls' correlation scale
        with a pseudo-inverse, so duplicate or collinear controls are
        harmless.
        """
        if not controls:
            return self
        c = sorted(controls)
        y = [j for j in range(len(self.mean)) if j not in controls]
        mu = np.array([controls[j] for j in c], dtype=float)
        S = self.comoment
        scale = np.sqrt(np.diag(S)[c])
        scale[scale == 0.0] = 1.0
        corr = S[np.ix_(c, c)] / np.outer(scale, scale)
        B = (S[np.ix_(y, c)] / scale) @ np.linalg.pinv(corr, rtol=1e-10, hermitian=True) / scale
        mean = self.mean.copy()
        mean[y] -= B @ (self.mean[c] - mu)
        mean[c] = mu
        residual = S[np.ix_(y, y)] - B @ S[np.ix_(c, y)]
        comoment = np.zeros_like(S)
        comoment[np.ix_(y, y)] = (residual + residual.T) / 2.0
        return JointEstimate(mean, comoment, self.n)


class StreamPlan:
    """Allocates disjoint stream anchors for estimator roles, in call order.

    Anchors are consecutive integers from `base`; an anchor is never
    handed out twice, which is what keeps independently estimated sides
    of a verdict, and a rerun of it, on provably disjoint streams.
    """

    def __init__(self, seed: int, base: int = 0):
        self.seed = int(seed)
        self._base = int(base)
        self._count = 0

    def allocate(self) -> RngStream:
        anchor = self._base + self._count
        if anchor >= 2**_BLOCK_SHIFT:
            raise ValueError("stream anchor space exhausted")
        self._count += 1
        return RngStream(self.seed, anchor)

    @property
    def allocated(self) -> int:
        return self._count


# Stride between anchor namespaces when a bare RngStream is handed to a
# check that needs several internal estimators.
ROLE_STRIDE = 1024


def as_plan(rng: "StreamPlan | RngStream") -> StreamPlan:
    if isinstance(rng, StreamPlan):
        return rng
    return StreamPlan(rng.seed, rng.stream_id * ROLE_STRIDE)


def _chunk_layout(n: int) -> list[tuple[int, int]]:
    n = int(n)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    layout = [(c, CHUNK_DRAWS) for c in range(n // CHUNK_DRAWS)]
    if n % CHUNK_DRAWS:
        layout.append((len(layout), n % CHUNK_DRAWS))
    return layout


def _chunk_stream(anchor: RngStream, c: int) -> RngStream:
    if not anchor.stream_id < 2**_BLOCK_SHIFT:
        raise ValueError("anchor stream id too large to carry a chunk index")
    return RngStream(anchor.seed, (anchor.stream_id << _BLOCK_SHIFT) | c)


def column_block(k: int, m: int) -> np.ndarray:
    """This thread's (k, m) column block, for a draw callback to fill.

    A callback writes column j of its m draws into row j, sub-block by
    sub-block, and returns the transposed (m, k) view, which `mc_mean`
    reduces without a copy. The block is per-thread scratch: the view is
    valid until the next draw on the same thread.
    """
    return _scratch("columns", (k, m))


def mc_mean(draw_values, n: int, rng: RngStream, columns: int | None = None):
    """Mean of ``draw_values(generator, m)`` over n draws, chunked and reproducible.

    `draw_values` must return an (m,) array and consume the generator in a
    deterministic order; the result is an MCEstimate. With ``columns=k``
    it returns an (m, k) array instead, and the result is a JointEstimate
    of the k means and their co-moments (no draws at all when k = 0).
    Chunks run in order on the calling thread, and the returned array
    need only stay valid until the next draw: the transposed view of a
    `column_block` is read in place, so a callback must not itself call
    an estimator or draw (the scratch would be overwritten).
    Chunk co-moments are merged with the pairwise update of Pebay
    (SAND2008-6212), which is the Chan et al. variance fold at k = 1.
    Raises DegenerateVariance when every draw of some column is identical
    (its stderr would be meaningless).
    """
    layout = _chunk_layout(n)
    k = 1 if columns is None else int(columns)
    if k == 0:
        return JointEstimate(np.zeros(0), np.zeros((0, 0)), int(n))
    n_acc, mean_acc, c_acc = 0, np.zeros(k), np.zeros((k, k))
    for c, m in layout:
        gen = _chunk_stream(rng, c).generator()
        v = np.asarray(draw_values(gen, m), dtype=float)
        want = (m,) if columns is None else (m, k)
        if v.shape != want:
            raise ValueError(f"draw_values returned shape {v.shape}, expected {want}")
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("non-finite draw value in Monte Carlo chunk")
        rows = np.ascontiguousarray(v.reshape(m, k).T)
        mb = rows.mean(axis=1)
        dev = np.subtract(rows, mb[:, None], out=_scratch("deviations", (k, m)))
        # Pairwise combine with the running fold, in chunk order.
        delta = mb - mean_acc
        tot = n_acc + m
        mean_acc = mean_acc + delta * m / tot
        c_acc = c_acc + (dev @ dev.T + np.outer(delta, delta) * n_acc * m / tot)
        n_acc = tot
    if n_acc >= 2 and np.any(np.diag(c_acc) == 0.0):
        raise DegenerateVariance("all Monte Carlo draws identical")
    joint = JointEstimate(mean_acc, c_acc, n_acc)
    return joint if columns is not None else joint.column(0)


def mc_probability(draw_indicator, n: int, rng: RngStream) -> MCEstimate:
    """Probability of an event, with the exact binomial stderr.

    ``draw_indicator(generator, m)`` returns an (m,) boolean array, the
    indicator column of one `mc_mean` estimator. Raises DegenerateEvent
    when the estimate is exactly 0 or 1.
    """
    try:
        est = mc_mean(lambda gen, m: np.asarray(draw_indicator(gen, m), dtype=bool), n, rng)
    except DegenerateVariance:
        est = None
    if est is None or est.mean in (0.0, 1.0):
        raise DegenerateEvent("event probability estimated at 0 or 1; thresholds degenerate")
    p = est.mean
    return MCEstimate(p, sqrt(p * (1.0 - p) / est.n), est.n)


@dataclass(frozen=True)
class ExponentVector:
    """Magnitudes and signs of the per-block determinant exponents.

    The moment under study is E prod_i |X_ii|^(signs[i] * values[i]) with
    values[i] finite and >= 0 and signs[i] in {-1, +1}.
    """

    values: tuple[float, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        signs = tuple(int(s) for s in self.signs)
        if len(values) != len(signs):
            raise ValueError("values and signs must have equal length")
        if not all(isfinite(v) and v >= 0 for v in values):
            raise ValueError(f"exponent magnitudes must be finite and >= 0, got {values}")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be -1 or +1, got {signs}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def from_signed(cls, signed) -> "ExponentVector":
        signed = [float(x) for x in signed]
        return cls(
            tuple(abs(x) for x in signed),
            tuple(-1 if x < 0 else 1 for x in signed),
        )

    @property
    def d(self) -> int:
        return len(self.values)

    @property
    def signed(self) -> tuple[float, ...]:
        return tuple(s * v for v, s in zip(self.values, self.signs))


class Finiteness(enum.Enum):
    INFINITE = "Infinite"
    FINITE_GUARANTEED = "FiniteGuaranteed"
    UNKNOWN = "Unknown"


def finiteness_classify(alpha: float, block_sizes, exps: ExponentVector) -> Finiteness:
    """Classify E prod |X_ii|^(+-nu_i) as Infinite / FiniteGuaranteed / Unknown.

    Nonnegative powers are always finite. A negative power nu on a block
    of size p is infinite once nu >= alpha/2 - (p-1)/2; the product is
    guaranteed finite when every negative power sits strictly inside
    ((p-1)/2, alpha/2 - (p-1)/2); in between the classification is Unknown.
    Zero exponents are constant factors and are skipped.
    """
    block_sizes = tuple(int(p) for p in block_sizes)
    if len(block_sizes) != exps.d:
        raise ValueError("block_sizes and exponents must have equal length")
    guaranteed = True
    for p, v, s in zip(block_sizes, exps.values, exps.signs):
        if s > 0 or v == 0.0:
            continue
        hi = alpha / 2.0 - (p - 1) / 2.0
        if v >= hi:
            return Finiteness.INFINITE
        if not v > (p - 1) / 2.0:
            guaranteed = False
    return Finiteness.FINITE_GUARANTEED if guaranteed else Finiteness.UNKNOWN


class PowerProducts:
    """The distinct products prod_{i in g} x_i^powers[i] over index groups g.

    ``index[g]`` is the column of the g-th group, or None when all its
    powers are zero: that product is the exact constant 1. Groups with
    the same nonzero powers share a column. With `weight`, one more
    column, ``weight``, holds the bare shift that `columns` adds to
    every product in log space.
    """

    def __init__(self, powers, groups, weight: bool = False):
        self.supports: list[tuple[tuple[int, float], ...]] = []
        self.index: list[int | None] = []
        for g in groups:
            support = tuple((int(i), float(powers[i])) for i in g if powers[i] != 0.0)
            if support and support not in self.supports:
                self.supports.append(support)
            self.index.append(self.supports.index(support) if support else None)
        self.weight = None
        if weight:
            self.weight = len(self.supports)
            self.supports.append(())

    @property
    def k(self) -> int:
        return len(self.supports)

    @property
    def used(self) -> list[int]:
        """Indices that enter some column."""
        return sorted({i for support in self.supports for i, _ in support})

    def columns(self, logs, out: np.ndarray, shift=None) -> None:
        """Write the k products into the rows of `out`, a (k, w) block.

        ``logs[i]`` is the (w,) array of log x_i for each i in `used`. Each
        product is accumulated in log space, starting from the (w,) log
        factor `shift` when given, and exponentiated once, in place.
        """
        for row, support in zip(out, self.supports):
            if shift is None:
                row.fill(0.0)
            else:
                row[:] = shift
            for i, power in support:
                row += power * logs[i]
            np.exp(row, out=row)


@dataclass(frozen=True, eq=False)
class ProductColumns:
    """The draw callback of `product_columns` and how to read its columns.

    ``draw(generator, m)`` returns an (m, k) array; ``index[g]`` is the
    column of the g-th requested group (None: the exact constant 1);
    ``controls`` maps control columns to ``(blocks, exact mean)``, with
    blocks () for the tilt weight; ``tilt`` is the c of the sampler
    W(alpha - 2c, Sigma), 0 for the plain estimator.
    """

    draw: Callable
    k: int
    index: list
    controls: dict
    tilt: float


def _known_mean(model: WishartModel, exps: ExponentVector, blocks, tilt: float):
    """Exact mean of the product over `blocks` when it may serve as a control.

    It must have a closed form (one block, or a pair with a 1x1 block), and
    its mean and its second moment under the estimator that runs must be
    FiniteGuaranteed. That
    estimator's column is K |X|^c prod |X_ii|^h_i under W(alpha - 2c), so
    its second moment is a constant times E_alpha |X|^c prod |X_ii|^(2 h_i),
    which Fischer's inequality |X| <= prod |X_ii| bounds by the product
    with powers 2 h_i + c on the group's blocks and c on the rest.
    Returns None otherwise.
    """
    h = [exps.signed[i] if i in blocks else 0.0 for i in range(model.d)]
    second = [2.0 * h[i] + tilt for i in range(model.d)]
    for powers in (h, second):
        moment = ExponentVector.from_signed(powers)
        if finiteness_classify(model.alpha, model.spec.sizes, moment) is not Finiteness.FINITE_GUARANTEED:
            return None
    if len(blocks) == 1:
        return exp(log_minor_moment(model, blocks[0], h[blocks[0]]))
    i, j = blocks
    try:
        return pair_moment(model, i, j, h[i], h[j])
    except (DomainError, CapExceeded):
        return None


def product_columns(
    model: WishartModel,
    exps: ExponentVector,
    groups,
    override_finiteness: bool = False,
    controls: bool = False,
) -> ProductColumns:
    """Draw callback for the product moments of several block groups at once.

    ``draw(generator, m)`` samples m Bartlett factors once, reads one
    log-determinant per block off each factor sub-block (`factor_logdet`),
    and returns the (m, k) view of a `column_block` holding
    prod_{i in group} |X_ii|^(signs[i]*values[i]) over the distinct
    groups. Every group is classified for finiteness on its own, and
    anything short of FiniteGuaranteed raises InfiniteMoment unless
    `override_finiteness` allows Unknown.

    Tilt: when a block the groups use enters inverted, the draws come
    from W(alpha - 2c, Sigma) with c the largest inverted magnitude, kept
    below _TILT_CAP (alpha - p + 1)/2, and every column is multiplied by
    K |X|^c with K = E_alpha |X|^-c, in log space (log |X| comes off the
    factor's diagonal). Since E_alpha f = K E_{alpha - 2c} f |X|^c, each
    column keeps its mean, and Fischer's inequality keeps
    prod |X_ii|^(-nu_i) |X|^c bounded as a block goes singular.

    With `controls`, every single block and every pair of blocks with a
    1x1 block whose exact mean qualifies (`_known_mean`) is appended as a
    group, shared with an identical group already asked for, and so is
    the tilt weight K |X|^c, whose mean is exactly 1; ``controls`` of the
    result maps their columns to their exact means, the control variates
    `_mc_verdicts` in `checks` takes. Otherwise it is empty.
    """
    if exps.d != model.d:
        raise ValueError(f"exponents cover {exps.d} blocks, model has {model.d}")
    groups = [tuple(int(i) for i in g) for g in groups]
    for g in groups:
        if len(set(g)) != len(g):
            raise ValueError(f"subset has repeated blocks: {g}")
        for i in g:
            model.spec.range(i)  # raises IndexOutOfRange outside 0..d-1
        if all(exps.signed[i] == 0.0 for i in g):
            continue
        sub = ExponentVector(tuple(exps.values[i] for i in g), tuple(exps.signs[i] for i in g))
        cls = finiteness_classify(model.alpha, [model.spec.sizes[i] for i in g], sub)
        if cls is Finiteness.INFINITE:
            raise InfiniteMoment("requested product moment is provably infinite")
        if cls is Finiteness.UNKNOWN and not override_finiteness:
            raise InfiniteMoment(
                "product moment not guaranteed finite; pass override_finiteness=True to force"
            )
    inverted = [-exps.signed[i] for g in groups for i in g if exps.signed[i] < 0.0]
    tilt = min(max(inverted), _TILT_CAP * (model.alpha - model.p + 1) / 2.0) if inverted else 0.0
    known = {}
    if controls:
        nonzero = [i for i in range(model.d) if exps.signed[i] != 0.0]
        sizes = model.spec.sizes
        pairs = [(i, j) for i in nonzero for j in nonzero if i < j and 1 in (sizes[i], sizes[j])]
        for blocks in [(i,) for i in nonzero] + pairs:
            mu = _known_mean(model, exps, blocks, tilt)
            if mu is not None:
                known[blocks] = mu
    cols = PowerProducts(exps.signed, groups + list(known), weight=bool(controls and tilt))
    means = {cols.index[len(groups) + j]: (blocks, mu) for j, (blocks, mu) in enumerate(known.items())}
    if cols.weight is not None:
        means[cols.weight] = ((), 1.0)
    slices = {i: model.spec.range(i) for i in cols.used}
    sampler, log_k, full = model, 0.0, slice(0, model.p)
    if tilt:
        sampler = WishartModel(model.alpha - 2.0 * tilt, model.sigma, model.spec)
        log_k = log_det_moment(model.alpha, model.p, model._logdet_sigma, -tilt)

    def draw(gen, m):
        out = column_block(cols.k, m)
        for draws, A in _sample_batch(sampler, gen, m):
            shift = log_k + tilt * factor_logdet(A, full) if tilt else None
            cols.columns({i: factor_logdet(A, sl) for i, sl in slices.items()}, out[:, draws], shift)
        return out.T

    return ProductColumns(draw, cols.k, cols.index, means, tilt)


def mc_product_moment(
    model: WishartModel,
    exps: ExponentVector,
    n: int,
    rng: RngStream,
    subset=None,
    override_finiteness: bool = False,
) -> MCEstimate:
    """Monte Carlo estimate of E prod_{i in subset} |X_ii|^(signs[i]*values[i]).

    Parameters
    ----------
    model : WishartModel
        Source distribution with its block partition.
    exps : ExponentVector
        One (magnitude, sign) pair per block of the model.
    n : int
        Number of draws.
    rng : RngStream
        Anchor stream; the estimator consumes the chunk family under it.
    subset : sequence of int, optional
        Block indices entering the product (default: all blocks).
    override_finiteness : bool
        Allow estimation when finiteness is merely Unknown. Without it,
        anything short of FiniteGuaranteed raises InfiniteMoment.

    Notes
    -----
    This is the one-group case of `product_columns`, uncontrolled and
    tilted when an exponent is inverted; an all-zero exponent product is
    the exact constant 1 and draws nothing.
    """
    subset = range(model.d) if subset is None else subset
    cols = product_columns(model, exps, [subset], override_finiteness)
    return mc_mean(cols.draw, n, rng, columns=cols.k).column(cols.index[0])
