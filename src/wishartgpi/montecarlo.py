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
from math import isfinite, sqrt

import numpy as np

from .errors import DegenerateEvent, DegenerateVariance, InfiniteMoment
from .wishart import RngStream, WishartModel, _sample_batch, _scratch, factor_logdet

__all__ = [
    "CHUNK_DRAWS",
    "MCEstimate",
    "JointEstimate",
    "PowerProducts",
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
    the same nonzero powers share a column.
    """

    def __init__(self, powers, groups):
        self.supports: list[tuple[tuple[int, float], ...]] = []
        self.index: list[int | None] = []
        for g in groups:
            support = tuple((int(i), float(powers[i])) for i in g if powers[i] != 0.0)
            if support and support not in self.supports:
                self.supports.append(support)
            self.index.append(self.supports.index(support) if support else None)

    @property
    def k(self) -> int:
        return len(self.supports)

    @property
    def used(self) -> list[int]:
        """Indices that enter some column."""
        return sorted({i for support in self.supports for i, _ in support})

    def columns(self, logs, out: np.ndarray) -> None:
        """Write the k products into the rows of `out`, a (k, w) block.

        ``logs[i]`` is the (w,) array of log x_i for each i in `used`. Each
        product is accumulated in log space and exponentiated once, in place.
        """
        for row, support in zip(out, self.supports):
            row.fill(0.0)
            for i, power in support:
                row += power * logs[i]
            np.exp(row, out=row)


def product_columns(
    model: WishartModel, exps: ExponentVector, groups, override_finiteness: bool = False
):
    """Draw callback for the product moments of several block groups at once.

    Returns ``(draw, cols)``: ``draw(generator, m)`` samples m Bartlett
    factors once, reads one log-determinant per block off each factor
    sub-block (`factor_logdet`), and returns the (m, cols.k) view of a
    `column_block` holding prod_{i in group} |X_ii|^(signs[i]*values[i])
    over the distinct groups; ``cols.index`` maps each group to its column.
    Every group is classified for finiteness on its own, and anything
    short of FiniteGuaranteed raises InfiniteMoment unless
    `override_finiteness` allows Unknown.
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
    cols = PowerProducts(exps.signed, groups)
    slices = {i: model.spec.range(i) for i in cols.used}

    def draw(gen, m):
        out = column_block(cols.k, m)
        for draws, A in _sample_batch(model, gen, m):
            cols.columns({i: factor_logdet(A, sl) for i, sl in slices.items()}, out[:, draws])
        return out.T

    return draw, cols


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
    This is the one-group case of `product_columns`; an all-zero
    exponent product is the exact constant 1 and draws nothing.
    """
    subset = range(model.d) if subset is None else subset
    draw, cols = product_columns(model, exps, [subset], override_finiteness)
    return mc_mean(draw, n, rng, columns=cols.k).column(cols.index[0])
