"""Ranks and the partial-sum profile behind the self-normalized test.

The test statistic, its CUSUM counterpart, and the discretized limit
functional all reduce to one object: the deviation profile

    d[k] = k(n+1)/2 - sum_{i<=k} R_i,          k = 1..n,

whose absolute value equals the two-sample Wilcoxon double sum
|sum_{i<=k} sum_{j>k} (1{X_i <= X_j} - 1/2)| when there are no ties.
``deviation_rows`` is the one place d is built, for a block of rows of
ranks or of raw values; ``sntest._gn_matrix``, the one G_n
implementation, reads everything else from d.  The direct oracle it is
checked against counts its own midranks and lives in ``tests/_oracle.py``.

Midranks come from one sort per row of packed int64 keys, each a value's
order-preserving bits with its column index in the low bits, so the
sorted keys carry the permutation and no argsort is needed.  A block
whose keys show a tie or a near-tie is ranked by the exact rule from that
key order, which for tied values is already their sorted order.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real observations; the test input.

    Rejects series shorter than 4 (the normalizer needs at least one
    interior index on each side of any tested split) and non-finite
    values.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"expected a 1-d series, got shape {values.shape}")
        if values.shape[0] < 4:
            raise ValueError(
                f"need at least 4 observations, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains NaN or infinite values")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class RankProfile:
    """Rank deviation profile d of one series, and whether it has ties.

    ``d`` has length n+1 and is indexed by the time index k = 0..n so
    formulas read like the math; d[0] = 0.
    """

    d: np.ndarray = field(repr=False)
    tie_flag: bool

    @property
    def n(self):
        return self.d.shape[0] - 1


def _midranks(values):
    """Midranks along the last axis, and a per-row flag for tied values.

    One int64 sort per row.  Each value becomes an int64 key whose signed
    order is the float order (the bits of x + 0.0, so that -0.0 and 0.0
    tie, with the low 63 bits flipped for negative x).  Its low
    b = bit_length(n - 1) bits are replaced by the column index, and the
    keys are sorted in place.  If all sorted keys of a row differ in
    their high bits, its values are distinct and in key order, so its
    ranks are 1..n scattered through the sorted column indices.

    A block where two keys of a row share their high bits (a tie or a
    near-tie) is ranked by the exact rule, reusing the key order.  Tied
    values already sit in sorted order there; only distinct near-ties
    can be out of order, and then one argsort of the block puts them in
    order: stable, which is adaptive, when fewer than 1 in 32 neighbours
    are out of order, else quicksort.  A run of c equal values from
    0-based sorted position p on then gets the midrank p + (c + 1) / 2.
    Midranks are integers or half-integers, hence exact.  Values must be
    NaN-free.
    """
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape
    n = shape[-1]
    rows = values.reshape(math.prod(shape[:-1]), n)
    bits = max(1, (n - 1).bit_length())
    low = (1 << bits) - 1
    keys = (rows + 0.0).view(np.int64)
    keys ^= (keys >> 63) & 0x7FFF_FFFF_FFFF_FFFF
    keys &= ~low
    keys |= np.arange(n)
    keys.sort(axis=-1)
    # one pass over the flat block: neighbours that straddle two rows
    # (each row's last column) are not compared
    flat = keys.reshape(-1)
    high = flat >> bits
    same = np.empty(flat.shape, dtype=bool)
    np.equal(high[1:], high[:-1], out=same[:-1])
    same.reshape(rows.shape)[:, n - 1 :] = False
    offsets = n * np.arange(len(rows))
    flat &= low
    flat += np.repeat(offsets, n)
    ranks = np.empty(rows.shape)
    if not same.any():
        ranks.reshape(-1)[flat] = np.tile(np.arange(1.0, n + 1.0), len(rows))
        return ranks.reshape(shape), np.zeros(shape[:-1], dtype=bool)
    ordered = rows.reshape(-1)[flat]
    disorder = np.count_nonzero(same[:-1] & (ordered[1:] < ordered[:-1]))
    if disorder:
        # equal values share one midrank in any order, so any sort kind
        # serves: the adaptive stable sort when few neighbours are out of
        # order (there 3-6x faster than quicksort), quicksort (about 5x
        # faster on scrambled rows) otherwise; where rows are scrambled in
        # spread-out places the two kinds cross between 1 in 50 and 1 in 20
        # neighbours out of order
        kind = "stable" if 32 * disorder < len(flat) else "quicksort"
        fix = np.argsort(ordered.reshape(rows.shape), axis=-1, kind=kind)
        fix += offsets[:, np.newaxis]
        fix = fix.reshape(-1)
        flat = flat[fix]
        ordered = ordered[fix]
    edge = np.empty(flat.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:])
    edge[::n] = True
    first = np.flatnonzero(edge)
    counts = np.diff(first, append=len(flat))
    ranks.reshape(-1)[flat] = np.repeat(first % n + (counts + 1) / 2.0, counts)
    tied = ~edge.reshape(rows.shape).all(axis=-1)
    return ranks.reshape(shape), tied.reshape(shape[:-1])


def rankdata(values):
    """Midranks along the last axis: R_i = #{j : X_j <= X_i}, ties averaged.

    Equals ``scipy.stats.rankdata(values, method="average", axis=-1)``
    bit for bit on NaN-free input.
    """
    return _midranks(values)[0]


def deviation_rows(x, ranked):
    """Deviation profile d of each row of a (rows, n) block.

    Returns the (rows, n+1) profile, d[:, 0] = 0, and the numerator noise
    floor scale that ``sntest._gn_matrix`` takes.  Rows of midranks
    (``ranked``) give d[k] = k(n+1)/2 - sum_{i<=k} R_i, exact in floats,
    with scale 0.  Rows of raw values give the CUSUM counterpart
    d[k] = (k/n) sum x - sum_{i<=k} x_i, whose scale is each row's
    largest absolute partial sum.
    """
    rows, n = x.shape
    t = np.arange(n + 1, dtype=np.float64)
    d = np.zeros((rows, n + 1))
    cumsum = np.cumsum(x, axis=-1)
    if ranked:
        d[:, 1:] = t[1:] * (n + 1) / 2.0 - cumsum
        return d, 0.0
    d[:, 1:] = t[1:] / n * cumsum[:, -1:] - cumsum
    return d, np.abs(cumsum).max(axis=-1, keepdims=True)


def build_profile(series):
    """The RankProfile of a series: one sort, one cumulative sum."""
    ranks, tied = _midranks(series.values)
    d, _ = deviation_rows(ranks[np.newaxis], ranked=True)
    return RankProfile(d[0], bool(tied))
