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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _parallel


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


# shape constants of blocks within BLOCK_BYTES: the last 32 keys, read-only
@functools.lru_cache(maxsize=32)
def _kept(build, key):
    arrays = build(*key)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _shape_constants(block_shape, build, *key):
    """``build(*key)``: a tuple of arrays that depend only on a block's shape.

    When a (rows, n+1) float64 profile of the (rows, n) ``block_shape``
    fits ``_parallel.BLOCK_BYTES``, the arrays are built once per key and
    kept, read-only, in a small module-level cache (the last 32 keys),
    which every block of a batch shares.  A larger block, such as one
    long series, builds them for its call alone and keeps nothing.  The
    arrays are the same either way, so the cache never changes a bit.
    """
    rows, n = block_shape
    if 8 * rows * (n + 1) > _parallel.BLOCK_BYTES:
        return build(*key)
    return _kept(build, key)


def _rank_constants(rows, n):
    """Column indices, row offsets, their flat repeat, and 1..n per row."""
    offsets = n * np.arange(rows)
    return (np.arange(n), offsets, np.repeat(offsets, n),
            np.tile(np.arange(1.0, n + 1.0), rows))


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
    can be out of order, and then one argsort of the block, of NumPy's
    default kind, puts them in order.  A run of c equal values from
    0-based sorted position p on then gets the midrank p + (c + 1) / 2.
    Midranks are integers or half-integers, hence exact.  Values must be
    NaN-free.  The index arrays that depend only on the block's shape
    come from ``_shape_constants``, which keeps them read-only per shape
    for blocks within ``_parallel.BLOCK_BYTES``; they change no bit.
    """
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape
    n = shape[-1]
    rows = values.reshape(math.prod(shape[:-1]), n)
    columns, offsets, flat_offsets, ascending = _shape_constants(
        rows.shape, _rank_constants, len(rows), n)
    bits = max(1, (n - 1).bit_length())
    low = (1 << bits) - 1
    keys = (rows + 0.0).view(np.int64)
    keys ^= (keys >> 63) & 0x7FFF_FFFF_FFFF_FFFF
    keys &= ~low
    keys |= columns
    keys.sort(axis=-1)
    # one pass over the flat block: neighbours that straddle two rows
    # (each row's last column) are not compared
    flat = keys.reshape(-1)
    high = flat >> bits
    same = np.empty(flat.shape, dtype=bool)
    np.equal(high[1:], high[:-1], out=same[:-1])
    same.reshape(rows.shape)[:, n - 1 :] = False
    flat &= low
    flat += flat_offsets
    ranks = np.empty(rows.shape)
    if not same.any():
        ranks.reshape(-1)[flat] = ascending
        return ranks.reshape(shape), np.zeros(shape[:-1], dtype=bool)
    ordered = rows.reshape(-1)[flat]
    if (same[:-1] & (ordered[1:] < ordered[:-1])).any():
        # equal values share one midrank in any order, so any sort kind serves
        fix = np.argsort(ordered.reshape(rows.shape), axis=-1)
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


def _profile_constants(n):
    """k(n+1)/2 and k/n for k = 1..n."""
    t = np.arange(1.0, n + 1.0)
    return t * (n + 1) / 2.0, t / n


def deviation_rows(x, ranked):
    """Deviation profile d of each row of a (rows, n) block.

    Returns the (rows, n+1) profile, d[:, 0] = 0, and the numerator noise
    floor scale that ``sntest._gn_matrix`` takes.  Rows of midranks
    (``ranked``) give d[k] = k(n+1)/2 - sum_{i<=k} R_i, exact in floats,
    with scale 0.  Rows of raw values give the CUSUM counterpart
    d[k] = (k/n) sum x - sum_{i<=k} x_i, whose scale is each row's
    largest absolute partial sum.  The partial sums are written straight
    into d; k(n+1)/2 and k/n come from ``_shape_constants``, which keeps
    them read-only per shape for blocks within ``_parallel.BLOCK_BYTES``
    and changes no bit.
    """
    rows, n = x.shape
    centre, fraction = _shape_constants(x.shape, _profile_constants, n)
    d = np.empty((rows, n + 1))
    d[:, 0] = 0.0
    cumsum = np.cumsum(x, axis=-1, out=d[:, 1:])
    if ranked:
        np.subtract(centre, cumsum, out=cumsum)
        return d, 0.0
    floor = np.maximum(cumsum.max(axis=-1, keepdims=True),
                       -cumsum.min(axis=-1, keepdims=True))
    np.subtract(fraction * cumsum[:, -1:], cumsum, out=cumsum)
    return d, floor


def build_profile(series):
    """Rank deviation profile d of a series, and whether it has ties.

    One sort, one cumulative sum.  ``d`` has length n+1 and is indexed
    by the time index k = 0..n so formulas read like the math; d[0] = 0.
    """
    ranks, tied = _midranks(series.values)
    d, _ = deviation_rows(ranks[np.newaxis], ranked=True)
    return d[0], bool(tied)
