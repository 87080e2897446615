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

    One argsort per row: scattering 1..n through it ranks every row, and
    the sorted rows show which ones hold equal neighbours.  Only those
    rows are ranked again, one at a time: a run of equal values at
    sorted positions [first, end) gets the midrank (first + end + 1) / 2.
    Midranks are integers or half-integers, hence exact.  Values must be
    NaN-free; -0.0 and 0.0 tie.
    """
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape
    n = shape[-1]
    rows = values.reshape(math.prod(shape[:-1]), n)
    order = np.argsort(rows, axis=-1)
    ranks = np.empty(rows.shape)
    np.put_along_axis(ranks, order, np.arange(1.0, n + 1.0), axis=-1)
    ordered = np.take_along_axis(rows, order, axis=-1)
    distinct = ordered[:, 1:] != ordered[:, :-1]
    tied = ~distinct.all(axis=-1)
    for i in np.flatnonzero(tied):
        first = np.flatnonzero(np.r_[True, distinct[i]])
        end = np.r_[first[1:], n]
        ranks[i, order[i]] = np.repeat((first + end + 1) / 2.0, end - first)
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
