"""Ranks and the partial-sum profile behind the self-normalized test.

The test statistic, its CUSUM counterpart, and the discretized limit
functional all reduce to one object: the deviation profile

    d[k] = k(n+1)/2 - sum_{i<=k} R_i,          k = 1..n,

whose absolute value equals the two-sample Wilcoxon double sum
|sum_{i<=k} sum_{j>k} (1{X_i <= X_j} - 1/2)| when there are no ties.
Prefix and suffix moments of d make every normalizer term evaluable in
constant time.
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
    """Ranks, deviation profile d, and its prefix/suffix moments.

    ``ranks`` has length n.  The other arrays have length n+1 and are
    indexed by the time index k = 1..n so formulas read like the math;
    d and the prefix arrays carry a zero at [0], the suffix arrays hold
    the full-tail sum there and a zero at [n].

    prefix_q[k]  = sum_{t<=k} d[t]^2
    prefix_td[k] = sum_{t<=k} t * d[t]
    suffix_q[k]  = sum_{t>k} d[t]^2
    suffix_md[k] = sum_{t>k} (n-t) * d[t]
    """

    ranks: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    prefix_q: np.ndarray = field(repr=False)
    prefix_td: np.ndarray = field(repr=False)
    suffix_q: np.ndarray = field(repr=False)
    suffix_md: np.ndarray = field(repr=False)
    tie_flag: bool

    @property
    def n(self):
        return self.ranks.shape[0]


def _midranks(values):
    """Midranks along the last axis, and a per-row flag for tied values.

    One argsort per row: scattering 1..n through it ranks every row, and
    the sorted rows show which ones hold equal neighbours.  Only those
    rows are ranked again, with the dense-cumsum midrank formula run over
    all of them at once (positions counted across the flattened block,
    each row opening a new group).  Midranks are integers or
    half-integers, hence exact.  Values must be NaN-free; -0.0 and 0.0
    tie.
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
    if tied.any():
        starts = np.ones((np.count_nonzero(tied), n), dtype=bool)
        starts[:, 1:] = distinct[tied]
        flat = starts.ravel()
        dense = np.cumsum(flat)
        count = np.r_[np.flatnonzero(flat), flat.size]
        offset = np.repeat(np.arange(starts.shape[0]) * n, n)
        mid = 0.5 * (count[dense] + count[dense - 1] + 1) - offset
        tied_ranks = np.empty(starts.shape)
        np.put_along_axis(
            tied_ranks, order[tied], mid.reshape(starts.shape), axis=-1
        )
        ranks[tied] = tied_ranks
    return ranks.reshape(shape), tied.reshape(shape[:-1])


def rankdata(values):
    """Midranks along the last axis: R_i = #{j : X_j <= X_i}, ties averaged.

    Equals ``scipy.stats.rankdata(values, method="average", axis=-1)``
    bit for bit on NaN-free input.
    """
    return _midranks(values)[0]


def compute_ranks(values):
    """Midranks of the observations: R_i = #{j : X_j <= X_i}, ties averaged.

    Accepts a TimeSeries or any 1-d array-like.
    """
    if isinstance(values, TimeSeries):
        values = values.values
    return rankdata(values)


def build_profile(series):
    """Build the RankProfile of a series in one O(n log n) pass."""
    ranks, tied = _midranks(series.values)
    n = series.n
    t = np.arange(n + 1, dtype=np.float64)
    d = np.zeros(n + 1)
    d[1:] = t[1:] * (n + 1) / 2.0 - np.cumsum(ranks)
    return RankProfile(ranks, d, *_moments(d, t, n), bool(tied))


def deviation_profile(values):
    """Centered-partial-sum profile of raw values (CUSUM counterpart of d).

    d[k] = (k/n) * sum(values) - sum_{i<=k} values[i], so that the same
    normalizer algebra applies with observations in place of ranks.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    t = np.arange(n + 1, dtype=np.float64)
    d = np.zeros(n + 1)
    cumsum = np.cumsum(values)
    d[1:] = t[1:] / n * cumsum[-1] - cumsum
    return d


def _moments(d, t, n):
    prefix_q = np.cumsum(d * d)
    prefix_td = np.cumsum(t * d)
    cum_md = np.cumsum((n - t) * d)
    suffix_q = prefix_q[-1] - prefix_q
    suffix_md = cum_md[-1] - cum_md
    return prefix_q, prefix_td, suffix_q, suffix_md
