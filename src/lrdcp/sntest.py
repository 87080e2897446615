"""Self-normalized Wilcoxon change-point statistic and baselines.

For a split at k the statistic compares the Wilcoxon deviation |d[k]|
against a normalizer built from within-segment partial sums:

    S_t(1, k)   = -(d[t] - (t/k) d[k])
    S_t(k+1, n) = -(d[t] - ((n-t)/(n-k)) d[k])

    G_n(k) = |d[k]| / sqrt((1/n) [sum_{t<=k} S_t(1,k)^2
                                  + sum_{t>k} S_t(k+1,n)^2])

and T_n is the maximum of G_n(k) over a trimmed window of splits.
Expanding the squares turns each G_n(k) into a constant-time expression
in prefix sums of d; the whole scan is O(n) after ranking.

``_gn_matrix`` is the one G_n implementation: batches of rows and single
series (a batch of one) both go through it, with d from
``rankstat.deviation_rows``.  In ``tests/_oracle.py``, ``naive_gn_oracle``
(an O(n^2) transcription of the definition) checks it to floating-point
accuracy, and ``expanded_gn`` (the expanded algebra) checks its bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .fgn import is_real
from .rankstat import (
    _shape_constants, build_profile, deviation_rows, rankdata,
)

#: scale factor of the degenerate-denominator threshold
DEN_TOL = 1e-12

#: numerator noise floor (relative to the running-sum magnitude) used to
#: distinguish "numerator is really zero" from cumsum rounding residue
#: in a degenerate split; far above n*eps, far below any real deviation
NUM_TOL = 1e-9


@dataclass(frozen=True)
class TestWindow:
    """Trimmed split range: k runs over [floor(n*tau1), floor(n*tau2)]."""

    tau1: float = 0.15
    tau2: float = 0.85

    def __post_init__(self):
        if not (is_real(self.tau1) and is_real(self.tau2)
                and 0.0 < self.tau1 < self.tau2 < 1.0):
            raise ValueError(
                f"window must satisfy 0 < tau1 < tau2 < 1, "
                f"got ({self.tau1!r}, {self.tau2!r})"
            )

    def split_range(self, n):
        """Inclusive (k_lo, k_hi) for a length-n series."""
        k_lo = math.floor(n * self.tau1)
        k_hi = math.floor(n * self.tau2)
        if k_lo < 1 or k_hi > n - 1 or k_lo > k_hi:
            raise ValueError(
                f"window ({self.tau1}, {self.tau2}) is too narrow for "
                f"n={n}: admissible splits [{k_lo}, {k_hi}] must lie in "
                f"[1, {n - 1}]"
            )
        return k_lo, k_hi


def check_window(window, name="window"):
    """``window`` if it is a TestWindow, else ValueError naming ``name``."""
    if not isinstance(window, TestWindow):
        raise ValueError(f"{name} must be a TestWindow, got {window!r}")
    return window


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistic evaluation over a window."""

    statistic: float
    argmax_k: int
    profile: np.ndarray
    k_range: tuple
    tie_flag: bool
    degenerate_flag: bool
    critical_value: float = None
    reject: bool = None


def _gn_constants(n, k_lo, k_hi):
    """t = 0..k_hi and n - t for t = 0..n; over the window, k/2, (n-k)/2,
    sum_{t<=k} t^2 / 4 and sum_{t>k} (n-t)^2 / 4, the sums in closed form.
    Powers of two scale exactly, so d_k / (k/2) = 2 d_k/k and
    (2 d_k/k)^2 (sum t^2 / 4) = (d_k/k)^2 sum t^2 bit for bit away from
    overflow and subnormals: these constants change no bit of G_n."""
    t = np.arange(n + 1, dtype=np.float64)
    kf = np.arange(k_lo, k_hi + 1).astype(np.float64)
    mf = n - kf
    sum_tsq = kf * (kf + 1.0) * (2.0 * kf + 1.0) / 6.0
    sum_msq = (mf - 1.0) * mf * (2.0 * mf - 1.0) / 6.0
    return t[: k_hi + 1], n - t, kf / 2, mf / 2, sum_tsq / 4, sum_msq / 4


def _gn_matrix(d, k_lo, k_hi, num_scale=0.0):
    """G_n(k) for each row of a (batch, n+1) deviation profile.

    Returns the (batch, k_hi-k_lo+1) matrix of statistic values and a
    per-row flag marking splits where the degenerate rule fired.
    ``num_scale`` (scalar or per-row column) sets the numerator noise
    floor for profiles built from raw values, whose cumsums carry
    rounding residue; rank profiles are exact and pass 0.

    The arrays that depend only on (n, k_lo, k_hi) come from
    ``rankstat._shape_constants``: built once per shape and kept read-only
    for blocks within ``_parallel.BLOCK_BYTES``, and the same arrays in
    any case, so they change no bit.  The degenerate rule is first bounded
    over the whole block: each rounding step of its threshold
    (dk^2 + 1) * DEN_TOL * n is monotone in |dk|, so if the smallest
    denominator reaches the threshold of the largest |dk| no split can
    be degenerate (and a NaN fails the comparison), and only otherwise
    is every split tested.  Rank profiles of continuous data never reach
    the rule.
    """
    n = d.shape[1] - 1
    t_head, n_minus_t, half_k, half_m, tsq_4, msq_4 = _shape_constants(
        (len(d), n), _gn_constants, n, k_lo, k_hi)
    window = slice(k_lo, k_hi + 1)
    dk = d[:, window]
    # with m = n - k, s = 2 d_k/k and u = 2 d_k/m (exact from the halved
    # constants of _gn_constants), the two halves of the normalizer are
    #   first  = sum_{t<=k} d^2 - s sum_{t<=k} t d + s^2 (sum t^2 / 4)
    #   second = sum_{t>k} d^2 - u sum_{t>k} (n-t) d + u^2 (sum (n-t)^2 / 4)
    # evaluated left to right into reused buffers: each element sees the
    # same operations in the same order whatever buffer holds it
    run = np.empty_like(d)  # running sums of one profile moment at a time
    head = run[:, : k_hi + 1]  # sum_{t<=k} t d is read only up to k_hi
    np.multiply(t_head, d[:, : k_hi + 1], out=head)
    np.cumsum(head, axis=-1, out=head)
    scaled = np.divide(dk, half_k)
    first = np.multiply(scaled, run[:, window])
    np.multiply(d, d, out=run)
    np.cumsum(run, axis=-1, out=run)
    np.subtract(run[:, window], first, out=first)
    # suffix sums: sum_{t>k} = total - sum_{t<=k}; k_hi < n, so the
    # window never overlaps the total's column
    second = np.subtract(run[:, -1:], run[:, window])
    np.square(scaled, out=scaled)
    scaled *= tsq_4
    first += scaled
    np.divide(dk, half_m, out=scaled)
    np.multiply(n_minus_t, d, out=run)
    np.cumsum(run, axis=-1, out=run)
    suffix_md = run[:, window]
    np.subtract(run[:, -1:], suffix_md, out=suffix_md)
    suffix_md *= scaled
    second -= suffix_md
    np.square(scaled, out=scaled)
    scaled *= msq_4
    second += scaled
    denom = first
    denom += second

    abs_dk = np.abs(dk, out=scaled)
    np.divide(denom, n, out=second)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(second, out=second)
        gn = np.divide(abs_dk, second, out=second)
    peak = abs_dk.max()
    if denom.min() >= (peak * peak + 1.0) * (DEN_TOL * n):
        return gn, np.zeros(len(d), dtype=bool)
    degenerate = denom < (dk * dk + 1.0) * (DEN_TOL * n)
    flags = degenerate.any(axis=-1)
    if flags.any():
        num_tol = NUM_TOL * (1.0 + np.asarray(num_scale, dtype=np.float64))
        gn = np.where(degenerate, np.where(abs_dk > num_tol, np.inf, 0.0), gn)
    return gn, flags


def _unit_scaled(values):
    """The series times 2**-e, e the frexp exponent of its half range.

    Its variation then spans [1, 2), so the degenerate rule and the
    squares in ``_gn_matrix`` see the same magnitudes at any scale of the
    data; a constant series is scaled by its peak |value| instead.  A
    power of two scales exactly and G_n is homogeneous of degree 0, so
    every non-degenerate value keeps its bits.  The range, not the peak,
    sets the scale so that an offset (x + 1e7) does not shrink the
    deviations below the degenerate rule's floor; ``sn_cusum_statistic``
    then takes the offset itself off.
    """
    hi, lo = float(values.max()), float(values.min())
    half_range = hi * 0.5 - lo * 0.5  # cannot overflow
    _, exponent = math.frexp(half_range if half_range > 0.0 else max(hi, -lo))
    return np.ldexp(values, -exponent)


def _tn_rows(values, k_lo, k_hi, use_ranks):
    """T_n of each row of one (rows, n) block of a batch."""
    if use_ranks:
        values = rankdata(values)
    d, num_scale = deviation_rows(values, use_ranks)
    gn, _ = _gn_matrix(d, k_lo, k_hi, num_scale)
    return gn.max(axis=-1)


def batch_tn_from_values(values, k_lo, k_hi, use_ranks):
    """T_n of each row of a (batch, n) value matrix; the hot loop.

    With ``use_ranks`` the Wilcoxon statistic is computed (midranks per
    row); without, the CUSUM variant on the raw rows, which is also the
    discretized limit functional when the rows are fBm increments.  A
    batch is evaluated in blocks of rows whose (rows, n+1) profile takes
    about ``_parallel.BLOCK_BYTES``; each row's value is the same in any
    block.
    """
    values = np.asarray(values, dtype=np.float64)
    batch, n = values.shape
    block = max(1, _parallel.BLOCK_BYTES // (8 * (n + 1)))
    return np.concatenate(
        [
            _tn_rows(values[lo : lo + block], k_lo, k_hi, use_ranks)
            for lo in range(0, batch, block)
        ]
    )


def _result_from_deviations(d, window, tie_flag, critical_value,
                            num_scale=0.0):
    """TestResult of a (1, n+1) profile: a batch of one through _gn_matrix."""
    k_lo, k_hi = window.split_range(d.shape[1] - 1)
    gn, degenerate = _gn_matrix(d, k_lo, k_hi, num_scale)
    values = gn[0]
    best = int(np.argmax(values))  # first maximum: smallest-k tie rule
    statistic = float(values[best])
    reject = None if critical_value is None else bool(statistic > critical_value)
    return TestResult(
        statistic=statistic,
        argmax_k=k_lo + best,
        profile=values,
        k_range=(k_lo, k_hi),
        tie_flag=tie_flag,
        degenerate_flag=bool(degenerate[0]),
        critical_value=critical_value,
        reject=reject,
    )


def tn_statistic(series, window=TestWindow(), critical_value=None):
    """T_n over the window: the self-normalized Wilcoxon test statistic."""
    d, tie_flag = build_profile(series)
    return _result_from_deviations(d[np.newaxis], window, tie_flag,
                                   critical_value)


def sn_cusum_statistic(series, window=TestWindow(), critical_value=None):
    """Self-normalized CUSUM baseline: same functional on raw values.

    Shares the limit distribution with the Wilcoxon form but is not rank
    invariant, hence less robust to outliers.  The series is scaled to a
    unit range first, so it and any power-of-two multiple of it give the
    same bits.  Then its own median element is subtracted: when an offset
    dominates the spread, every value lies within a factor 2 of that
    element, so the offset comes off exactly (Sterbenz) instead of
    rounding the cumulative sums, and a constant series becomes exact
    zeros.
    """
    v = _unit_scaled(series.values)
    v -= np.partition(v, len(v) // 2)[len(v) // 2]
    d, num_scale = deviation_rows(v[np.newaxis], ranked=False)
    return _result_from_deviations(d, window, False, critical_value, num_scale)

