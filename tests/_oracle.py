"""Direct O(n^2) oracle for G_n(k) and the kernel values it is checked
against, the expanded normalizer written as the algebra reads (the
kernel's bits), a long-double residual form of G_n(k) for long series,
the per-line reference for the CLI's series reader, and a
Cholesky fGn sampler independent of the package's circulant draw."""

import math

import numpy as np
import scipy.linalg

from lrdcp.fgn import fgn_autocovariance
from lrdcp.rankstat import TimeSeries, build_profile
from lrdcp.sntest import DEN_TOL, NUM_TOL, _gn_matrix


def naive_gn_oracle(series, k):
    """Direct transcription of the G_n(k) definition; O(n^2) per call.

    Test oracle only (exercised for n <= 500): computes the midranks by
    O(n^2) counting, R_i = #{j : x_j < x_i} + (#{j : x_j == x_i} + 1) / 2,
    and the centered-rank running sums literally instead of through the
    profile moments, so it shares no code with the fast path.
    """
    if not isinstance(series, TimeSeries):
        series = TimeSeries(np.asarray(series, dtype=np.float64))
    x = series.values
    below = (x[np.newaxis, :] < x[:, np.newaxis]).sum(axis=1)
    equal = (x[np.newaxis, :] == x[:, np.newaxis]).sum(axis=1)
    ranks = below + (equal + 1) / 2.0
    n = series.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"split k must lie in [1, {n - 1}], got {k}")
    # definitional form; exact in floats because midranks are half-integers
    numerator = abs(k * (n + 1) / 2.0 - ranks[:k].sum())

    mean_first = ranks[:k].mean()
    total = 0.0
    accum = 0.0
    for h in range(k):
        accum += ranks[h] - mean_first
        total += accum * accum
    mean_second = ranks[k:].mean()
    accum = 0.0
    for h in range(k, n):
        accum += ranks[h] - mean_second
        total += accum * accum

    if total < DEN_TOL * n * (1.0 + numerator * numerator):
        return math.inf if numerator > 0.0 else 0.0
    return numerator / math.sqrt(total / n)


def kernel_gn(series, k_lo=1, k_hi=None):
    """G_n(k) for k = k_lo..k_hi (default every split 1..n-1) from ``_gn_matrix``.

    The rank profile goes through the kernel as a batch of one, exactly
    as ``tn_statistic`` sends it.
    """
    n = series.n
    d = build_profile(series)[0][np.newaxis]
    gn, _ = _gn_matrix(d, k_lo, n - 1 if k_hi is None else k_hi)
    return gn[0]


def expanded_gn(d, k_lo, k_hi, num_scale=0.0):
    """G_n(k), k = k_lo..k_hi, of each row of a (batch, n+1) profile d,
    and a per-row flag for splits where the degenerate rule fired.

    The normalizer is written as the algebra reads, with m = n - k and
    the prefix sums C = cumsum(d^2), B = cumsum(t d), D = cumsum((n-t) d),
    S = cumsum(t^2) and R = cumsum((n-t)^2):

        (C_k - 2 (d_k/k) B_k) + (d_k/k)^2 S_k
        + ((C_n - C_k) - 2 (d_k/m) (D_n - D_k)) + (d_k/m)^2 (R_n - R_k)

    then |d_k| / sqrt(denom / n), with the degenerate rule applied at
    every split.  These are the floating-point operations of
    ``_gn_matrix`` in its order, so the kernel must return these bits:
    its reused buffers, halved constants and block-wide bound on the
    degenerate rule may change none of them.  S and R are sums of
    integers, exact while 2 n^3 < 2^53, as are the kernel's closed forms.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[1] - 1
    t = np.arange(n + 1, dtype=np.float64)
    window = slice(k_lo, k_hi + 1)
    k, m, dk = t[window], n - t[window], d[:, window]
    C = np.cumsum(d * d, axis=-1)
    B = np.cumsum(t * d, axis=-1)
    D = np.cumsum((n - t) * d, axis=-1)
    S = np.cumsum(t * t)
    R = np.cumsum((n - t) * (n - t))
    first = (C[:, window] - 2 * (dk / k) * B[:, window]) \
        + (dk / k) ** 2 * S[window]
    second = ((C[:, -1:] - C[:, window])
              - 2 * (dk / m) * (D[:, -1:] - D[:, window])) \
        + (dk / m) ** 2 * (R[-1] - R[window])
    denom = first + second
    with np.errstate(divide="ignore", invalid="ignore"):
        gn = np.abs(dk) / np.sqrt(denom / n)
    degenerate = denom < (dk * dk + 1.0) * (DEN_TOL * n)
    num_tol = NUM_TOL * (1.0 + np.asarray(num_scale, dtype=np.float64))
    gn = np.where(degenerate, np.where(np.abs(dk) > num_tol, np.inf, 0.0), gn)
    return gn, degenerate.any(axis=-1)


def residual_gn(d, k):
    """G_n(k) of a deviation profile d (d[0] = 0), in ``np.longdouble``.

    Two passes: the residuals d_t - (t/k) d_k for t <= k and
    d_t - ((n-t)/(n-k)) d_k for t > k are formed first, then squared and
    summed, so no large moments cancel as in the kernel's expanded form.
    O(n) per split; shares no code with ``_gn_matrix``.
    """
    d = np.asarray(d, dtype=np.longdouble)
    n = len(d) - 1
    t = np.arange(n + 1, dtype=np.longdouble)
    first = d[1 : k + 1] - t[1 : k + 1] / k * d[k]
    second = d[k + 1 :] - (n - t[k + 1 :]) / (n - k) * d[k]
    total = np.sum(first * first) + np.sum(second * second)
    return abs(d[k]) / np.sqrt(total / n)


def read_series_oracle(path):
    """The values of a series file, read one line at a time.

    The reference for ``cli.read_series``: UTF-8 with an optional
    byte-order mark; each line stripped; blank and '#' lines skipped;
    every other line one finite float() or the error that names it.
    """
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValueError(
                f"parse error at line {lineno} of {path}: {line!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(
                f"non-finite value at line {lineno} of {path}: {line!r}"
            )
        values.append(value)
    if not values:
        raise ValueError(f"no data in {path}")
    return np.array(values, dtype=np.float64)


def cholesky_factor(hurst, n):
    """Lower Cholesky factor L of the n x n fGn covariance matrix."""
    gamma = fgn_autocovariance(hurst, np.arange(n))
    return np.linalg.cholesky(scipy.linalg.toeplitz(gamma))


def cholesky_fgn(hurst, n, rows, rng):
    """``rows`` fGn series of length n: L times ``rng``'s normals.

    Exact for any n, and it shares only ``fgn_autocovariance`` with the
    package's sampler (no circulant embedding, Philox key or FFT).
    """
    return rng.standard_normal((rows, n)) @ cholesky_factor(hurst, n).T
