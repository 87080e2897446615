"""Acceptance suite: one test per shipped accuracy criterion.

Each test prints a single PASS/FAIL line with the measured numbers so a
full run doubles as an accuracy report.  Simulation-based criteria pin
the package default master seed (0); they are deterministic replays, not
fresh draws, so a failure here is a real discrepancy and not noise.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from _oracle import cholesky_factor, cholesky_fgn, kernel_gn, naive_gn_oracle
from lrdcp import (
    ExperimentSpec,
    FgnParams,
    LimitSimSpec,
    TimeSeries,
    build_profile,
    build_sampler,
    critical_values,
    fgn_autocovariance,
    run_experiment,
    sample_fgn,
    sample_fgn_block,
    tn_statistic,
)
from lrdcp.fgn import STREAM_LIMIT
from lrdcp.limitdist import simulate_limit_values
from lrdcp.sntest import batch_tn_from_values

HURSTS = (0.6, 0.7, 0.8, 0.9)


@pytest.fixture(scope="module")
def cv_tables():
    # production settings: grid 1000, 10,000 replications, default window
    return {hurst: critical_values(LimitSimSpec(hurst)) for hurst in HURSTS}


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _size_rate(cv_tables, hurst, n, reps=10_000):
    spec = ExperimentSpec(
        kind="size", hurst=hurst, n=n, replications=reps, level=0.05,
        master_seed=0,
    )
    return run_experiment(spec, cv_tables[hurst]).rejection_rate


def _power_rate(cv_tables, hurst, n, delta, tau, level, reps=5_000):
    spec = ExperimentSpec(
        kind="power", hurst=hurst, n=n, replications=reps, delta=delta,
        tau=tau, level=level, master_seed=0,
    )
    return run_experiment(spec, cv_tables[hurst]).rejection_rate


def test_criterion_01_critical_value_reproduction(cv_tables):
    cells = (
        (0.7, 0.05, 8.190125, 0.20),
        (0.6, 0.05, 7.276568, 0.15),
        (0.9, 0.01, 14.544094, 0.45),
    )
    details = []
    ok = True
    for hurst, level, target, tol in cells:
        got = cv_tables[hurst].critical_value(level)
        ok = ok and abs(got - target) <= tol
        details.append(f"H={hurst}/{level:g}: {got:.6f} vs {target} +-{tol}")
    _report(1, "critical value reproduction", ok, "; ".join(details))


def test_criterion_02_empirical_size(cv_tables):
    cells = ((0.8, 500), (0.6, 100))
    details = []
    ok = True
    for hurst, n in cells:
        rate = _size_rate(cv_tables, hurst, n)
        ok = ok and abs(rate - 0.049) <= 0.012
        details.append(f"H={hurst}/n={n}: {rate:.4f} vs 0.049 +-0.012")
    _report(2, "empirical size at the 5% level", ok, "; ".join(details))


def test_criterion_03_power_midpoint_change(cv_tables):
    cells = (
        (0.7, 500, 1.0, 0.985, 0.015),
        (0.6, 100, 0.5, 0.348, 0.03),
    )
    details = []
    ok = True
    for hurst, n, delta, target, tol in cells:
        rate = _power_rate(cv_tables, hurst, n, delta, tau=0.5, level=0.05)
        ok = ok and abs(rate - target) <= tol
        details.append(
            f"H={hurst}/n={n}/delta={delta:g}: {rate:.4f} vs {target} +-{tol}"
        )
    _report(3, "power for a midpoint change", ok, "; ".join(details))


def test_criterion_04_power_early_change(cv_tables):
    rate = _power_rate(cv_tables, 0.8, 100, 2.0, tau=0.25, level=0.10)
    detail = f"H=0.8/n=100/delta=2/tau=0.25/10%: {rate:.4f} vs 0.931 +-0.02"
    _report(4, "power for an early change", abs(rate - 0.931) <= 0.02, detail)


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    checked = 0
    for n in (10, 25, 50, 100, 200):
        for _ in range(50):
            ts = TimeSeries(rng.normal(size=n) * 3.0)
            values = kernel_gn(ts)
            for k in range(1, n):
                fast = values[k - 1]
                slow = naive_gn_oracle(ts, k)
                rel = abs(fast - slow) / max(abs(slow), 1e-300)
                worst = max(worst, rel)
                checked += 1
    detail = f"{checked} splits, worst relative difference {worst:.3e}"
    _report(5, "constant-time path equals direct oracle", worst < 1e-9, detail)


def test_criterion_06_rank_cusum_double_sum_identity():
    rng = np.random.default_rng(6)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(5, 201))
        x = rng.normal(size=n)
        d, _ = build_profile(TimeSeries(x))
        less = (x[:, None] < x[None, :]).astype(np.float64) - 0.5
        np.fill_diagonal(less, 0.0)
        # W_k = sum_{i<=k} sum_{j>k} (1{X_i < X_j} - 1/2), exact dyadic sums
        row_suffix = np.cumsum(less[:, ::-1], axis=1)[:, ::-1]
        w = np.array(
            [row_suffix[: k + 1, k + 1].sum() for k in range(n - 1)]
        )
        exact = exact and np.array_equal(d[1:n], w)
    detail = "1000 tie-free series, n in [5, 200], exact float equality"
    _report(6, "deviation equals pairwise double sum", exact, detail)


def test_criterion_07_invariance_suite():
    rng = np.random.default_rng(7)
    transforms = (
        np.exp,
        np.arctan,
        lambda v: v**3 + 2.0 * v,
        lambda v: 2.5 * v + 1.0,
    )
    ok = True
    for case in range(1000):
        n = int(rng.integers(20, 301))
        x = rng.normal(size=n)
        base = tn_statistic(TimeSeries(x))
        mapped = tn_statistic(TimeSeries(transforms[case % 4](x)))
        shifted = tn_statistic(TimeSeries(x + float(rng.normal() * 10)))
        ok = ok and mapped.statistic == base.statistic
        ok = ok and mapped.argmax_k == base.argmax_k
        ok = ok and shifted.statistic == base.statistic
        ok = ok and shifted.argmax_k == base.argmax_k
    detail = "1000 cases, strictly increasing maps and shifts, bitwise equal"
    _report(7, "rank invariance of statistic and split", ok, detail)


def test_criterion_08_consistency_in_n(cv_tables):
    rates = [
        _power_rate(cv_tables, 0.7, n, 1.0, tau=0.5, level=0.05, reps=200)
        for n in (100, 500, 2000)
    ]
    ok = rates[0] <= rates[1] <= rates[2] and rates[2] >= 0.99
    detail = (
        f"rates {rates[0]:.3f} <= {rates[1]:.3f} <= {rates[2]:.3f}, "
        f"n=2000 rate >= 0.99"
    )
    _report(8, "power grows toward one with n", ok, detail)


def test_criterion_09_local_alternative_stability(cv_tables):
    results = [
        run_experiment(
            ExperimentSpec(
                kind="local_alternative", hurst=0.7, n=n, replications=2000,
                c=5.0, tau=0.5, level=0.05, master_seed=0,
            ),
            cv_tables[0.7],
        )
        for n in (200, 500, 1000, 2000)
    ]
    rates = [result.rejection_rate for result in results]
    spread = max(rates) - min(rates)
    ok = spread < 0.05
    detail = (
        "rates " + ", ".join(f"{rate:.4f}" for rate in rates)
        + f"; spread {spread:.4f} < 0.05"
    )
    _report(9, "shrinking shifts give stable power", ok, detail)


def test_criterion_10_generator_quality():
    ok = True
    details = []
    series_count, length = 40, 2500  # 1e5 samples per Hurst value
    for hurst in (0.6, 0.8):
        sampler = build_sampler(FgnParams(hurst, length))
        block = sample_fgn_block(sampler, 0, range(series_count))
        worst = 0.0
        for lag in range(6):
            if lag == 0:
                prods = block * block
            else:
                prods = block[:, :-lag] * block[:, lag:]
            per_series = prods.mean(axis=1)
            err = abs(per_series.mean() - fgn_autocovariance(hurst, lag))
            se = per_series.std(ddof=1) / np.sqrt(series_count)
            worst = max(worst, err / se)
        ok = ok and worst <= 3.0
        details.append(f"H={hurst}: max |dev|/SE {worst:.2f} over lags 0..5")

    x = sample_fgn(build_sampler(FgnParams(0.5, 100_000)), 0)
    ks = stats.kstest(x, "norm").statistic
    acf = [
        abs(np.mean(x[:-lag] * x[lag:])) for lag in (1, 2, 3)
    ]
    bound = 4.0 / np.sqrt(x.size)
    smoke = ks < 0.01 and max(acf) < bound
    ok = ok and smoke
    details.append(
        f"H=0.5: KS {ks:.4f} < 0.01, max |acf(1..3)| {max(acf):.5f} < {bound:.5f}"
    )
    _report(10, "generator matches its covariance law", ok, "; ".join(details))


def _frobenius_z(z):
    """z-score of F = R * ||S - I||_F^2, S = Z'Z / R, for R rows of n.

    For i.i.d. N(0, 1) entries F has mean n(n+1) and variance
    n(8 + 48/R) + 2n(n-1)(2 + 6/R) + 8n(n-1)(n-2)/R + 32n(n-1)/R
    (diagonal and off-diagonal terms, and the covariances of terms that
    share an index), exactly.
    """
    rows, n = z.shape
    s = z.T @ z / rows
    s[np.diag_indices(n)] -= 1.0
    f = rows * np.sum(s * s)
    var = (n * (8 + 48 / rows) + 2 * n * (n - 1) * (2 + 6 / rows)
           + 8 * n * (n - 1) * (n - 2) / rows + 32 * n * (n - 1) / rows)
    return (f - n * (n + 1)) / np.sqrt(var)


def test_criterion_11_limit_law_matches_an_independent_sampler():
    # The package's limit law against the same functional of Cholesky
    # draws, which share only fgn_autocovariance with the package's
    # sampler; then the package's rows whitened by that Cholesky factor.
    ok = True
    details = []
    grid, paths = 256, 20_000
    for hurst in (0.6, 0.7, 0.9):
        spec = LimitSimSpec(hurst, grid_size=grid, replications=paths)
        package = simulate_limit_values(spec)
        k_lo, k_hi = spec.window.split_range(grid)
        draws = cholesky_fgn(hurst, grid, paths, np.random.default_rng(12345))
        oracle = batch_tn_from_values(draws, k_lo, k_hi, use_ranks=False)
        pvalue = stats.ks_2samp(package, oracle).pvalue
        ok = ok and pvalue >= 0.001
        details.append(f"H={hurst}: KS p {pvalue:.3f} >= 0.001")
    rows, n = 4000, 256
    for hurst in (0.55, 0.7, 0.95, 0.99):
        block = sample_fgn_block(build_sampler(FgnParams(hurst, n)), 0,
                                 range(rows), stream=STREAM_LIMIT)
        white = scipy.linalg.solve_triangular(
            cholesky_factor(hurst, n), block.T, lower=True).T
        z = _frobenius_z(white)
        ok = ok and abs(z) <= 4.0
        details.append(f"H={hurst}: whitened Frobenius z {z:+.2f} in [-4, 4]")
    _report(11, "limit law matches an independent sampler", ok,
            "; ".join(details))
