"""Stable subordinators, their inverses, and heavy-tailed renewal limits.

Statistical assertions use frozen seeds and three-standard-error budgets
(plus the documented O(tau_step) discretization bias where the inverse
process is involved).  Closed-form oracles:

* Laplace transform of a standard positive stable variable: exp(-s^a);
* the stable CDF at order 1/2: P(W <= w) = erfc(1/(2 sqrt(w)));
* moments of the inverse process: E[S(t)] = t^a / Gamma(1+a), and more
  generally E[exp(-v S(t))] equals the one-parameter Mittag-Leffler
  function at -v t^a;
* the one-time law S(t) = (t/W)^a, which the exact-marginal sampler draws
  and the sampled paths must match in distribution.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractime import FracOrder, MLParams, TimeGrid, mittag_leffler
from fractime.errors import DegenerateSampleError, GridError, OutOfRangeError
from fractime.stochastic_time import (
    _MARGINAL_KEY,
    MarginalEnsemble,
    SubordinatorEnsemble,
    _arrivals,
    _d_levels,
    _first_passage,
    _marginal_v,
    _path_rng,
    _stable_block,
    _stable_draws,
    ensemble_mean,
    exact_marginal_ensemble,
    inverse_subordinator_paths,
    ks_statistic,
    rescale_factor,
    scaling_samples,
)

HALF = FracOrder(0.5)


def _mean_stderr(samples):
    m = samples.mean()
    return m, samples.std(ddof=1) / math.sqrt(samples.size)


def test_stable_increment_laplace_transform():
    w = _stable_block(0.5, 20000, np.random.default_rng(42))
    assert np.all(w > 0.0)
    for lam in (0.5, 1.0, 2.0):
        mean, err = _mean_stderr(np.exp(-lam * w))
        assert abs(mean - math.exp(-(lam**0.5))) <= 3.0 * err


def test_stable_increment_laplace_transform_across_orders():
    for alpha in (0.3, 0.8):
        w = _stable_block(alpha, 20000, np.random.default_rng(42))
        mean, err = _mean_stderr(np.exp(-w))
        assert abs(mean - math.exp(-1.0)) <= 3.0 * err


def test_stable_half_order_cdf_matches_erfc():
    w = _stable_block(0.5, 50000, np.random.default_rng(42))
    frac = float(np.mean(w <= 1.0))
    p = math.erfc(0.5)
    err = math.sqrt(p * (1.0 - p) / w.size)
    assert abs(frac - p) <= 3.0 * err


def test_increment_scales_self_similarly():
    # D(c tau) has the law of c^(1/a) D(tau): at a = 1/2, 4x the step and
    # 16x the horizon draw the same blocks scaled by exactly 16
    a = _d_levels(0.5, 0.01, 2.0, np.random.default_rng(9))
    b = _d_levels(0.5, 0.04, 32.0, np.random.default_rng(9))
    np.testing.assert_array_equal(b, 16.0 * a)


def test_near_unit_order_increments_degenerate_to_duration():
    w = _stable_block(0.999, 4000, np.random.default_rng(3))
    # medians of the stable law collapse to 1 as a -> 1
    assert abs(np.median(w) - 1.0) < 0.05


def test_subordinator_path_starts_at_zero_and_increases():
    # the levels start after D(0) = 0, at D(tau_step)
    d = _d_levels(0.5, 0.01, 2.0, np.random.default_rng(1))
    assert d[0] > 0.0
    assert np.all(np.diff(d) > 0.0)
    assert d[-1] > 2.0


def test_first_passage_stops_at_the_first_sum_past_the_horizon():
    sizes = []

    def draws(seed):
        rng = np.random.default_rng(seed)

        def draw(size):
            sizes.append(size)
            return rng.random(size)

        return draw

    # a horizon below the first draw still draws one whole block
    c = _first_passage(draws(5), 32, 0.0)
    assert sizes == [32] and c.size == 1 and c[0] > 0.0
    # later blocks hold max(64, first // 4) draws; only the last sum passes
    sizes.clear()
    c = _first_passage(draws(5), 40, 100.0)
    assert sizes[0] == 40 and set(sizes[1:]) == {64} and len(sizes) > 2
    assert np.all(c[:-1] <= 100.0) and c[-1] > 100.0
    # the blocks are one stream: the sums are one long cumsum up to rounding
    whole = np.cumsum(np.random.default_rng(5).random(c.size))
    np.testing.assert_allclose(c, whole, rtol=1e-12)


def test_inverse_paths_shape_and_pinning():
    grid = TimeGrid(0.0, 1.0, 8)
    ens = inverse_subordinator_paths(HALF, grid, 32, seed=11)
    assert ens.paths.shape == (32, 9)
    assert np.all(ens.paths[:, 0] == 0.0)
    assert np.all(np.diff(ens.paths, axis=1) >= 0.0)
    assert ens.m_paths == 32


def test_ensemble_rejects_a_decreasing_path():
    grid = TimeGrid(0.0, 1.0, 4)
    paths = np.array([[0.0, 0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.3, 0.2, 0.4]])
    with pytest.raises(GridError, match="nondecreasing"):
        SubordinatorEnsemble(grid, paths, alpha=HALF, tau_step=0.1)
    SubordinatorEnsemble(grid, paths[:1], alpha=HALF, tau_step=0.1)
    # one column per node, in a two-dimensional array
    for shape in (paths[:, :4], paths[0]):
        with pytest.raises(GridError, match="one column per node"):
            SubordinatorEnsemble(grid, shape, alpha=HALF, tau_step=0.1)
    with pytest.raises(GridError, match="S\\(0\\) must be 0"):
        SubordinatorEnsemble(grid, paths[:1] + 0.1, alpha=HALF, tau_step=0.1)


def test_inverse_paths_require_grid_anchored_at_zero():
    with pytest.raises(GridError):
        inverse_subordinator_paths(HALF, TimeGrid(0.5, 1.0, 4), 8, seed=0)


def test_inverse_paths_validate_counts_and_step():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(OutOfRangeError):
        inverse_subordinator_paths(HALF, grid, 0, seed=0)
    with pytest.raises(OutOfRangeError):
        inverse_subordinator_paths(HALF, grid, 8, tau_step=0.0, seed=0)


def test_inverse_paths_cap_expected_levels_per_path():
    # at b = 1, alpha = 1/2 a path draws about 1/(Gamma(1.5) tau_step) levels
    grid = TimeGrid(0.0, 1.0, 2)
    edge = 1.0 / (math.gamma(1.5) * 1e6)
    with pytest.raises(OutOfRangeError, match="levels per path"):
        inverse_subordinator_paths(HALF, grid, 1, tau_step=0.99 * edge, seed=0)
    ens = inverse_subordinator_paths(HALF, grid, 1, tau_step=1.01 * edge, seed=0)
    assert ens.paths.shape == (1, 3)


def test_inverse_paths_cap_ensemble_size_before_allocating(monkeypatch):
    import fractime.stochastic_time as stochastic_time

    def no_allocation(*args, **kwargs):
        raise AssertionError("the ensemble was allocated")

    # 10^7 paths on 2049 nodes would ask for 164 GB
    monkeypatch.setattr(stochastic_time.np, "empty", no_allocation)
    with pytest.raises(OutOfRangeError, match="ensemble cap"):
        inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 2048), 10**7, seed=0)
    monkeypatch.undo()
    # the cap counts M x nodes values
    monkeypatch.setattr(stochastic_time, "_MAX_VALUES", 100)
    grid = TimeGrid(0.0, 1.0, 9)
    assert inverse_subordinator_paths(HALF, grid, 10, seed=0).paths.shape == (10, 10)
    with pytest.raises(OutOfRangeError, match="ensemble cap"):
        inverse_subordinator_paths(HALF, grid, 11, seed=0)


def test_ensemble_stderr_is_bitwise_numpy_std():
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 64), 300, seed=5)
    stats = ensemble_mean(ens)
    assert np.array_equal(stats.mean, ens.paths.mean(axis=0))
    assert np.array_equal(stats.stderr, ens.paths.std(axis=0, ddof=1) / math.sqrt(300))


def test_inverse_paths_are_reproducible_and_seed_sensitive():
    grid = TimeGrid(0.0, 1.0, 6)
    a = inverse_subordinator_paths(HALF, grid, 16, seed=5)
    b = inverse_subordinator_paths(HALF, grid, 16, seed=5)
    c = inverse_subordinator_paths(HALF, grid, 16, seed=6)
    np.testing.assert_array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)


def test_mean_internal_time_matches_power_law():
    grid = TimeGrid(0.0, 1.0, 8)
    ens = inverse_subordinator_paths(HALF, grid, 10000, seed=42)
    stats = ensemble_mean(ens)
    oracle = 1.0 / math.gamma(1.5)
    dev = abs(stats.mean[-1] - oracle)
    assert dev <= 3.0 * stats.stderr[-1] + ens.tau_step
    assert stats.mean[0] == 0.0
    assert stats.stderr[0] == 0.0


def test_laplace_functional_matches_mittag_leffler_lattice():
    grid = TimeGrid(0.0, 2.0, 4)
    ens = inverse_subordinator_paths(HALF, grid, 10000, seed=42)
    t_idx = [1, 2, 4]
    for v in (0.5, 1.0, 2.0):
        for i in t_idx:
            t = grid.nodes()[i]
            samples = np.exp(-v * ens.paths[:, i])
            mean, err = _mean_stderr(samples)
            oracle = mittag_leffler(MLParams(0.5), -v * t**0.5)
            assert abs(mean - oracle) <= 3.0 * err + ens.tau_step


def test_internal_time_is_self_similar_across_scales():
    # S(ct) has the law of c^a S(t); KS distance on frozen seeds
    for alpha in (0.3, 0.5, 0.8):
        order = FracOrder(alpha)
        grid = TimeGrid(0.0, 2.0, 2)
        a = inverse_subordinator_paths(order, grid, 4000, seed=7).paths
        b = inverse_subordinator_paths(order, grid, 4000, seed=1234).paths
        s_2t = a[:, 2]
        s_t_scaled = (2.0**alpha) * b[:, 1]
        ks = ks_statistic(s_2t, s_t_scaled)
        assert ks < 0.05


def test_near_unit_order_internal_time_tracks_real_time():
    grid = TimeGrid(0.0, 1.0, 8)
    ens = inverse_subordinator_paths(FracOrder(0.999), grid, 2000, seed=2)
    stats = ensemble_mean(ens)
    assert np.abs(stats.mean - grid.nodes()).max() < 1e-2


def test_ensemble_mean_rejects_single_path():
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 4), 1, seed=0)
    with pytest.raises(DegenerateSampleError):
        ensemble_mean(ens)


def test_ensemble_mean_matches_manual_formulas():
    grid = TimeGrid(0.0, 1.0, 2)
    vals = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0]])
    stats = ensemble_mean(SubordinatorEnsemble(grid, vals, HALF, 1e-3))
    np.testing.assert_allclose(stats.mean, [0.0, 2.0, 3.0])
    expect = np.std(vals, axis=0, ddof=1) / math.sqrt(2.0)
    np.testing.assert_allclose(stats.stderr, expect)


def test_ensemble_csv_roundtrip(tmp_path, capsys):
    # the subordinator command writes the grid with the first 16 paths, and
    # the stats, at 17 significant digits: both read back bit for bit
    from fractime import cli

    args = ["subordinator", "--b", "1", "--n", "4", "--m-paths", "20", "--seed", "3"]
    assert cli.main([*args, "--out", str(tmp_path)]) in (0, 1)
    capsys.readouterr()
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 4), 20, seed=3)
    stats = ensemble_mean(ens)
    t = ens.t_grid.nodes()
    for name, header, cols in (
        ("paths", "t," + ",".join(f"path{i}" for i in range(16)), [t, *ens.paths[:16]]),
        ("stats", "t,mean,stderr", [t, stats.mean, stats.stderr]),
    ):
        path = tmp_path / f"subordinator_{name}.csv"
        assert path.read_text().splitlines()[0] == header
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back, np.column_stack(cols))


def test_exact_marginal_rows_are_reproducible_pinned_and_monotone():
    grid = TimeGrid(0.0, 2.0, 100)
    a = exact_marginal_ensemble(HALF, grid, 500, seed=5)
    b = exact_marginal_ensemble(HALF, grid, 500, seed=5)
    c = exact_marginal_ensemble(HALF, grid, 500, seed=6)
    np.testing.assert_array_equal(a.rows(0, 500), b.rows(0, 500))
    assert not np.array_equal(a.rows(0, 500), c.rows(0, 500))
    assert a.rows(0, 500).shape == (500, 101)
    assert np.all(a.rows(0, 500)[:, 0] == 0.0)
    assert np.all(np.diff(a.rows(0, 500), axis=1) >= 0.0)
    assert np.all(a.rows(0, 500)[:, 1:] > 0.0)


def test_exact_marginal_mean_matches_power_law():
    for alpha in (0.3, 0.5, 0.8):
        grid = TimeGrid(0.0, 2.0, 4)
        stats = ensemble_mean(exact_marginal_ensemble(FracOrder(alpha), grid, 10000, seed=42))
        oracle = grid.nodes() ** alpha / math.gamma(1.0 + alpha)
        assert np.all(np.abs(stats.mean - oracle) <= 3.0 * stats.stderr)


def test_exact_marginal_laplace_functional_matches_mittag_leffler_lattice():
    # acceptance 5's lattice, with no tau_step term in the budget
    grid = TimeGrid(0.0, 2.0, 4)
    ens = exact_marginal_ensemble(HALF, grid, 10000, seed=42)
    for v in (0.5, 1.0, 2.0):
        for i in (1, 2, 4):
            t = grid.nodes()[i]
            mean, err = _mean_stderr(np.exp(-v * ens.rows(0, 10000)[:, i]))
            assert abs(mean - mittag_leffler(MLParams(0.5), -v * t**0.5)) <= 3.0 * err


def test_exact_marginal_refuses_before_allocating(monkeypatch):
    import fractime.stochastic_time as stochastic_time

    def no_allocation(*args, **kwargs):
        raise AssertionError("the ensemble was allocated")

    monkeypatch.setattr(stochastic_time, "_stable_draws", no_allocation)
    monkeypatch.setattr(stochastic_time.np, "outer", no_allocation)
    with pytest.raises(GridError, match="a must be 0"):
        exact_marginal_ensemble(HALF, TimeGrid(0.5, 1.0, 4), 8, seed=0)
    with pytest.raises(OutOfRangeError, match="at least 1"):
        exact_marginal_ensemble(HALF, TimeGrid(0.0, 1.0, 4), 0, seed=0)
    with pytest.raises(OutOfRangeError, match="ensemble cap"):
        exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 2048), 10**7, seed=0)
    monkeypatch.undo()
    # the cap counts M x nodes values, as for sampled paths
    monkeypatch.setattr(stochastic_time, "_MAX_VALUES", 100)
    grid = TimeGrid(0.0, 1.0, 9)
    assert exact_marginal_ensemble(HALF, grid, 10, seed=0).rows(0, 10).shape == (10, 10)
    with pytest.raises(OutOfRangeError, match="ensemble cap"):
        exact_marginal_ensemble(HALF, grid, 11, seed=0)


def _dense_exact_rows(alpha, grid, M, seed):
    """Reference: the exact ensemble as one M x (n + 1) array, drawn from
    the same stream, as np.outer(V, t^alpha)."""
    v = _marginal_v(alpha, *_stable_draws(M, _path_rng(seed, (_MARGINAL_KEY, 0))))
    return np.outer(v, grid.nodes() ** alpha)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_marginal_v_is_w_to_the_minus_alpha(alpha):
    # V's form and W^-alpha of the stable map, from the same draws
    u, e = _stable_draws(200_000, np.random.default_rng(7))
    v = _marginal_v(alpha, u, e)
    w = _stable_block(alpha, 200_000, np.random.default_rng(7))
    assert np.abs(v / w**-alpha - 1.0).max() <= 2e-15


@pytest.mark.parametrize("alpha", [0.001, 0.01])
def test_marginal_v_is_finite_and_positive_at_small_alpha(alpha):
    # W overflows here for most draws; V tends to the exponential e as
    # alpha -> 0, and E[V] = 1 / Gamma(1 + alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = _marginal_v(alpha, *_stable_draws(100_000, np.random.default_rng(7)))
    assert np.all(np.isfinite(v)) and np.all(v > 0.0)
    mean, err = _mean_stderr(v)
    assert abs(mean - 1.0 / math.gamma(1.0 + alpha)) <= 3.0 * err


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_factored_rows_equal_the_dense_outer_product_bitwise(alpha):
    grid = TimeGrid(0.0, 2.0, 100)
    ens = exact_marginal_ensemble(FracOrder(alpha), grid, 300, seed=11)
    dense = _dense_exact_rows(alpha, grid, 300, 11)
    for lo, hi in ((0, 300), (0, 64), (64, 128), (256, 300), (299, 300), (7, 7)):
        np.testing.assert_array_equal(ens.rows(lo, hi), dense[lo:hi])
        # formed into a caller's buffer, the same bits
        buf = np.full((hi - lo, len(grid)), np.nan)
        assert ens.rows(lo, hi, out=buf) is buf
        np.testing.assert_array_equal(buf, dense[lo:hi])
    assert ens.s_end == dense[:, -1].max()
    assert ens.m_paths == 300
    # thinned to some columns, the rows are the dense columns, bit for bit
    cols = np.array([0, 3, 50, 99, 100])
    thin = ens.at(cols)
    np.testing.assert_array_equal(thin.rows(0, 300), dense[:, cols])
    np.testing.assert_array_equal(thin.t, grid.nodes()[cols])
    assert thin.s_end == ens.s_end


def test_ensemble_mean_of_factored_rows_equals_dense_statistics_bitwise():
    # 300 rows: the blocks of 64 end inside the ensemble
    grid = TimeGrid(0.0, 2.0, 16)
    dense = _dense_exact_rows(0.5, grid, 300, 4)
    stats = ensemble_mean(exact_marginal_ensemble(HALF, grid, 300, seed=4))
    assert np.array_equal(stats.mean, dense.mean(axis=0))
    assert np.array_equal(stats.stderr, dense.std(axis=0, ddof=1) / math.sqrt(300))


def test_factored_ensemble_refuses_invalid_factors():
    grid = TimeGrid(0.0, 1.0, 4)
    t = grid.nodes()
    profile = np.sqrt(t)
    MarginalEnsemble(grid, t, np.array([0.5, 2.0]), profile, HALF)
    for scale in ([0.5, 0.0], [0.5, -1.0], [0.5, np.nan]):
        with pytest.raises(GridError, match="positive"):
            MarginalEnsemble(grid, t, np.array(scale), profile, HALF)
    with pytest.raises(GridError, match="nondecreasing"):
        MarginalEnsemble(grid, t, np.ones(2), profile[[0, 1, 3, 2, 4]], HALF)
    with pytest.raises(GridError, match="S\\(0\\)"):
        MarginalEnsemble(grid, t, np.ones(2), profile + 1.0, HALF)
    with pytest.raises(GridError, match="one profile value per node"):
        MarginalEnsemble(grid, t, np.ones(2), profile[:-1], HALF)


def _ensemble_with(path=None, profile=None, scale=(0.5, 2.0)):
    grid = TimeGrid(0.0, 1.0, 4)
    if path is not None:
        return SubordinatorEnsemble(grid, np.array([path]), alpha=HALF, tau_step=0.1)
    t = grid.nodes()
    profile = np.sqrt(t) if profile is None else np.array(profile)
    return MarginalEnsemble(grid, t, np.array(scale), profile, HALF)


@pytest.mark.parametrize(
    "kw",
    [
        # NaN compares False both ways, so a test for a decrease lets it through
        dict(path=[0.0, 0.1, np.nan, 0.3, 0.4]),
        dict(profile=[0.0, 0.1, np.nan, 0.3, 0.4]),
        # inf > 0, and the flow's horizon would be inf
        dict(scale=[0.5, np.inf]),
        dict(path=[0.0, 0.1, 0.2, 0.3, np.inf]),
        dict(profile=[0.0, 0.1, 0.2, 0.3, np.inf]),
    ],
)
def test_ensembles_refuse_nan_and_inf(kw):
    with pytest.raises(GridError):
        _ensemble_with(**kw)


def test_exact_marginal_ensemble_holds_its_factors_only():
    # the dense M x (n + 1) array alone would be 156 MiB
    grid = TimeGrid(0.0, 2.0, 2048)
    # a first small draw, so one-time set-up of the generator is not counted
    exact_marginal_ensemble(HALF, grid, 2, seed=0)
    tracemalloc.start()
    try:
        ens = exact_marginal_ensemble(HALF, grid, 10**4, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.m_paths == 10**4
    assert peak < 1 << 20, peak


def test_sampled_paths_match_the_exact_one_time_law():
    # two-sample KS at M = 10^4 each: the 5% critical value is 1.36 sqrt(2/M),
    # and 1.63 sqrt(2/M) ~ 0.023 is the 1% one
    grid = TimeGrid(0.0, 1.0, 2)
    for alpha in (0.3, 0.5, 0.8):
        order = FracOrder(alpha)
        paths = inverse_subordinator_paths(order, grid, 10000, seed=42).paths[:, -1]
        exact = exact_marginal_ensemble(order, grid, 10000, seed=42).rows(0, 10000)[:, -1]
        assert ks_statistic(paths, exact) < 1.63 * math.sqrt(2.0 / 10000)


def test_renewal_waits_are_unit_pareto():
    # the gaps of a long renewal path: at least 1, with the quantiles of
    # the inverse CDF (1 - q)^(-1/alpha)
    times = _arrivals(0.5, 1e11, np.random.default_rng(42))
    waits = np.diff(times, prepend=0.0)
    assert waits.size > 100000 and np.all(waits >= 1.0)
    for q in (0.25, 0.5, 0.75):
        assert np.quantile(waits, q) == pytest.approx((1.0 - q) ** (-2.0), rel=0.05)


def test_renewal_process_with_long_waits_never_jumps():
    assert _arrivals(0.5, 0.1, np.random.default_rng(0)).size == 0


def test_renewal_counts_are_monotone_in_time():
    times = _arrivals(0.5, 1000.0, np.random.default_rng(4))
    assert np.all(np.diff(times) > 0.0)
    assert 1.0 <= times[0] and times[-1] <= 1000.0
    counts = np.searchsorted(times, np.linspace(0.0, 1000.0, 21), side="right")
    assert np.all(np.diff(counts) >= 0)
    assert counts[-1] > 0


def test_scaling_samples_validate_ranges():
    with pytest.raises(OutOfRangeError):
        scaling_samples(HALF, 50.0, 2000, seed=0)
    with pytest.raises(OutOfRangeError):
        scaling_samples(HALF, 1000.0, 10, seed=0)
    # its S(1) grid is fixed, so the cap names m_paths alone
    with pytest.raises(OutOfRangeError, match="lower m_paths$"):
        scaling_samples(HALF, 1000.0, 2 * 10**9, seed=0)


def test_scaling_samples_draw_s1_as_the_exact_ensemble_draws_its_scales():
    order = FracOrder(0.7)
    _, s1 = scaling_samples(order, 1000.0, 1000, seed=3)
    ens = exact_marginal_ensemble(order, TimeGrid(0.0, 1.0, 2), 1000, seed=3)
    np.testing.assert_array_equal(s1, ens.scale)
    np.testing.assert_array_equal(s1, ens.rows(0, 1000)[:, -1])


def test_scaling_samples_report_degenerate_counts():
    # at alpha = 0.1 most waits pass c = 100 (P(N_c = 0) = 0.63): most
    # counts are zero, and the law says so before any sampling
    with pytest.raises(OutOfRangeError, match=re.escape("c must exceed 2^(1/alpha)")):
        scaling_samples(FracOrder(0.1), 100.0, 1000, seed=0)


def test_scaling_samples_refuse_a_zero_median_count_by_the_law():
    # P(N_c = 0) = c^-alpha >= 1/2 exactly when c <= 2^(1/alpha), 256 here
    eighth = FracOrder(0.125)
    with pytest.raises(OutOfRangeError, match="c = 255 with P"):
        scaling_samples(eighth, 255.0, 1000, seed=0)
    counts, _ = scaling_samples(eighth, 1000.0, 1000, seed=0)
    assert np.median(counts) > 0
    # 2^(1/alpha) overflows a double here; the test runs in logs
    with pytest.raises(OutOfRangeError, match="c = 1e\\+300"):
        scaling_samples(FracOrder(1e-4), 1e300, 1000, seed=0)


@pytest.mark.parametrize("c, refused", [(1e300, True), (1e13, True), (9.9e11, False)])
def test_scaling_samples_refuse_more_arrivals_than_a_path_holds(monkeypatch, c, refused):
    # a path's first draw holds about 1.5 c^alpha waits: 10^150 and 10^6.5
    # at alpha = 1/2, refused in logs before any draw; 9.95e5 is within the
    # 1e6 cap and goes on to draw
    import fractime.stochastic_time as stochastic_time

    class Drawn(Exception):
        pass

    def draw(*args):
        raise Drawn

    monkeypatch.setattr(stochastic_time, "_arrivals", draw)
    if refused:
        with pytest.raises(OutOfRangeError, match=re.escape(f"c = {c:g} needs")):
            scaling_samples(HALF, c, 1000, seed=0)
    else:
        with pytest.raises(Drawn):
            scaling_samples(HALF, c, 1000, seed=0)


def test_scaling_samples_report_a_zero_sample_median():
    # alpha = 0.151 lies just above log 2 / log 101 = 0.1502, so
    # P(N_c = 0) = 101^-0.151 = 0.4981 < 1/2 passes the law's test, and at
    # this seed 501 of the 1000 counts are still zero
    with pytest.raises(DegenerateSampleError, match="median count is 0"):
        scaling_samples(FracOrder(0.151), 101.0, 1000, seed=1)


def test_scaling_samples_read_exact_s1_not_sampled_paths(monkeypatch):
    import fractime.stochastic_time as stochastic_time

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return inverse_subordinator_paths(*args, **kwargs)

    monkeypatch.setattr(stochastic_time, "inverse_subordinator_paths", spy)
    order = FracOrder(0.7)
    counts, s1 = scaling_samples(order, 1000.0, 2000, seed=9)
    assert calls == []
    # S(1) is the scale of the exact ensemble on [0, 1], the same bits as
    # its rows at t = 1, where the profile is 1.0 ** alpha == 1.0
    ens = exact_marginal_ensemble(order, TimeGrid(0.0, 1.0, 2), 2000, seed=9)
    assert s1.tobytes() == ens.scale.tobytes()
    assert s1.tobytes() == ens.rows(0, 2000)[:, -1].tobytes()


def test_rescaled_counts_converge_to_internal_time_law():
    counts, s1 = scaling_samples(HALF, 10000.0, 10000, seed=42)
    assert ks_statistic(counts / rescale_factor(counts, s1), s1) < 0.05


def test_rescale_factor_is_positive_median_ratio():
    counts, s1 = scaling_samples(HALF, 2000.0, 2000, seed=1)
    b = rescale_factor(counts, s1)
    assert b > 0.0
    assert np.median(counts / b) == pytest.approx(np.median(s1), rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.2, 0.9), seed=st.integers(0, 2**20))
def test_inverse_paths_always_monotone(alpha, seed):
    grid = TimeGrid(0.0, 0.5, 5)
    ens = inverse_subordinator_paths(FracOrder(alpha), grid, 8, seed=seed)
    assert np.all(np.diff(ens.paths, axis=1) >= 0.0)
    assert np.all(ens.paths[:, 0] == 0.0)


def _ks_pairs(rng, sizes):
    """Continuous pairs, and tied integer pairs on small supports."""
    for n1, n2 in sizes:
        yield rng.normal(size=n1), rng.normal(0.1, 1.2, size=n2)
        yield (
            rng.integers(0, 12, size=n1).astype(float),
            rng.integers(0, 15, size=n2).astype(float),
        )


def test_ks_statistic_equals_scipy_exact_mode():
    # up to 10,000 samples scipy snaps d to h / lcm(n1, n2), as ks_statistic does
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(2024)
    sizes = [(1, 1), (1, 7), (5, 5), (10000, 10000), (9973, 10000), (3, 10000)]
    sizes += [tuple(int(v) for v in rng.integers(1, 10001, size=2)) for _ in range(60)]
    for a, b in _ks_pairs(rng, sizes):
        assert ks_statistic(a, b) == ks_2samp(a, b).statistic, (a.size, b.size)


def test_ks_statistic_equals_scipy_on_scaling_limit_samples():
    from scipy.stats import ks_2samp

    for alpha in (0.5, 0.8):
        counts, s1 = scaling_samples(FracOrder(alpha), 1e4, 10000, seed=42)
        rescaled = counts / rescale_factor(counts, s1)
        assert ks_statistic(rescaled, s1) == ks_2samp(rescaled, s1).statistic


def test_ks_statistic_tracks_scipy_asymptotic_mode():
    # above 10,000 samples scipy keeps its float difference of CDFs
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(7)
    sizes = [(10001, 10001), (20000, 30000), (12345, 500), (40000, 40000)]
    for a, b in _ks_pairs(rng, sizes):
        assert abs(ks_statistic(a, b) - ks_2samp(a, b).statistic) <= 2.3e-16
