"""Monte Carlo subordination of classical flow vs. fractional solves.

Oracles used here:

* free particle started at (0, 1): the subordinated mean position at time
  t is E[S(t)] = t^a/Gamma(1+a), so x(1) = 1/Gamma(1.5) at a = 1/2;
* harmonic oscillator started at (1, 0): the subordinated mean equals
  E_{2a}(-t^{2a}), which at a = 1/2, t = 1 is E_1(-1) = 1/e;
* for gradients linear in the state, averaging commutes with gradient
  evaluation, so commutation gaps sit at rounding level; the quartic
  gradient breaks this with a Jensen gap far above noise.

Statistical budgets are 3 standard errors plus the documented scheme
terms; seeds are frozen.
"""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fractime import (
    FracOrder,
    TimeGrid,
    exact_marginal_ensemble,
    harmonic,
    inverse_subordinator_paths,
    subordinate_flow,
    verify_stanislavsky,
)
from fractime.bridge import _commutation_nodes, verify_compatibility
from fractime import bridge, variational
from fractime.errors import DegenerateSampleError, OutOfRangeError
from fractime.fracops import caputo_left
from fractime.grids import Trajectory, write_csv
from fractime.systems import free_particle, quartic
from fractime.variational import causal_el_residual

HALF = FracOrder(0.5)


def _free_obs(m_paths=10000, n=8, seed=42, **kw):
    H = free_particle()
    grid = TimeGrid(0.0, 1.0, n)
    ens = inverse_subordinator_paths(HALF, grid, m_paths, seed=seed)
    return subordinate_flow(H, np.array([0.0, 1.0]), ens, **kw)


def test_subordinated_free_particle_mean_matches_power_law():
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 8), 10000, seed=42)
    obs = subordinate_flow(free_particle(), np.array([0.0, 1.0]), ens)
    oracle = 1.0 / math.gamma(1.5)
    dev = abs(obs.mean[-1, 0] - oracle)
    assert dev <= 3.0 * obs.stderr[-1, 0] + ens.tau_step


def test_initial_node_is_pinned_exactly():
    obs = _free_obs(m_paths=64)
    assert obs.mean[0, 0] == 0.0
    assert obs.mean[0, 1] == 1.0
    assert obs.stderr[0, 0] == 0.0
    assert obs.stderr[0, 1] == 0.0


def test_subordinated_free_particle_mean_is_monotone_concave():
    obs = _free_obs()
    mean = obs.mean[:, 0]
    band = obs.stderr[:, 0]
    diffs = np.diff(mean)
    assert np.all(diffs >= -(band[1:] + band[:-1]))
    second = np.diff(diffs)
    assert np.all(second <= 3.0 * (band[2:] + band[1:-1] + band[:-2]) + 1e-12)


def test_subordinated_harmonic_mean_matches_mittag_leffler():
    H = harmonic()
    grid = TimeGrid(0.0, 1.0, 8)
    obs = subordinate_flow(
        H, np.array([1.0, 0.0]), inverse_subordinator_paths(HALF, grid, 10000, seed=42)
    )
    dev = abs(obs.mean[-1, 0] - math.exp(-1.0))
    assert dev <= 3.0 * obs.stderr[-1, 0] + 5e-3


def test_momentum_mean_is_tracked_alongside_position():
    obs = _free_obs(m_paths=500)
    np.testing.assert_allclose(obs.mean[:, 1], 1.0, atol=1e-12)


def test_phase_views_stack_position_and_momentum():
    H = free_particle()
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 8), 64, seed=42)
    obs = subordinate_flow(H, np.array([0.0, 1.0]), ens)
    rep = verify_stanislavsky(H, np.array([0.0, 1.0]), ens)
    assert [label for label, _, _ in rep.tables] == ["x0", "p0"]
    assert obs.mean.shape == obs.stderr.shape == (9, 2)
    np.testing.assert_array_equal(obs.mean_x, obs.mean[:, :1])
    for k, (_, _, (t, mc_mean, mc_stderr, _, _)) in enumerate(rep.tables):
        np.testing.assert_array_equal(t, ens.t_grid.nodes())
        np.testing.assert_array_equal(mc_mean, obs.mean[:, k])
        np.testing.assert_array_equal(mc_stderr, obs.stderr[:, k])


def test_initial_state_size_is_validated():
    H = harmonic()
    with pytest.raises(OutOfRangeError):
        subordinate_flow(
            H, np.array([1.0]), inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 4), 16, seed=0)
        )


def test_observable_is_reproducible():
    a = _free_obs(m_paths=256, seed=9)
    b = _free_obs(m_paths=256, seed=9)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.stderr, b.stderr)


def test_single_path_ensemble_is_refused():
    # one path has no standard error; a flow over it must not report 0
    H = harmonic()
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 16), 1, seed=3)
    with pytest.raises(DegenerateSampleError, match="two paths"):
        subordinate_flow(H, np.array([1.0, 0.0]), ens)


@pytest.mark.parametrize("tau_step", [None, 10.0])
def test_classical_horizon_is_the_largest_sampled_internal_time(monkeypatch, tau_step):
    # tau_step = 10 puts every S(1) at 0, so the horizon falls back to tau_step
    grids = []
    real = bridge.solve_classical

    def spy(H, y0, grid):
        grids.append(grid)
        return real(H, y0, grid)

    monkeypatch.setattr(bridge, "solve_classical", spy)
    ens = inverse_subordinator_paths(
        HALF, TimeGrid(0.0, 1.0, 16), 2000, tau_step=tau_step, seed=42
    )
    subordinate_flow(harmonic(), np.array([1.0, 0.0]), ens)
    assert len(grids) == 1
    assert grids[0].a == 0.0
    assert grids[0].b == max(float(ens.paths[:, -1].max()), ens.tau_step)


def test_oversized_classical_horizon_is_refused_before_the_solve(monkeypatch):
    # tau_step = 10 makes the horizon 10, that is 10^4 classical steps
    solved = []
    monkeypatch.setattr(bridge, "solve_classical", lambda *args: solved.append(args))
    monkeypatch.setattr(bridge, "_MAX_CLASSICAL_STEPS", 9999)
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 16), 8, tau_step=10.0, seed=0)
    with pytest.raises(OutOfRangeError, match="largest sampled S"):
        subordinate_flow(harmonic(), np.array([1.0, 0.0]), ens)
    assert solved == []


def _per_row_flow(H, y0, ens, n_groups):
    """Reference: one np.interp per row and component, in coordinates
    shifted by y0 as subordinate_flow accumulates them; the commutation
    gap and its stderr from U' on every row, by numpy's mean and std."""
    tau_max = max(float(ens.paths[:, -1].max()), ens.tau_step)
    classical = bridge.solve_classical(
        H, y0, TimeGrid(0.0, tau_max, max(2048, math.ceil(tau_max / 1e-3)))
    )
    tau, cols = classical.grid.nodes(), classical.values - y0
    vals = np.stack(
        [np.stack([np.interp(s, tau, c) for c in cols.T], axis=1) for s in ens.paths]
    )
    size = ens.m_paths // n_groups
    group = np.minimum(np.arange(ens.m_paths) // size, n_groups - 1)
    gm = np.stack([vals[group == g].mean(axis=0) for g in range(n_groups)])
    se = vals.std(axis=0, ddof=1) / math.sqrt(ens.m_paths)
    mean = vals.mean(axis=0) + y0
    kept = _commutation_nodes(ens.t_grid.n)
    du = H.potential_grad(vals[:, kept, 0] + y0[0])
    gap = np.abs(H.potential_grad(mean[kept, 0]) - du.mean(axis=0))
    gap_se = du.std(axis=0, ddof=1) / math.sqrt(ens.m_paths)
    return mean, se, gm + y0, gap, gap_se


@pytest.mark.parametrize("m_paths", [1000, 130, 10])
def test_blocked_flow_matches_per_row_reference(m_paths):
    # groups of 62, 8 and 1 rows: blocks of 42 end inside and at group ends
    H = quartic()
    y0 = np.array([1.0, 0.5])
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 100), m_paths, seed=3)
    obs = subordinate_flow(H, y0, ens)
    mean, se, gm, gap, gap_se = _per_row_flow(H, y0, ens, min(16, m_paths))
    # only the order of summation differs: sums of <= 1000 values of size <= 2
    tol = dict(rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(obs.mean, mean, **tol)
    np.testing.assert_allclose(obs.stderr, se, **tol)
    np.testing.assert_allclose(obs.group_means, gm, **tol)
    comm = obs.commutation
    np.testing.assert_array_equal(comm.t, ens.t[_commutation_nodes(100)])
    assert comm.gap.shape == comm.stderr.shape == comm.t.shape
    np.testing.assert_allclose(comm.gap, gap, **tol)
    np.testing.assert_allclose(comm.stderr, gap_se, **tol)
    # node 0 is y0 on every row
    assert comm.gap[0] == 0.0 and comm.stderr[0] == 0.0


def _flow_on(monkeypatch, workers, *args, switch_often=True, **kw):
    """subordinate_flow on a pool of the given size, its threads switching
    every microsecond or at the interpreter's default interval."""
    monkeypatch.setattr(bridge, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    if switch_often:
        sys.setswitchinterval(1e-6)
    try:
        return subordinate_flow(*args, **kw)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("sample", [inverse_subordinator_paths, exact_marginal_ensemble])
@pytest.mark.parametrize("m_paths, switch_often", [(1037, False), (1037, True), (5, True)])
def test_flow_is_the_same_bits_on_any_worker_count(monkeypatch, sample, m_paths, switch_often):
    # 1,037 rows are groups of 64 rows (blocks of 42 and 22) and a
    # remainder group of 77 (42 and 35), folded at the default switch
    # interval and at 1 us; 5 rows are five one-row groups
    H = quartic()
    y0 = np.array([1.0, 0.5])
    ens = sample(HALF, TimeGrid(0.0, 2.0, 100), m_paths, seed=3)
    before = threading.active_count()
    one, four = (
        _flow_on(monkeypatch, w, H, y0, ens, switch_often=switch_often) for w in (1, 4)
    )
    assert threading.active_count() == before

    def arrays(obs):
        comm = obs.commutation
        return obs.mean, obs.stderr, obs.group_means, comm.t, comm.gap, comm.stderr

    for a, b in zip(arrays(one), arrays(four), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_an_error_in_a_block_propagates_and_the_pool_is_gone(monkeypatch):
    class BlockError(RuntimeError):
        pass

    solved = []
    solve_classical = bridge.solve_classical

    def solve_then_arm(*args):
        out = solve_classical(*args)
        solved.append(True)
        return out

    def raising(x):
        if solved:
            raise BlockError("dH/dx")
        return quartic().potential_grad(x)

    # U' raises once the Verlet solve is done, so it first fires inside a block
    monkeypatch.setattr(bridge, "solve_classical", solve_then_arm)
    H = dataclasses.replace(quartic(), potential_grad=raising)
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 100), 1037, seed=3)
    before = threading.active_count()
    with pytest.raises(BlockError, match="dH/dx"):
        _flow_on(monkeypatch, 4, H, np.array([1.0, 0.5]), ens)
    assert threading.active_count() == before


def test_quadratic_gradients_commute_with_averaging():
    # omega in {0.5, 1, 2} crossed with alpha in {0.3, 0.5, 0.8}
    for omega in (0.5, 1.0, 2.0):
        H = harmonic(omega=omega)
        for alpha in (0.3, 0.5, 0.8):
            obs = subordinate_flow(
                H,
                np.array([1.0, 0.0]),
                inverse_subordinator_paths(
                    FracOrder(alpha), TimeGrid(0.0, 2.0, 32), 2000, seed=42
                ),
            )
            rep = obs.commutation
            assert rep.significance <= 3.0, (omega, alpha, rep.significance)


def test_quartic_gradient_opens_significant_gap():
    H = quartic()
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 64), 10000, seed=42)
    rep = subordinate_flow(H, np.array([1.0, 0.0]), ens).commutation
    assert rep.significance > 10.0


def test_commutation_nodes_thin_fine_grids_to_a_64_step_grid():
    for n in range(2, 3000):
        kept = _commutation_nodes(n)
        assert kept[0] == 0 and kept[-1] == n
        assert len(kept) <= 65
        assert np.all(np.diff(kept) > 0)
        if n <= 64:
            np.testing.assert_array_equal(kept, np.arange(n + 1))
        # the 65 rounded grid points are distinct, so no deduplication is needed
        np.testing.assert_array_equal(kept, np.unique(np.rint(np.linspace(0, n, 65)).astype(int)))
    np.testing.assert_array_equal(_commutation_nodes(2048), 32 * np.arange(65))


def test_commutation_report_on_fine_grid_equals_64_step_grid_bitwise():
    H = quartic()
    y0 = np.array([1.0, 0.0])
    reports = []
    for n in (512, 64):
        ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, n), 500, seed=42)
        reports.append(subordinate_flow(H, y0, ens).commutation)
    fine, coarse = reports
    assert fine.significance > 0.0
    for field in ("t", "gap", "stderr"):
        assert np.array_equal(getattr(fine, field), getattr(coarse, field)), field


@pytest.mark.parametrize("n, m_paths", [(48, 500), (100, 500), (2048, 300)])
def test_flow_at_the_commutation_nodes_equals_the_full_flow_there(n, m_paths):
    # all 49 nodes, a 65-node set that is not uniform, and the 64-step grid
    H = quartic()
    y0 = np.array([1.0, 0.0])
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, n), m_paths, seed=42)
    kept = _commutation_nodes(n)
    full = subordinate_flow(H, y0, ens)
    part = subordinate_flow(H, y0, ens.at(kept))
    assert part.mean.shape == (len(kept), 2)
    np.testing.assert_array_equal(ens.at(kept).t, ens.t[kept])
    for name in ("mean", "stderr"):
        np.testing.assert_array_equal(getattr(part, name), getattr(full, name)[kept], name)
    a, b = part.commutation, full.commutation
    for name in ("t", "gap", "stderr"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)
    assert a.significance == b.significance


@pytest.mark.parametrize("thinned", [False, True], ids=["full", "thinned"])
def test_flow_interpolates_each_block_once(monkeypatch, thinned):
    # one np.interp per block of rows reads x and p as one complex column;
    # 1,037 rows are 15 groups of 64 and one of 77
    calls = []
    interp = np.interp

    def counting(x, xp, fp, *args, **kw):
        calls.append((x.shape, fp.dtype))
        return interp(x, xp, fp, *args, **kw)

    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 100), 1037, seed=3)
    if thinned:
        ens = ens.at(_commutation_nodes(100)[::3])
    monkeypatch.setattr(bridge.np, "interp", counting)
    subordinate_flow(quartic(), np.array([1.0, 0.5]), ens)
    sizes = [64] * 15 + [77]
    block = bridge._FLOW_BLOCK
    rows = sorted(r for size in sizes for r in [block] * (size // block) + [size % block] if r)
    assert sorted(shape[0] for shape, _ in calls) == rows
    assert all(shape == (shape[0], len(ens.t)) for shape, _ in calls)
    assert {dtype for _, dtype in calls} == {np.dtype(complex)}


def test_stanislavsky_check_never_holds_the_dense_ensemble():
    # the dense M x (n + 1) internal times alone would be 156 MiB
    H = harmonic()
    tracemalloc.start()
    try:
        ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 2048), 10**4, seed=42)
        (band,) = verify_stanislavsky(H, np.array([1.0, 0.0]), ens).checks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.passed
    assert peak < 32 << 20, peak


def test_flow_workspace_is_bounded_whatever_the_core_count(monkeypatch):
    # a worker holds a block and its complex values, 2 MiB at n = 2048, so
    # 64 workers would hold 128 MiB; the flow runs at most 8 here
    monkeypatch.setattr(bridge, "_workers", lambda: 64)
    H = harmonic()
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 2048), 10**4, seed=42)
    tracemalloc.start()
    try:
        subordinate_flow(H, np.array([1.0, 0.0]), ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20, peak


def test_derived_flow_holds_no_row_sized_array():
    # U' kept per row at the 65 commutation nodes would be M x 65 floats,
    # 5.2 MB here; the flow reduces it block by block instead
    H = quartic()
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 2048), 10**4, seed=42)
    at_nodes = ens.at(_commutation_nodes(2048))
    tracemalloc.start()
    try:
        obs = subordinate_flow(H, np.array([1.0, 0.0]), at_nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obs.commutation.significance > 10.0
    assert obs.path_x is None and obs.path_p is None
    assert peak < 2_000_000, peak


def test_equivalence_check_passes_for_harmonic_oscillator():
    H = harmonic()
    grid = TimeGrid(0.0, 2.0, 512)
    rep = verify_stanislavsky(
        H, np.array([1.0, 0.0]), inverse_subordinator_paths(HALF, grid, 4000, seed=42)
    )
    (band,) = rep.checks
    assert band.passed
    assert band.value >= 0.95


def test_equivalence_report_serializes_and_reruns_identically(tmp_path):
    H = free_particle()
    grid = TimeGrid(0.0, 1.0, 64)
    rep = verify_stanislavsky(
        H, np.array([0.0, 1.0]), inverse_subordinator_paths(HALF, grid, 1000, seed=7)
    )
    rep2 = verify_stanislavsky(
        H, np.array([0.0, 1.0]), inverse_subordinator_paths(HALF, grid, 1000, seed=7)
    )
    assert [t[:2] for t in rep.tables] == [t[:2] for t in rep2.tables]
    for (suffix, header, cols), (_, _, cols2) in zip(rep.tables, rep2.tables):
        write_csv(tmp_path / f"a_{suffix}.csv", header, cols)
        write_csv(tmp_path / f"b_{suffix}.csv", header, cols2)
        a, b = (tmp_path / f"{k}_{suffix}.csv" for k in "ab")
        assert a.read_bytes() == b.read_bytes()


def test_free_particle_statistics_are_translation_invariant():
    # A one-pass variance about 0 cancels away at x0 = 1e8 and clamps the
    # stderr to 0; shifted by y0 it matches x0 = 0.  What is left is the
    # rounding of each stored x0 + (x - x0) to a multiple of ulp(1e8).
    H = free_particle()
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 256), 4000, seed=42)
    near = subordinate_flow(H, np.array([0.0, 1.0]), ens)
    far = subordinate_flow(H, np.array([1e8, 1.0]), ens)
    assert far.stderr[-1, 0] > 0.0
    np.testing.assert_allclose(far.stderr[:, 0], near.stderr[:, 0], rtol=1e-5, atol=0.0)
    np.testing.assert_allclose(far.mean[:, 0] - 1e8, near.mean[:, 0], rtol=0.0, atol=1e-4)
    for x0 in (0.0, 1e8):
        (band,) = verify_stanislavsky(H, np.array([x0, 1.0]), ens).checks
        assert band.passed


def test_flow_from_a_large_offset_loses_no_digits_to_it():
    # the classical flow steps x - x0 and p - p0, so each step's increment
    # is not rounded to ulp(1e8) = 1.5e-8: the means from x0 = 1e8, shifted
    # back, match those from 0 to within one rounding of 1e8 + x
    H = free_particle()
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 2048), 10**4, seed=42)
    near = subordinate_flow(H, np.array([0.0, 1.0]), ens)
    far = subordinate_flow(H, np.array([1e8, 1.0]), ens)
    assert np.abs(far.mean[:, 0] - 1e8 - near.mean[:, 0]).max() <= np.spacing(1e8)


def test_near_unit_order_collapses_to_classical_flow():
    H = harmonic()
    grid = TimeGrid(0.0, 2.0, 512)
    obs = subordinate_flow(
        H, np.array([1.0, 0.0]), inverse_subordinator_paths(FracOrder(0.999), grid, 4000, seed=42)
    )
    dev = np.abs(obs.mean[:, 0] - np.cos(grid.nodes()))
    budget = 2e-2 + 3.0 * obs.stderr[:, 0]
    assert np.all(dev <= budget)


def test_compatibility_check_passes_for_natural_harmonic():
    rep = verify_compatibility(
        harmonic(),
        np.array([1.0, 0.0]),
        inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 512), 4000, seed=42),
    )
    assert [c.passed for c in rep.checks] == [True, True, True]


def test_compatibility_report_saves_expected_files(tmp_path):
    rep = verify_compatibility(
        harmonic(),
        np.array([1.0, 0.0]),
        inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 128), 500, seed=1),
    )
    assert [suffix for suffix, _, _ in rep.tables] == ["momentum_x0", "causal_el_x0"]
    for suffix, header, cols in rep.tables:
        assert header == ["t", "mc_mean", "mc_stderr", "fde_value", "gap"]
        write_csv(tmp_path / f"compat_{suffix}.csv", header, cols)
        lines = (tmp_path / f"compat_{suffix}.csv").read_text().splitlines()
        assert len(lines) == 1 + 129


def _per_curve_compatibility(L, y0, ens):
    """Reference: both derived identities one curve at a time, on the
    flow's mean and then on each group mean, with batch means over the
    per-group values stacked as (groups, nodes, 1); the check values and
    the two tables' columns after t."""
    obs = subordinate_flow(L, y0, ens)
    grid, order = ens.t_grid, ens.alpha

    def route(x):
        return L.mass * caputo_left(Trajectory(grid, x.copy()), order).values

    def residual(x):
        return causal_el_residual(L, Trajectory(grid, x.copy()), order).values

    def batch_stderr(per_group):
        stacked = np.stack(per_group)
        return stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])

    mean, groups = obs.mean, obs.group_means
    deriv = route(mean[:, :1])
    momentum_gap = np.abs(mean[:, 1:] - deriv)
    momentum_se = batch_stderr([g[:, 1:] - route(g[:, :1]) for g in groups])
    causal = np.abs(residual(mean[:, :1]))
    causal_se = batch_stderr([residual(g[:, :1]) for g in groups])
    values = [
        bridge._band_check("", momentum_gap, momentum_se, grid.n).value,
        bridge._band_check("", causal, causal_se, grid.n).value,
        obs.commutation.significance,
    ]
    momentum = [mean[:, 1], momentum_se[:, 0], deriv[:, 0], momentum_gap[:, 0]]
    residual_cols = [causal[:, 0], causal_se[:, 0], np.zeros(len(grid)), causal[:, 0]]
    return values, (momentum, residual_cols)


@pytest.mark.parametrize("m_paths", [2, 17, 1037])
@pytest.mark.parametrize("system", [harmonic, quartic])
def test_stacked_identities_match_the_per_curve_reference_bitwise(system, m_paths):
    # 2 one-row groups; 16 groups, the last of two rows; 16 groups, the
    # last taking the remainder of 77 rows
    L = system()
    y0 = np.array([1.0, 0.5])
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 100), m_paths, seed=7)
    rep = verify_compatibility(L, y0, ens)
    values, tables = _per_curve_compatibility(L, y0, ens)
    assert [c.value for c in rep.checks] == values
    for (_, _, cols), expected in zip(rep.tables, tables, strict=True):
        np.testing.assert_array_equal(cols[0], ens.t_grid.nodes())
        for col, ref in zip(cols[1:], expected, strict=True):
            assert col.shape == ref.shape and col.tobytes() == ref.tobytes()


def test_compatibility_applies_each_operator_once_on_all_curves(monkeypatch):
    # the derivative route, then dL/dv and its derivative in the causal
    # residual, each on the mean and its 16 group means at once
    shapes = []

    def counting(x, order):
        shapes.append(x.values.shape)
        return caputo_left(x, order)

    monkeypatch.setattr(bridge, "caputo_left", counting)
    monkeypatch.setattr(variational, "caputo_left", counting)
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 100), 1037, seed=7)
    verify_compatibility(quartic(), np.array([1.0, 0.5]), ens)
    assert shapes == [(101, 17)] * 3



def _assert_summary_survives_failed_replace(tmp_path, monkeypatch, capsys, command):
    # the CLI writer renames each file into place; a failed rename of the
    # summary must leave the earlier summary whole and no temporary behind
    from fractime import cli

    args = [command, "--n", "32", "--m-paths", "200", "--out", str(tmp_path)]
    # at this size the quartic check may FAIL (exit 1); the run still writes
    assert cli.main(args + ["--seed", "5"]) in (0, 1)
    summary = tmp_path / f"{command.removeprefix('verify-')}_summary.txt"
    before = summary.read_bytes()
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith("_summary.txt"):
            raise OSError("simulated failure while renaming into place")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert cli.main(args + ["--seed", "6"]) == 3
    assert "simulated failure" in capsys.readouterr().err
    assert summary.read_bytes() == before
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def test_comparison_summary_is_written_atomically(tmp_path, monkeypatch, capsys):
    _assert_summary_survives_failed_replace(tmp_path, monkeypatch, capsys, "verify-stanislavsky")


def test_compatibility_summary_is_written_atomically(tmp_path, monkeypatch, capsys):
    _assert_summary_survives_failed_replace(tmp_path, monkeypatch, capsys, "verify-compatibility")
