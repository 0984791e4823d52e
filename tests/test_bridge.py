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

import math
import os
import tracemalloc

import numpy as np
import pytest

from fractime import (
    FracOrder,
    TimeGrid,
    exact_marginal_ensemble,
    harmonic,
    inverse_subordinator_paths,
    legendre_transform,
    subordinate_flow,
    verify_stanislavsky,
)
from fractime.bridge import _commutation_nodes, verify_compatibility
from fractime import bridge
from fractime.errors import ConfigError, DegenerateSampleError, OutOfRangeError
from fractime.grids import write_csv
from fractime.systems import LagrangianSystem, free_particle, quartic

HALF = FracOrder(0.5)


def _free_obs(m_paths=10000, n=8, seed=42, **kw):
    H = legendre_transform(free_particle())
    grid = TimeGrid(0.0, 1.0, n)
    ens = inverse_subordinator_paths(HALF, grid, m_paths, seed=seed)
    return subordinate_flow(H, np.array([0.0, 1.0]), ens, **kw)


def test_subordinated_free_particle_mean_matches_power_law():
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 8), 10000, seed=42)
    obs = subordinate_flow(legendre_transform(free_particle()), np.array([0.0, 1.0]), ens)
    oracle = 1.0 / math.gamma(1.5)
    dev = abs(obs.mean_x[-1, 0] - oracle)
    assert dev <= 3.0 * obs.stderr_x[-1, 0] + ens.tau_step


def test_initial_node_is_pinned_exactly():
    obs = _free_obs(m_paths=64)
    assert obs.mean_x[0, 0] == 0.0
    assert obs.mean_p[0, 0] == 1.0
    assert obs.stderr_x[0, 0] == 0.0
    assert obs.stderr_p[0, 0] == 0.0


def test_subordinated_free_particle_mean_is_monotone_concave():
    obs = _free_obs()
    mean = obs.mean_x[:, 0]
    band = obs.stderr_x[:, 0]
    diffs = np.diff(mean)
    assert np.all(diffs >= -(band[1:] + band[:-1]))
    second = np.diff(diffs)
    assert np.all(second <= 3.0 * (band[2:] + band[1:-1] + band[:-2]) + 1e-12)


def test_subordinated_harmonic_mean_matches_mittag_leffler():
    H = legendre_transform(harmonic())
    grid = TimeGrid(0.0, 1.0, 8)
    obs = subordinate_flow(
        H, np.array([1.0, 0.0]), inverse_subordinator_paths(HALF, grid, 10000, seed=42)
    )
    dev = abs(obs.mean_x[-1, 0] - math.exp(-1.0))
    assert dev <= 3.0 * obs.stderr_x[-1, 0] + 5e-3


def test_momentum_mean_is_tracked_alongside_position():
    obs = _free_obs(m_paths=500)
    np.testing.assert_allclose(obs.mean_p[:, 0], 1.0, atol=1e-12)


def test_phase_views_stack_position_and_momentum():
    H = legendre_transform(free_particle())
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 8), 64, seed=42)
    obs = subordinate_flow(H, np.array([0.0, 1.0]), ens)
    rep = verify_stanislavsky(H, np.array([0.0, 1.0]), ens)
    assert [label for label, _, _ in rep.tables] == ["x0", "p0"]
    mean = np.hstack([obs.mean_x, obs.mean_p])
    stderr = np.hstack([obs.stderr_x, obs.stderr_p])
    for k, (_, _, (t, mc_mean, mc_stderr, _, _)) in enumerate(rep.tables):
        np.testing.assert_array_equal(t, ens.t_grid.nodes())
        np.testing.assert_array_equal(mc_mean, mean[:, k])
        np.testing.assert_array_equal(mc_stderr, stderr[:, k])


def test_initial_state_size_is_validated():
    H = legendre_transform(harmonic())
    with pytest.raises(OutOfRangeError):
        subordinate_flow(
            H, np.array([1.0]), inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 4), 16, seed=0)
        )


def test_observable_is_reproducible():
    a = _free_obs(m_paths=256, seed=9)
    b = _free_obs(m_paths=256, seed=9)
    np.testing.assert_array_equal(a.mean_x, b.mean_x)
    np.testing.assert_array_equal(a.stderr_p, b.stderr_p)


def test_single_path_ensemble_is_refused():
    # one path has no standard error; a flow over it must not report 0
    H = legendre_transform(harmonic())
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 16), 1, seed=3)
    with pytest.raises(DegenerateSampleError, match="two paths"):
        subordinate_flow(H, np.array([1.0, 0.0]), ens, derived=True)


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
    subordinate_flow(legendre_transform(harmonic()), np.array([1.0, 0.0]), ens)
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
        subordinate_flow(legendre_transform(harmonic()), np.array([1.0, 0.0]), ens)
    assert solved == []


def _per_row_flow(H, y0, ens, n_groups):
    """Reference: one np.interp per row and component, in coordinates
    shifted by y0 as subordinate_flow accumulates them; the commutation
    gap and its stderr from dH on every row, by numpy's mean and std."""
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
    at_kept = vals[:, kept] + y0
    dh = [H.dHdx(at_kept[..., :1], at_kept[..., 1:]), H.dHdp(at_kept[..., :1], at_kept[..., 1:])]
    at_mean = [H.dHdx(mean[kept, :1], mean[kept, 1:]), H.dHdp(mean[kept, :1], mean[kept, 1:])]
    gap = np.hstack([np.abs(m - v.mean(axis=0)) for m, v in zip(at_mean, dh)])
    gap_se = np.hstack([v.std(axis=0, ddof=1) / math.sqrt(ens.m_paths) for v in dh])
    return mean, se, gm + y0, gap, gap_se


@pytest.mark.parametrize("m_paths", [1000, 130, 10])
def test_blocked_flow_matches_per_row_reference(m_paths):
    # groups of 62, 8 and 1 rows: blocks of 64 end inside and at group ends
    H = legendre_transform(quartic())
    y0 = np.array([1.0, 0.5])
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 100), m_paths, seed=3)
    obs = subordinate_flow(H, y0, ens, derived=True)
    mean, se, gm, gap, gap_se = _per_row_flow(H, y0, ens, min(16, m_paths))
    # only the order of summation differs: sums of <= 1000 values of size <= 2
    tol = dict(rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(np.hstack([obs.mean_x, obs.mean_p]), mean, **tol)
    np.testing.assert_allclose(np.hstack([obs.stderr_x, obs.stderr_p]), se, **tol)
    np.testing.assert_allclose(np.concatenate([obs.group_means_x, obs.group_means_p], axis=2), gm, **tol)
    comm = obs.commutation
    np.testing.assert_array_equal(comm.t, ens.t[_commutation_nodes(100)])
    np.testing.assert_allclose(np.hstack([comm.gap_x, comm.gap_p]), gap, **tol)
    np.testing.assert_allclose(np.hstack([comm.stderr_x, comm.stderr_p]), gap_se, **tol)
    # node 0 is y0 on every row
    assert not np.any(np.hstack([comm.gap_x, comm.gap_p, comm.stderr_x, comm.stderr_p])[0])


def test_quadratic_gradients_commute_with_averaging():
    # omega in {0.5, 1, 2} crossed with alpha in {0.3, 0.5, 0.8}
    for omega in (0.5, 1.0, 2.0):
        H = legendre_transform(harmonic(omega=omega))
        for alpha in (0.3, 0.5, 0.8):
            obs = subordinate_flow(
                H,
                np.array([1.0, 0.0]),
                inverse_subordinator_paths(
                    FracOrder(alpha), TimeGrid(0.0, 2.0, 32), 2000, seed=42
                ),
                derived=True,
            )
            rep = obs.commutation
            assert rep.significance <= 3.0, (omega, alpha, rep.significance)


def test_quartic_gradient_opens_significant_gap():
    H = legendre_transform(quartic())
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 64), 10000, seed=42)
    rep = subordinate_flow(H, np.array([1.0, 0.0]), ens, derived=True).commutation
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
    H = legendre_transform(quartic())
    y0 = np.array([1.0, 0.0])
    reports = []
    for n in (512, 64):
        ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, n), 500, seed=42)
        reports.append(subordinate_flow(H, y0, ens, derived=True).commutation)
    fine, coarse = reports
    assert fine.significance > 0.0
    for field in ("t", "gap_x", "gap_p", "stderr_x", "stderr_p"):
        assert np.array_equal(getattr(fine, field), getattr(coarse, field)), field


@pytest.mark.parametrize("n, m_paths", [(48, 500), (100, 500), (2048, 300)])
def test_flow_at_the_commutation_nodes_equals_the_full_flow_there(n, m_paths):
    # all 49 nodes, a 65-node set that is not uniform, and the 64-step grid
    H = legendre_transform(quartic())
    y0 = np.array([1.0, 0.0])
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, n), m_paths, seed=42)
    kept = _commutation_nodes(n)
    full = subordinate_flow(H, y0, ens, derived=True)
    part = subordinate_flow(H, y0, ens.at(kept), derived=True)
    assert part.mean_x.shape == (len(kept), 1)
    np.testing.assert_array_equal(part.t, full.t[kept])
    for name in ("mean_x", "mean_p", "stderr_x", "stderr_p"):
        np.testing.assert_array_equal(getattr(part, name), getattr(full, name)[kept], name)
    a, b = part.commutation, full.commutation
    for name in ("t", "gap_x", "gap_p", "stderr_x", "stderr_p"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)
    assert a.significance == b.significance


def test_stanislavsky_check_never_holds_the_dense_ensemble():
    # the dense M x (n + 1) internal times alone would be 156 MiB
    H = legendre_transform(harmonic())
    tracemalloc.start()
    try:
        ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 2048), 10**4, seed=42)
        (band,) = verify_stanislavsky(H, np.array([1.0, 0.0]), ens).checks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.passed
    assert peak < 32 << 20, peak


def test_derived_flow_holds_no_row_sized_array():
    # dH kept per row at the 65 commutation nodes would be M x 65 x 2d
    # floats, 10.4 MB here; the flow reduces it block by block instead
    H = legendre_transform(quartic())
    ens = exact_marginal_ensemble(HALF, TimeGrid(0.0, 2.0, 2048), 10**4, seed=42)
    at_nodes = ens.at(_commutation_nodes(2048))
    tracemalloc.start()
    try:
        obs = subordinate_flow(H, np.array([1.0, 0.0]), at_nodes, derived=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obs.commutation.significance > 10.0
    assert obs.path_x is None and obs.path_p is None
    assert peak < 2_000_000, peak


def test_equivalence_check_passes_for_harmonic_oscillator():
    H = legendre_transform(harmonic())
    grid = TimeGrid(0.0, 2.0, 512)
    rep = verify_stanislavsky(
        H, np.array([1.0, 0.0]), inverse_subordinator_paths(HALF, grid, 4000, seed=42)
    )
    (band,) = rep.checks
    assert band.passed
    assert band.value >= 0.95


def test_equivalence_report_serializes_and_reruns_identically(tmp_path):
    H = legendre_transform(free_particle())
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
    # classical solve's own rounding at 1e8: each Verlet step adds h
    # rounded to a multiple of ulp(1e8) = 1.5e-8, a relative velocity
    # error of up to 7.5e-9/h (7.5e-6 at h = 1e-3; 1.8e-7 on this sample).
    H = legendre_transform(free_particle())
    ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 256), 4000, seed=42)
    near = subordinate_flow(H, np.array([0.0, 1.0]), ens)
    far = subordinate_flow(H, np.array([1e8, 1.0]), ens)
    assert far.stderr_x[-1, 0] > 0.0
    np.testing.assert_allclose(far.stderr_x, near.stderr_x, rtol=1e-5, atol=0.0)
    np.testing.assert_allclose(far.mean_x - 1e8, near.mean_x, rtol=0.0, atol=1e-4)
    for x0 in (0.0, 1e8):
        (band,) = verify_stanislavsky(H, np.array([x0, 1.0]), ens).checks
        assert band.passed


def test_near_unit_order_collapses_to_classical_flow():
    H = legendre_transform(harmonic())
    grid = TimeGrid(0.0, 2.0, 512)
    obs = subordinate_flow(
        H, np.array([1.0, 0.0]), inverse_subordinator_paths(FracOrder(0.999), grid, 4000, seed=42)
    )
    dev = np.abs(obs.mean_x[:, 0] - np.cos(grid.nodes()))
    budget = 2e-2 + 3.0 * obs.stderr_x[:, 0]
    assert np.all(dev <= budget)


def test_compatibility_check_passes_for_natural_harmonic():
    rep = verify_compatibility(
        harmonic(),
        np.array([1.0, 0.0]),
        inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 512), 4000, seed=42),
    )
    assert [c.passed for c in rep.checks] == [True, True, True]


def test_compatibility_requires_natural_structure():
    odd = LagrangianSystem(
        dim=1,
        lagrangian=lambda x, v, t: np.sum(v, axis=-1) ** 3,
        dLdx=lambda x, v, t: np.zeros_like(x),
        dLdv=lambda x, v, t: 3.0 * np.asarray(v) ** 2,
        natural=None,
    )
    with pytest.raises(ConfigError):
        verify_compatibility(
            odd,
            np.array([1.0, 0.0]),
            inverse_subordinator_paths(HALF, TimeGrid(0.0, 1.0, 64), 100, seed=0),
        )


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

def _stiff_lagrangian() -> LagrangianSystem:
    """L = v^4/4 + v^2/2 - x^2/2, given without natural-form data."""
    return LagrangianSystem(
        dim=1,
        lagrangian=lambda x, v, t: np.sum(v**4 / 4 + v**2 / 2 - x**2 / 2, axis=-1),
        dLdx=lambda x, v, t: -np.asarray(x, dtype=float),
        dLdv=lambda x, v, t: np.asarray(v, dtype=float) ** 3 + np.asarray(v, dtype=float),
        natural=None,
    )


def test_non_natural_legendre_transform_evaluates_stacked_points_pointwise():
    L = _stiff_lagrangian()
    H = legendre_transform(L)
    assert H.separable is None
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, size=(3, 5, 1))
    p = rng.uniform(-2.0, 2.0, size=(3, 5, 1))
    for fn, shape in ((H.dHdx, (3, 5, 1)), (H.dHdp, (3, 5, 1)), (H.hamiltonian, (3, 5))):
        stacked = fn(x, p)
        assert stacked.shape == shape
        for i in range(3):
            for j in range(5):
                assert np.array_equal(stacked[i, j], fn(x[i, j], p[i, j]))
    v = H.dHdp(x, p)
    assert np.abs(L.dLdv(x, v, 0.0) - p).max() <= 1e-10


def test_commutation_gap_runs_on_non_natural_hamiltonian():
    H = legendre_transform(_stiff_lagrangian())
    grid = TimeGrid(0.0, 1.0, 4)
    ens = exact_marginal_ensemble(HALF, grid, 6, seed=3)
    rep = subordinate_flow(H, np.array([1.0, 0.5]), ens, derived=True).commutation
    assert rep.gap_x.shape == rep.gap_p.shape == (len(grid), 1)
    # dH/dx = x exactly, so that component commutes with averaging
    assert rep.gap_x.max() <= 1e-12
    # dH/dp inverts p = v^3 + v, which is nonlinear: a Jensen gap opens
    assert rep.gap_p.max() > 1e-6
    # past node 0, where every row is y0
    assert np.all(rep.stderr_p[1:] > 0.0) and rep.stderr_p[0] == 0.0
