"""Acceptance gate: the eleven go/no-go checks, one test each.

Each test exercises its full stated configuration (grid sizes, path
counts, seeds, tolerances, runtime budgets), prints a single verdict
line, and fails loudly if the tolerance or the time budget is missed.
The verdict lines are echoed again in the terminal summary.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fractime import (
    FracOrder,
    MLParams,
    TimeGrid,
    harmonic,
    legendre_transform,
    mittag_leffler,
    solve_fde,
    subordinate_flow,
    verify_stanislavsky,
)
from fractime.bridge import verify_compatibility
from fractime.dynamics import solve_fde_system
from fractime.fracops import caputo_left, embed_operator, ibp_residual
from fractime.grids import Trajectory, trapezoid
from fractime.reports import interior_window
from fractime.stochastic_time import (
    WaitingTimeLaw,
    ensemble_mean,
    inverse_subordinator_paths,
    ks_statistic,
    rescale_factor,
    scaling_samples,
)
from fractime.systems import quartic
from fractime.variational import (
    action,
    causal_el_residual,
    classical_el_operator,
    directional_derivative,
    general_el_residual,
    sample_variation,
)

from conftest import record_acceptance

HALF = FracOrder(0.5)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _verdict(number, passed, elapsed, budget, detail):
    record_acceptance(
        number, passed and elapsed < budget, f"{detail} ({elapsed:.1f}s < {budget:.0f}s)"
    )
    assert passed, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget:.0f}s"


def test_acceptance_01_mittag_leffler_oracle_suite():
    with _Timer() as tm:
        worst_exp = max(
            abs(mittag_leffler(MLParams(1.0), float(z)) - math.exp(z))
            for z in np.linspace(-10.0, 5.0, 151)
        )
        worst_cos = max(
            abs(mittag_leffler(MLParams(2.0), float(-z * z)) - math.cos(z))
            for z in np.linspace(0.0, 7.0, 71)
        )
        dev_half = abs(mittag_leffler(MLParams(0.5), -1.0) - 0.4275835762)
    ok = worst_exp <= 1e-10 and worst_cos <= 1e-10 and dev_half <= 1e-8
    _verdict(
        1, ok, tm.elapsed, 1.0,
        f"Mittag-Leffler suite: |E_1-exp| {worst_exp:.1e}, |E_2-cos| {worst_cos:.1e}, "
        f"|E_0.5(-1)-0.4275835762| {dev_half:.1e}",
    )


def test_acceptance_02_caputo_convergence_order():
    with _Timer() as tm:
        errs = {}
        for n in (128, 256, 512, 1024):
            grid = TimeGrid(0.0, 1.0, n)
            got = caputo_left(
                Trajectory.from_callable(grid, lambda t: t * t), HALF
            ).values[:, 0]
            oracle = 2.0 * grid.nodes() ** 1.5 / math.gamma(2.5)
            w = interior_window(n)
            errs[n] = float(np.abs(got - oracle)[w : n + 1 - w].max())
        orders = [math.log2(errs[n] / errs[2 * n]) for n in (128, 256, 512)]

        grid = TimeGrid(0.0, 1.0, 256)
        const_dev = float(
            np.abs(caputo_left(Trajectory.constant(grid, 4.2), HALF).values).max()
        )
        lin = Trajectory.from_callable(grid, lambda t: 1.0 + 2.0 * t)
        lin_dev = float(
            np.abs(
                caputo_left(lin, HALF).values[:, 0]
                - 2.0 * grid.nodes() ** 0.5 / math.gamma(1.5)
            ).max()
        )
    ok = min(orders) >= 1.4 and const_dev == 0.0 and lin_dev <= 1e-12
    _verdict(
        2, ok, tm.elapsed, 5.0,
        f"Caputo order {min(orders):.2f} >= 1.4, constants {const_dev:.1e}, "
        f"affine {lin_dev:.1e}",
    )


def test_acceptance_03_integration_by_parts_residual():
    with _Timer() as tm:
        grid = TimeGrid(0.0, 1.0, 2048)
        pairs = [
            (lambda t: t * t, lambda t: (1.0 - t) ** 2),
            (lambda t: t * (1.0 + t), lambda t: 1.0 + t * t),
        ]
        residuals = [
            ibp_residual(
                Trajectory.from_callable(grid, f), Trajectory.from_callable(grid, g), HALF
            )
            for f, g in pairs
        ]
    ok = max(residuals) <= 5e-3
    _verdict(
        3, ok, tm.elapsed, 5.0,
        f"integration-by-parts residuals {residuals[0]:.1e}, {residuals[1]:.1e} <= 5e-3",
    )


def test_acceptance_04_fde_solver_oracles():
    with _Timer() as tm:
        grid = TimeGrid(0.0, 1.0, 4096)
        relax = solve_fde_system(lambda t, y: -y, np.array([1.0]), grid, HALF)
        dev_relax = abs(relax.values[-1, 0] - mittag_leffler(MLParams(0.5), -1.0))

        H = legendre_transform(harmonic())
        osc_grid = TimeGrid(0.0, 1.0, 2048)
        osc = solve_fde(H, np.array([1.0, 0.0]), osc_grid, HALF)
        oracle = np.array(
            [mittag_leffler(MLParams(1.0), -t) for t in osc_grid.nodes()]
        )
        dev_osc = float(np.abs(osc.y.values[:, 0] - oracle).max())

        cls_grid = TimeGrid(0.0, 2.0, 2048)
        near = solve_fde(H, np.array([1.0, 0.0]), cls_grid, FracOrder(0.999))
        dev_cls = float(np.abs(near.y.values[:, 0] - np.cos(cls_grid.nodes())).max())
    ok = dev_relax <= 5e-4 and dev_osc <= 5e-4 and dev_cls <= 2e-2
    _verdict(
        4, ok, tm.elapsed, 10.0,
        f"FDE solver: relaxation {dev_relax:.1e} <= 5e-4, oscillator {dev_osc:.1e} <= 5e-4, "
        f"near-classical {dev_cls:.1e} <= 2e-2",
    )


def test_acceptance_05_internal_time_laws():
    with _Timer() as tm:
        grid = TimeGrid(0.0, 2.0, 4)
        ens = inverse_subordinator_paths(HALF, grid, 10000, seed=42)
        worst_ratio = 0.0
        for v in (0.5, 1.0, 2.0):
            for i in (1, 2, 4):
                t = grid.nodes()[i]
                samples = np.exp(-v * ens.paths[:, i])
                mean = samples.mean()
                err = samples.std(ddof=1) / math.sqrt(samples.size)
                oracle = mittag_leffler(MLParams(0.5), -v * t**0.5)
                worst_ratio = max(worst_ratio, abs(mean - oracle) / (3.0 * err))

        grid1 = TimeGrid(0.0, 1.0, 8)
        stats = ensemble_mean(inverse_subordinator_paths(HALF, grid1, 10000, seed=42))
        dev_mean = abs(stats.mean[-1] - 1.1283791670955126)
        mean_ok = dev_mean <= 3.0 * stats.stderr[-1]
    ok = worst_ratio <= 1.0 and mean_ok
    _verdict(
        5, ok, tm.elapsed, 60.0,
        f"internal-time laws: worst lattice deviation {worst_ratio:.2f} of budget, "
        f"|E[S(1)] - 1.1284| {dev_mean:.1e} <= 3 stderr",
    )


def test_acceptance_06_scaling_limit():
    with _Timer() as tm:
        stats = {}
        for alpha in (0.5, 0.8):
            law = WaitingTimeLaw(FracOrder(alpha), 1.0)
            counts, s1 = scaling_samples(law, 10000.0, 10000, seed=42)
            stats[alpha] = ks_statistic(counts / rescale_factor(counts, s1), s1)
    ok = all(v < 0.05 for v in stats.values())
    _verdict(
        6, ok, tm.elapsed, 120.0,
        f"scaling limit: KS(0.5) {stats[0.5]:.3f}, KS(0.8) {stats[0.8]:.3f} < 0.05",
    )


def test_acceptance_07_subordination_equals_fractional_solve():
    with _Timer() as tm:
        H = legendre_transform(harmonic())
        grid = TimeGrid(0.0, 2.0, 2048)
        ens = inverse_subordinator_paths(HALF, grid, 10000, seed=42)
        (band,) = verify_stanislavsky(H, np.array([1.0, 0.0]), ens).checks
    _verdict(
        7, band.passed, tm.elapsed, 120.0,
        f"subordinated means vs fractional solve: {band.value:.3f} of interior "
        f"nodes within 3 stderr + 5e-3 (need 0.95)",
    )


def test_acceptance_08_coherence_dichotomy():
    with _Timer() as tm:
        L = harmonic()
        H = legendre_transform(L)
        grid = TimeGrid(0.0, 2.0, 2048)
        sol = solve_fde(H, np.array([1.0, 0.0]), grid, HALF)
        causal = causal_el_residual(L, sol.x_part(), HALF)
        general = general_el_residual(L, sol.x_part(), HALF)
        embedded = embed_operator(classical_el_operator(L), HALF)(sol.x_part())
        bit_gap = float(np.abs(causal.residual.values - embedded.values).max())
    ok = (
        causal.max_norm <= 5e-3
        and general.max_norm >= 0.1
        and general.max_norm >= 10.0 * causal.max_norm
        and bit_gap == 0.0
    )
    _verdict(
        8, ok, tm.elapsed, 10.0,
        f"coherence dichotomy: causal {causal.max_norm:.1e} <= 5e-3, general "
        f"{general.max_norm:.2f} >= 0.1, embedding gap {bit_gap:.1e}",
    )


def test_acceptance_09_variational_identity():
    with _Timer() as tm:
        L = harmonic()
        grid = TimeGrid(0.0, 1.0, 256)
        x = Trajectory.from_callable(grid, lambda t: np.cos(t) + 0.3 * t)
        a_val = action(L, x, HALF)
        res = general_el_residual(L, x, HALF).residual.values[:, 0]
        budget = 1e-4 * (1.0 + abs(a_val))
        worst = 0.0
        for s in range(5):
            h = sample_variation(grid, HALF, np.random.default_rng(1000 + s))
            dd = directional_derivative(L, x, h, HALF)
            pairing = trapezoid(res * h.values[:, 0], grid.h)
            worst = max(worst, abs(dd - pairing))
    ok = worst <= budget
    _verdict(
        9, ok, tm.elapsed, 10.0,
        f"variational identity: worst |derivative - pairing| {worst:.1e} <= {budget:.1e}",
    )


def test_acceptance_10_compatibility_and_commutation():
    with _Timer() as tm:
        ens = inverse_subordinator_paths(HALF, TimeGrid(0.0, 2.0, 2048), 10000, seed=42)
        momentum, causal, _ = verify_compatibility(harmonic(), np.array([1.0, 0.0]), ens).checks
        Hq = legendre_transform(quartic())
        quartic_rep = subordinate_flow(Hq, np.array([1.0, 0.0]), ens, derived=True).commutation
    ok = momentum.passed and causal.passed and quartic_rep.significance > 10.0
    _verdict(
        10, ok, tm.elapsed, 120.0,
        f"compatibility: momentum {momentum.value:.3f}, causal "
        f"{causal.value:.3f} (need 0.95), quartic gap "
        f"{quartic_rep.significance:.0f} stderr (need > 10)",
    )


def test_acceptance_11_reproducible_artifacts(tmp_path):
    with _Timer() as tm:
        matched = []
        for args, names in [
            (
                ["subordinator", "--b", "1", "--n", "8", "--m-paths", "500"],
                ["subordinator_paths.csv", "subordinator_stats.csv"],
            ),
            (
                ["verify-stanislavsky", "--n", "512", "--m-paths", "2000"],
                ["stanislavsky_x0.csv", "stanislavsky_p0.csv", "stanislavsky_summary.txt"],
            ),
        ]:
            dirs = [tmp_path / f"{args[0]}-{k}" for k in "ab"]
            for d in dirs:
                res = subprocess.run(
                    [sys.executable, "-m", "fractime.cli", *args, "--out", str(d)],
                    capture_output=True, text=True, timeout=300,
                )
                assert res.returncode == 0, res.stderr
            for name in names:
                same = (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
                matched.append(same)
    ok = all(matched)
    _verdict(
        11, ok, tm.elapsed, 120.0,
        f"reproducibility: {sum(matched)}/{len(matched)} artifacts byte-identical on rerun",
    )
