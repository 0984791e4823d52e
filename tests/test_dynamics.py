"""Classical and fractional solvers against closed-form solutions.

Fractional oracles: the scalar relaxation D^a x = -x, x(0) = 1 has
solution E_a(-t^a); the oscillator written in canonical form has
x(t) = E_{2a}(-t^{2a}) for unit frequency and x(0) = 1, p(0) = 0; the
free particle has x(t) = x0 + (p0/m) t^a / Gamma(1+a) exactly.
"""

import dataclasses
import math

import numpy as np
import pytest

from fractime import (
    FracOrder,
    MLParams,
    TimeGrid,
    harmonic,
    mittag_leffler,
    solve_fde,
)
from fractime.dynamics import solve_classical, solve_fde_system
from fractime.errors import DivergenceError
from fractime.fracops import _pt_corrector_weights
from fractime.systems import free_particle, quartic

HALF = FracOrder(0.5)


def test_classical_harmonic_matches_trig_solution():
    H = harmonic()
    grid = TimeGrid(0.0, 2.0, 2000)
    t = grid.nodes()
    sol = solve_classical(H, np.array([1.0, 0.0]), grid)
    assert np.abs(sol.values[:, 0] - np.cos(t)).max() < 1e-6
    assert np.abs(sol.values[:, 1] + np.sin(t)).max() < 1e-6


def test_classical_verlet_reports_divergence_at_its_step():
    # a force of 1e14 throws |p| past the 1e12 cap on the first step
    with pytest.raises(DivergenceError, match="near t = 0.1$"):
        solve_classical(quartic(100.0), np.array([1e4, 0.0]), TimeGrid(0.0, 10.0, 100))


def test_classical_energy_drift_stays_tiny():
    H = harmonic()
    grid = TimeGrid(0.0, 20.0, 20000)
    sol = solve_classical(H, np.array([1.0, 0.0]), grid)
    energy = 0.5 * (sol.values[:, 1] ** 2 + sol.values[:, 0] ** 2)
    assert np.abs(energy - 0.5).max() < 1e-5


def test_classical_free_particle_is_exact_line():
    H = free_particle(m=2.0)
    grid = TimeGrid(0.0, 3.0, 300)
    sol = solve_classical(H, np.array([0.5, 1.0]), grid)
    np.testing.assert_allclose(
        sol.values[:, 0], 0.5 + 0.5 * grid.nodes(), atol=1e-12
    )


def test_verlet_evaluates_the_force_once_per_node():
    # the force that ends one step starts the next: n + 1 calls for n steps,
    # one at each node, and the same bits as evaluating it twice per step
    form = quartic()
    calls = []

    def grad(x):
        calls.append(x.copy())
        return form.potential_grad(x)

    H = dataclasses.replace(form, potential_grad=grad)
    grid = TimeGrid(0.0, 2.0, 100)
    sol = solve_classical(H, np.array([1.0, 0.5]), grid)
    assert len(calls) == grid.n + 1
    np.testing.assert_array_equal(np.stack(calls), sol.values[:, :1])
    x, p, h = np.array([1.0]), np.array([0.5]), grid.h
    for k in range(grid.n):
        p_half = p - 0.5 * h * form.potential_grad(x)
        x = x + h * p_half / form.mass
        p = p_half - 0.5 * h * form.potential_grad(x)
        np.testing.assert_array_equal(sol.values[k + 1], np.concatenate([x, p]))


def test_fractional_relaxation_matches_mittag_leffler():
    grid = TimeGrid(0.0, 1.0, 4096)
    sol = solve_fde_system(lambda t, y: -y, np.array([1.0]), grid, HALF)
    at_one = sol.values[-1, 0]
    assert at_one == pytest.approx(mittag_leffler(MLParams(0.5), -1.0), abs=5e-4)
    oracle = np.array(
        [mittag_leffler(MLParams(0.5), -math.sqrt(t)) for t in grid.nodes()]
    )
    assert np.abs(sol.values[:, 0] - oracle).max() < 5e-4


def test_fractional_oscillator_matches_mittag_leffler():
    H = harmonic()
    grid = TimeGrid(0.0, 1.0, 2048)
    sol = solve_fde(H, np.array([1.0, 0.0]), grid, HALF)
    params = MLParams(1.0)
    oracle = np.array([mittag_leffler(params, -t) for t in grid.nodes()])
    assert np.abs(sol.y.values[:, 0] - oracle).max() < 5e-4


def test_fractional_free_particle_power_law_is_exact():
    H = free_particle()
    grid = TimeGrid(0.0, 2.0, 512)
    sol = solve_fde(H, np.array([0.0, 1.0]), grid, HALF)
    oracle = grid.nodes() ** 0.5 / math.gamma(1.5)
    assert np.abs(sol.y.values[:, 0] - oracle).max() < 1e-10


def test_near_unit_order_recovers_classical_flow():
    H = harmonic()
    grid = TimeGrid(0.0, 2.0, 2048)
    sol = solve_fde(H, np.array([1.0, 0.0]), grid, FracOrder(0.999))
    assert np.abs(sol.y.values[:, 0] - np.cos(grid.nodes())).max() < 2e-2


def test_solution_splits_into_position_and_momentum_parts():
    H = harmonic()
    grid = TimeGrid(0.0, 1.0, 64)
    sol = solve_fde(H, np.array([1.0, 0.0]), grid, HALF)
    assert sol.x_part().dim == 1
    assert sol.p_part().dim == 1
    np.testing.assert_array_equal(sol.x_part().values[:, 0], sol.y.values[:, 0])
    np.testing.assert_array_equal(sol.p_part().values[:, 0], sol.y.values[:, 1])


def test_divergent_dynamics_are_reported():
    grid = TimeGrid(0.0, 3.0, 512)
    with pytest.raises(DivergenceError):
        solve_fde_system(lambda t, y: y * y, np.array([2.0]), grid, HALF)


def _direct_fde(rhs, y0, grid, order):
    # the quadratic fractional Adams loop the blocked history replaces
    y0 = np.asarray(y0, dtype=float).ravel()
    n, h, alpha = grid.n, grid.h, order.alpha
    t = grid.nodes()
    m = y0.size
    h1 = h**alpha / math.gamma(alpha + 1.0)
    h2 = h**alpha / math.gamma(alpha + 2.0)
    idx = np.arange(n + 2, dtype=float)
    bw = idx**alpha - np.maximum(idx - 1.0, 0.0) ** alpha
    cw = _pt_corrector_weights(alpha, n + 1)
    y = np.empty((n + 1, m))
    fhist = np.empty((n + 1, m))
    y[0] = y0
    fhist[0] = np.asarray(rhs(t[0], y0), dtype=float)
    for k in range(n):
        pred = y0 + h1 * (bw[1 : k + 2][::-1] @ fhist[: k + 1])
        fpred = np.asarray(rhs(t[k + 1], pred), dtype=float)
        a0 = k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha
        hist = a0 * fhist[0]
        if k >= 1:
            hist = hist + cw[1 : k + 1][::-1] @ fhist[1 : k + 1]
        y[k + 1] = y0 + h2 * (hist + fpred)
        fhist[k + 1] = np.asarray(rhs(t[k + 1], y[k + 1]), dtype=float)
    return y


def _canonical_rhs(H):
    return lambda t, y: np.concatenate([y[1:] / H.mass, -H.potential_grad(y[:1])])


def _coupled_rhs(t, y):
    return np.array([y[1], -np.sin(y[0]), y[3] + 0.1 * t, -y[2] - 0.3 * y[0] * y[1]])


_RHS_CASES = pytest.mark.parametrize(
    "rhs, y0",
    [
        (_canonical_rhs(harmonic()), [1.0, 0.0]),
        (_canonical_rhs(quartic(1)), [1.0, 0.0]),
        (_coupled_rhs, [0.5, 0.0, 1.0, 0.2]),
    ],
    ids=["harmonic", "quartic", "coupled4"],
)


# TimeGrid needs two steps, so n = 1 has no solve; 127..129 straddle the leaf
@pytest.mark.parametrize("n", [2, 127, 128, 129, 1000, 4097])
@_RHS_CASES
def test_blocked_history_matches_direct_sums(n, rhs, y0):
    grid = TimeGrid(0.0, 2.0, n)
    got = solve_fde_system(rhs, y0, grid, HALF).values
    want = _direct_fde(rhs, y0, grid, HALF)
    assert np.abs(got - want).max() <= 1e-12


def _reusing(rhs, m):
    # the same right-hand side, returning one buffer it overwrites per call
    out = np.empty(m)

    def reused(t, y):
        out[:] = rhs(t, y)
        return out

    return reused


@pytest.mark.parametrize("n", [2, 127, 128, 129, 1000])
@_RHS_CASES
def test_reused_rhs_buffer_gives_bitwise_the_same_solution(n, rhs, y0):
    grid = TimeGrid(0.0, 2.0, n)
    fresh = solve_fde_system(rhs, y0, grid, HALF).values
    reused = solve_fde_system(_reusing(rhs, len(y0)), y0, grid, HALF).values
    assert fresh.tobytes() == reused.tobytes()


def test_scalar_rhs_solves_a_one_component_system():
    grid = TimeGrid(0.0, 1.0, 300)
    scalar = solve_fde_system(lambda t, y: -float(y[0]), [1.0], grid, HALF).values
    array = solve_fde_system(lambda t, y: -y, [1.0], grid, HALF).values
    assert scalar.shape == (301, 1)
    assert scalar.tobytes() == array.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("col", [0, 1])
@pytest.mark.parametrize("k", [1, 128, 200])
def test_non_finite_state_raises_at_its_step(bad, col, k):
    # the bad value may sit in any component, after a finite one too
    grid = TimeGrid(0.0, 2.0, 256)
    tk = grid.nodes()[k]

    def rhs(t, y):
        f = np.array([y[1], -y[0]])
        if t >= tk:
            f[col] = bad
        return f

    with pytest.raises(DivergenceError) as info:
        solve_fde_system(rhs, [1.0, 0.0], grid, HALF)
    assert str(info.value) == f"fractional solution diverged near t = {tk:.6g}"


def test_stiff_quartic_divergence_keeps_its_step(tmp_path, capsys):
    from fractime import cli

    code = cli.main(
        ["solve-fde", "--system", "quartic(100)", "--b", "50", "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "error: fractional solution diverged near t = 0.0976562"


def test_quartic_fractional_flow_stays_finite():
    H = quartic()
    grid = TimeGrid(0.0, 2.0, 512)
    sol = solve_fde(H, np.array([1.0, 0.0]), grid, HALF)
    assert np.all(np.isfinite(sol.y.values))


def _solve_fde_cli(out, *extra):
    from fractime import cli

    assert cli.main(["solve-fde", "--b", "1", "--n", "32", "--out", str(out), *extra]) == 0
    return out / "solution.csv", out / "solution.csv.meta"


def test_save_solution_writes_data_and_sidecar(tmp_path, capsys):
    csv_path, sidecar = _solve_fde_cli(tmp_path)
    capsys.readouterr()
    assert csv_path.exists()
    meta = dict(
        line.split("=", 1) for line in sidecar.read_text().splitlines() if "=" in line
    )
    assert meta["alpha"] == "0.5"
    assert meta["n"] == "32"
    assert meta["scheme"] == "fractional-adams"


def test_save_solution_reruns_byte_identical(tmp_path, capsys):
    pa = _solve_fde_cli(tmp_path / "a")
    pb = _solve_fde_cli(tmp_path / "b")
    capsys.readouterr()
    for fa, fb in zip(pa, pb):
        assert fa.read_bytes() == fb.read_bytes()
