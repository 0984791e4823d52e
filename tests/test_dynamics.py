"""Classical and fractional solvers against closed-form solutions.

Fractional oracles: the scalar relaxation D^a x = -x, x(0) = 1 has
solution E_a(-t^a); the oscillator written in canonical form has
x(t) = E_{2a}(-t^{2a}) for unit frequency and x(0) = 1, p(0) = 0; the
free particle has x(t) = x0 + (p0/m) t^a / Gamma(1+a) exactly.
"""

import dataclasses
import math
import warnings

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
from fractime.dynamics import _DIVERGENCE_CAP, _FDE_LEAF, solve_classical, solve_fde_system
from fractime.errors import DivergenceError, OutOfRangeError
from fractime.fracops import _history_sums, _power_increments, _pt_weights
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
    # a force of 1e14 throws x to -5e11, whose force throws |p| past the
    # cap of 1e12 |x0| = 1e16 on the first step
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
        calls.append(x)
        return form.potential_grad(x)

    H = dataclasses.replace(form, potential_grad=grad)
    grid = TimeGrid(0.0, 2.0, 100)
    sol = solve_classical(H, np.array([1.0, 0.5]), grid)
    assert len(calls) == grid.n + 1
    assert all(type(x) is float for x in calls)
    np.testing.assert_array_equal(calls, sol.values[:, 0])
    x, p, h = np.array([1.0]), np.array([0.5]), grid.h
    for k in range(grid.n):
        p_half = p - 0.5 * h * form.potential_grad(x)
        x = x + h * p_half / form.mass
        p = p_half - 0.5 * h * form.potential_grad(x)
        np.testing.assert_array_equal(sol.values[k + 1], np.concatenate([x, p]))


def test_fractional_relaxation_matches_mittag_leffler():
    grid = TimeGrid(0.0, 1.0, 4096)
    sol = solve_fde_system(lambda t, y: [-y[0]], np.array([1.0]), grid, HALF)
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
        solve_fde_system(lambda t, y: [y[0] * y[0]], np.array([2.0]), grid, HALF)


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
    cw = _pt_weights(alpha, n + 1)[1]
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
    return lambda t, y: [y[1] / H.mass, -H.potential_grad(y[0])]


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


@pytest.mark.parametrize("n", [2, 127, 128, 129, 4097, 65536])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_solver_weights_from_fracops_equal_its_own_formulas_bitwise(alpha, n):
    # the product-rectangle and product-trapezoid weights the solver formed
    # itself before it read them from fracops
    idx = np.arange(n + 2, dtype=float)
    bw = idx**alpha - np.maximum(idx - 1.0, 0.0) ** alpha
    m = np.arange(1, n + 1, dtype=float)
    c = (m + 1.0) ** (alpha + 1.0) - 2.0 * m ** (alpha + 1.0) + (m - 1.0) ** (alpha + 1.0)
    a0 = np.array([k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha for k in range(n)])
    got_a0, got_cw = _pt_weights(alpha, n + 1)
    assert np.concatenate(([0.0], _power_increments(alpha, n + 1))).tobytes() == bw.tobytes()
    assert got_cw.tobytes() == np.concatenate(([1.0], c)).tobytes()
    assert got_a0[:n].tobytes() == a0.tobytes()


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


def test_rhs_may_return_a_list_a_tuple_or_an_array():
    # the state arrives as a list of floats; its m values may go back as any
    # sequence, with the same bits
    grid = TimeGrid(0.0, 1.0, 300)
    seen = set()

    def as_list(t, y):
        seen.add((type(t), type(y), *map(type, y)))
        return [-y[0]]

    want = solve_fde_system(as_list, [1.0], grid, HALF).values
    assert want.shape == (301, 1)
    assert seen == {(float, list, float)}
    for rhs in (lambda t, y: (-y[0],), lambda t, y: -np.array(y)):
        assert solve_fde_system(rhs, [1.0], grid, HALF).values.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "rhs, shape",
    [
        (lambda t, y: -y[0], "()"),
        (lambda t, y: np.float64(-y[0]), "()"),
        (lambda t, y: [-y[0], 0.0], "(2,)"),
        (lambda t, y: [], "(0,)"),
        (lambda t, y: np.zeros((1, 1)), "(1, 1)"),
    ],
    ids=["scalar", "numpy-scalar", "too-long", "empty", "nested"],
)
def test_rhs_returning_other_than_m_values_is_refused(rhs, shape):
    with pytest.raises(OutOfRangeError) as info:
        solve_fde_system(rhs, [1.0], TimeGrid(0.0, 1.0, 300), HALF)
    assert str(info.value) == f"rhs must return m = 1 values, got shape {shape}"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-fde", "--system", "free-particle", "--x0", "2e12", "--n", "64"],
        ["verify-stanislavsky", "--system", "free-particle", "--x0", "2e12", "--n", "32"]
        + ["--m-paths", "200"],
    ],
    ids=["solve-fde", "verify-stanislavsky"],
)
def test_large_data_are_not_divergence(tmp_path, capsys, argv):
    # x stays 2e12 on every path; the cap scales with max(1, max |y0|)
    from fractime import cli

    code = cli.main([*argv, "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr()


_SOLVE, _FLOW = "fractional solution diverged near t =", "solution diverged near t ="
_QUARTIC = ["--system", "quartic", "--x0", "1e40", "--n"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-fde", *_QUARTIC, "64"], f"{_SOLVE} 0.03125"),
        (["verify-coherence", *_QUARTIC, "64"], f"{_SOLVE} 0.03125"),
        (["verify-stanislavsky", *_QUARTIC, "32", "--m-paths", "200"], f"{_FLOW} 0.000999961"),
        (["verify-compatibility", *_QUARTIC, "32", "--m-paths", "200"], f"{_FLOW} 0.000999961"),
        (["solve-fde", "--system", "quartic(100)", "--b", "50"], f"{_SOLVE} 0.0976562"),
    ],
    ids=["solve-fde", "verify-coherence", "verify-stanislavsky", "verify-compatibility", "stiff"],
)
def test_divergence_is_refused_without_a_warning(tmp_path, capsys, argv, message):
    # from x0 = 1e40, U'(x) = x^3 overflows within the first steps; the inf
    # it becomes is refused as divergence, and no RuntimeWarning escapes
    from fractime import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


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


# References: the array steppers that stepped on numpy rows of length 1 and
# 2, kept verbatim (renamed, with the dimension arithmetic of their callers)
# so that the float steppers can be held to their bits.


def _array_check_state(y: np.ndarray, t: float, scale: float) -> None:
    if not np.all(np.isfinite(y)) or np.max(np.abs(y)) / scale > _DIVERGENCE_CAP:
        raise DivergenceError(f"solution diverged near t = {t:.6g}")


def _array_verlet(H, x, p, grid: TimeGrid) -> np.ndarray:
    n, h, m = grid.n, grid.h, H.mass
    half = 0.5 * h
    du = H.potential_grad
    values = np.empty((n + 1, 2 * x.size))
    values[0] = np.concatenate([x, p])
    scale = float(np.abs(values[0]).max(initial=1.0))
    xs, ps = values[:, : x.size], values[:, x.size :]
    # the force at the end of one step starts the next
    force = np.asarray(du(x), dtype=float)
    for k in range(1, n + 1):
        p_half = p - half * force
        x = x + h * p_half / m
        force = np.asarray(du(x), dtype=float)
        p = p_half - half * force
        xs[k] = x
        ps[k] = p
        if k % 64 == 1:
            _array_check_state(values[k], grid.a + k * h, scale)
    _array_check_state(values[-1], grid.b, scale)
    return values


def _array_solve_classical(H, y0, grid):
    y0 = np.asarray(y0, dtype=float)
    d = y0.size // 2
    with np.errstate(over="ignore", invalid="ignore"):
        return _array_verlet(H, y0[:d].copy(), y0[d:].copy(), grid)


def _array_fde_system(rhs, y0, grid, order):
    y0 = np.asarray(y0, dtype=float).ravel()
    scale = float(np.abs(y0).max(initial=1.0))
    n, h, alpha = grid.n, grid.h, order.alpha
    t = grid.nodes()
    m = y0.size
    h1 = h**alpha / math.gamma(alpha + 1.0)
    h2 = h**alpha / math.gamma(alpha + 2.0)
    idx = np.arange(n + 2, dtype=float)
    bw = idx**alpha - np.maximum(idx - 1.0, 0.0) ** alpha
    cw = _pt_weights(alpha, n + 1)[1]
    a0 = np.array(
        [k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha for k in range(n)]
    )
    y = np.empty((n + 1, m))
    fhist = np.empty((n + 1, m))
    pred_hist = np.zeros_like(y)
    corr_hist = np.zeros_like(y)
    y[0] = y0
    fhist[0] = rhs(t[0], y0)
    bw_rev, cw_rev = bw[::-1], cw[::-1]

    def leaf(lo: int, hi: int) -> None:
        start = max(lo, 1)
        far = a0[start - 1 : hi - 1, None] * fhist[0] + corr_hist[start:hi]
        for i in range(start, hi):
            pred = y0 + h1 * (pred_hist[i] + bw_rev[n + 1 - i + lo : n + 1] @ fhist[lo:i])
            fpred = rhs(t[i], pred)
            near = cw_rev[n - i + start : n] @ fhist[start:i]
            y[i] = y0 + h2 * ((far[i - start] + near) + fpred)
            fhist[i] = rhs(t[i], y[i])
            if not all(abs(v) / scale <= _DIVERGENCE_CAP for v in y[i].tolist()):
                raise DivergenceError(f"fractional solution diverged near t = {t[i]:.6g}")

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _FDE_LEAF:
            leaf(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        pred_hist[mid:hi] += _history_sums(fhist[lo:mid], bw[: hi - lo])[mid - lo :]
        start = max(lo, 1)
        corr_hist[mid:hi] += _history_sums(fhist[start:mid], cw[: hi - start])[mid - start :]
        solve(mid, hi)

    solve(0, n + 1)
    return y


def _array_solve_fde(H, y0, grid, order):
    y0 = np.asarray(y0, dtype=float).ravel()
    d = y0.size // 2
    m, du = H.mass, H.potential_grad
    out = np.empty_like(y0)
    dx, dp = out[:d], out[d:]

    def rhs(t, y):
        np.divide(y[d:], m, out=dx)
        np.negative(du(y[:d]), out=dp)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return _array_fde_system(rhs, y0, grid, order)


def _outcome(solve):
    """The solution's bytes, or the message of the divergence that refused it."""
    try:
        return solve().tobytes()
    except DivergenceError as exc:
        return str(exc)


_SYSTEMS = pytest.mark.parametrize(
    "H",
    [free_particle(), harmonic(), harmonic(3.0, 0.7), quartic()],
    ids=["free-particle", "harmonic", "harmonic(3,0.7)", "quartic"],
)
# the leaf holds 128 steps: 127 and 129 end just inside and just past one
_STEPS = pytest.mark.parametrize("n", [2, 127, 129, 1000, 4096])
_Y0 = pytest.mark.parametrize("y0", [(1.0, 0.0), (-2.5, 0.3), (1e8, 1.0)], ids=str)


@_SYSTEMS
@_STEPS
@_Y0
def test_float_verlet_equals_the_array_reference_bitwise(H, n, y0):
    grid = TimeGrid(0.0, 8.0, n)
    want = _outcome(lambda: _array_solve_classical(H, y0, grid))
    assert _outcome(lambda: solve_classical(H, y0, grid).values) == want


@_SYSTEMS
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@_STEPS
@_Y0
def test_float_adams_leaf_equals_the_array_reference_bitwise(H, alpha, n, y0):
    grid, order = TimeGrid(0.0, 2.0, n), FracOrder(alpha)
    want = _outcome(lambda: _array_solve_fde(H, y0, grid, order))
    assert _outcome(lambda: solve_fde(H, y0, grid, order).y.values) == want


_VERLET = (solve_classical, _array_solve_classical)
_ADAMS = (solve_fde, _array_solve_fde)


@pytest.mark.parametrize(
    "solvers, H, y0, grid",
    [
        (_VERLET, quartic(100.0), (1e4, 0.0), TimeGrid(0.0, 10.0, 100)),
        (_VERLET, quartic(), (1e40, 0.0), TimeGrid(0.0, 1.0, 1000)),
        (_ADAMS, quartic(100.0), (1.0, 0.0), TimeGrid(0.0, 50.0, 2048)),
        (_ADAMS, quartic(), (1e40, 0.0), TimeGrid(0.0, 2.0, 64)),
        (_ADAMS, quartic(), (1e8, 1.0), TimeGrid(0.0, 2.0, 4096)),
    ],
    ids=["verlet-stiff", "verlet-overflow", "adams-stiff", "adams-overflow", "adams-large"],
)
def test_float_steppers_refuse_divergence_where_the_references_do(solvers, H, y0, grid):
    solve, reference = solvers
    args = (H, y0, grid) if solvers is _VERLET else (H, y0, grid, HALF)
    want = _outcome(lambda: reference(*args))
    assert "diverged near t =" in want
    with pytest.raises(DivergenceError) as info:
        solve(*args)
    assert str(info.value) == want
