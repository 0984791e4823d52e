"""Classical and fractional solvers for canonical Hamiltonian dynamics.

The classical route integrates dx/dt = dH/dp, dp/dt = -dH/dx with a
symplectic Verlet step for separable Hamiltonians and RK4 otherwise.  The
fractional route replaces d/dt by the left Caputo derivative and solves
the resulting memory equations with an Adams-Bashforth-Moulton
predictor-corrector (fractional Adams scheme, one corrector sweep), whose
history sums are blocked FFT convolutions; runs are deterministic and
byte-identical on rerun.  A fractional right-hand side rhs(t, y) may
return the same buffer on every call, overwritten in place: the solver
copies each result before it calls rhs again.  The Legendre transform
connects the two pictures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, NonInvertibleError
from .fracops import (
    FracOrder,
    _history_sums,
    _pt_corrector_weights,
    caputo_left,
)
from .grids import TimeGrid, Trajectory
from .systems import HamiltonianSystem, LagrangianSystem, NaturalForm

__all__ = [
    "FdeSolution",
    "legendre_transform",
    "flh_residual",
    "solve_classical",
    "solve_fde",
    "solve_fde_system",
]

_DIVERGENCE_CAP = 1e12
# steps per leaf of the blocked fractional Adams history
_FDE_LEAF = 128


@dataclass(frozen=True)
class FdeSolution:
    """Solution of the Caputo canonical system on a grid.

    y stacks position over momentum: columns 0..d-1 hold x, d..2d-1 hold p.
    The initial node equals y0 exactly; no fractional initial data is
    needed because the Caputo formulation sees only y(a).
    """

    grid: TimeGrid
    y: Trajectory
    alpha: FracOrder

    @property
    def dim(self) -> int:
        return self.y.dim // 2

    def x_part(self) -> Trajectory:
        return Trajectory(self.grid, self.y.values[:, : self.dim].copy())

    def p_part(self) -> Trajectory:
        return Trajectory(self.grid, self.y.values[:, self.dim :].copy())


def legendre_transform(L: LagrangianSystem) -> HamiltonianSystem:
    """H(x, p) = p f(x, p) - L(x, f(x, p)) where f inverts v -> dL/dv.

    Natural Lagrangians take the closed form H = p^2/(2m) + U(x); other
    systems invert dL/dv numerically with damped Newton per evaluation
    point.

    Raises:
        NonInvertibleError: the Newton inversion stalls or meets a
            singular velocity Hessian.
    """
    if L.natural is not None:
        m, u, du = L.natural.mass, L.natural.potential, L.natural.potential_grad
        return HamiltonianSystem(
            dim=L.dim,
            hamiltonian=lambda x, p: np.sum(np.square(p), axis=-1) / (2.0 * m) + u(x),
            dHdx=lambda x, p: du(x),
            dHdp=lambda x, p: p / m,
            separable=L.natural,
        )

    def velocity(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _invert_dldv(L, np.asarray(x, dtype=float), np.asarray(p, dtype=float))

    def ham(x, p):
        return _pointwise(lambda xx, pp: _ham_point(L, velocity, xx, pp), x, p)

    def dhdx(x, p):
        return _pointwise(
            lambda xx, pp: -np.asarray(L.dLdx(xx, velocity(xx, pp), 0.0), dtype=float),
            x,
            p,
        )

    def dhdp(x, p):
        return _pointwise(velocity, x, p)

    return HamiltonianSystem(dim=L.dim, hamiltonian=ham, dHdx=dhdx, dHdp=dhdp, separable=None)


def _ham_point(L: LagrangianSystem, velocity, x: np.ndarray, p: np.ndarray) -> float:
    v = velocity(x, p)
    return float(np.dot(p, v) - L.lagrangian(x, v, 0.0))


def _pointwise(f, x, p):
    """Apply the single-point map f(x, p) over stacked (..., d) points."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.ndim == 1:
        return f(x, p)
    flat_x = x.reshape(-1, x.shape[-1])
    flat_p = p.reshape(-1, p.shape[-1])
    out = np.array([f(xx, pp) for xx, pp in zip(flat_x, flat_p)])
    return out.reshape(x.shape[:-1] + out.shape[1:])


def _invert_dldv(L: LagrangianSystem, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    v = np.array(p, dtype=float)
    res = np.asarray(L.dLdv(x, v, 0.0), dtype=float) - p
    rn = float(np.max(np.abs(res)))
    for _ in range(50):
        if rn <= 1e-12:
            return v
        jac = _dldv_jacobian(L, x, v)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise NonInvertibleError(
                f"singular velocity Hessian at x={x}, p={p}"
            ) from exc
        lam = 1.0
        while lam >= 1.0 / 1024.0:
            cand = v - lam * step
            cres = np.asarray(L.dLdv(x, cand, 0.0), dtype=float) - p
            crn = float(np.max(np.abs(cres)))
            if crn < rn or crn <= 1e-12:
                v, res, rn = cand, cres, crn
                break
            lam /= 2.0
        else:
            raise NonInvertibleError(
                f"velocity inversion stalled at x={x}, p={p} (residual {rn:.3e})"
            )
    if rn <= 1e-12:
        return v
    raise NonInvertibleError(
        f"velocity inversion did not converge in 50 iterations at x={x}, p={p}"
    )


def _dldv_jacobian(L: LagrangianSystem, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    d = v.size
    jac = np.empty((d, d))
    for k in range(d):
        step = 1e-6 * (1.0 + abs(v[k]))
        hi = v.copy()
        lo = v.copy()
        hi[k] += step
        lo[k] -= step
        jac[:, k] = (
            np.asarray(L.dLdv(x, hi, 0.0), dtype=float)
            - np.asarray(L.dLdv(x, lo, 0.0), dtype=float)
        ) / (2.0 * step)
    return jac


def flh_residual(
    L: LagrangianSystem,
    H: HamiltonianSystem,
    x: Trajectory,
    p: Trajectory,
    order: FracOrder,
) -> Trajectory:
    """Defect of the fractional Legendre link between L and H.

    Three stacked components per node: p - dL/dv(x, D^a x), dH/dx + dL/dx
    (evaluated with the Caputo velocity), and dH/dp - D^a x.  All vanish
    along exact fractional flows up to scheme error.
    """
    x.same_grid(p)
    t = x.grid.nodes()
    v = caputo_left(x, order).values
    xv, pv = x.values, p.values
    c1 = pv - np.asarray(L.dLdv(xv, v, t), dtype=float)
    c2 = np.asarray(H.dHdx(xv, pv), dtype=float) + np.asarray(
        L.dLdx(xv, v, t), dtype=float
    )
    c3 = np.asarray(H.dHdp(xv, pv), dtype=float) - v
    return Trajectory(x.grid, np.hstack([c1, c2, c3]))


def solve_classical(H: HamiltonianSystem, y0, grid: TimeGrid) -> Trajectory:
    """Integrate the canonical equations; Verlet when separable, else RK4.

    Raises:
        DivergenceError: a non-finite state or |y| beyond 1e12.
    """
    y0 = np.asarray(y0, dtype=float)
    d = y0.size // 2
    if H.separable is not None:
        values = _verlet(H.separable, y0[:d].copy(), y0[d:].copy(), grid)
    else:
        values = _rk4(H, y0[:d].copy(), y0[d:].copy(), grid)
    return Trajectory(grid, values)


def _check_state(y: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > _DIVERGENCE_CAP:
        raise DivergenceError(f"solution diverged near t = {t:.6g}")


def _verlet(form: NaturalForm, x, p, grid: TimeGrid) -> np.ndarray:
    n, h, m = grid.n, grid.h, form.mass
    half = 0.5 * h
    du = form.potential_grad
    values = np.empty((n + 1, 2 * x.size))
    values[0] = np.concatenate([x, p])
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
            _check_state(values[k], grid.a + k * h)
    _check_state(values[-1], grid.b)
    return values


def _rk4(H: HamiltonianSystem, x, p, grid: TimeGrid) -> np.ndarray:
    n, h = grid.n, grid.h
    d = x.size

    def rhs(y):
        return np.concatenate(
            [
                np.asarray(H.dHdp(y[:d], y[d:]), dtype=float),
                -np.asarray(H.dHdx(y[:d], y[d:]), dtype=float),
            ]
        )

    values = np.empty((n + 1, 2 * d))
    y = np.concatenate([x, p])
    values[0] = y
    for k in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[k + 1] = y
        if k % 64 == 0:
            _check_state(y, grid.a + (k + 1) * h)
    _check_state(values[-1], grid.b)
    return values


def solve_fde_system(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    grid: TimeGrid,
    order: FracOrder,
) -> Trajectory:
    """Solve D^a y = rhs(t, y), y(a) = y0, with the fractional Adams scheme.

    Predictor uses product-rectangle weights, the single corrector sweep
    uses product-trapezoid weights; accuracy O(h^{1+a}) for smooth
    right-hand sides.  The history sums split the steps in halves
    (Hairer-Lubich-Schlichte): leaves of _FDE_LEAF steps sum their near
    history directly, and each solved left half adds its contribution to
    the right half with one FFT convolution per kernel, O(n log^2 n) in
    all.  Results are deterministic, byte-identical on rerun, and match
    the direct quadratic sums to roundoff.

    rhs(t, y) returns the m values of the right-hand side as an array, a
    sequence or, for m = 1, a scalar.  It may return one buffer that it
    overwrites on every call: the solver copies each result into its own
    history before the next call.

    Raises:
        DivergenceError: state magnitude beyond 1e12 or non-finite.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    n, h, alpha = grid.n, grid.h, order.alpha
    t = grid.nodes()
    m = y0.size
    h1 = h**alpha / math.gamma(alpha + 1.0)
    h2 = h**alpha / math.gamma(alpha + 2.0)
    idx = np.arange(n + 2, dtype=float)
    bw = idx**alpha - np.maximum(idx - 1.0, 0.0) ** alpha
    cw = _pt_corrector_weights(alpha, n + 1)
    # weight of f_0 in the corrector of step k + 1, in scalar pow: numpy's
    # vectorised power can differ in the last bit, which the cancellation
    # between the two terms magnifies
    a0 = np.array(
        [k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha for k in range(n)]
    )
    y = np.empty((n + 1, m))
    fhist = np.empty((n + 1, m))
    # far history of step i: predictor sum over bw[i - j] f_j, corrector
    # sum over cw[i - j] f_j for j >= 1; filled in as halves are solved
    pred_hist = np.zeros_like(y)
    corr_hist = np.zeros_like(y)
    y[0] = y0
    fhist[0] = rhs(t[0], y0)
    # bw[1 : k + 1][::-1] is bw_rev[n + 1 - k : n + 1] and cw[1 : k + 1][::-1]
    # is cw_rev[n - k : n]; the near sums keep these negative-stride views,
    # since a contiguous reversed copy sends @ down a path that sums in
    # another order
    bw_rev, cw_rev = bw[::-1], cw[::-1]

    def leaf(lo: int, hi: int) -> None:
        start = max(lo, 1)
        # the corrector sums ((a0 f0 + corr_hist) + near) + fpred; the far
        # part is complete once the leaf starts, so it is formed for all rows
        far = a0[start - 1 : hi - 1, None] * fhist[0] + corr_hist[start:hi]
        for i in range(start, hi):
            pred = y0 + h1 * (pred_hist[i] + bw_rev[n + 1 - i + lo : n + 1] @ fhist[lo:i])
            fpred = rhs(t[i], pred)
            near = cw_rev[n - i + start : n] @ fhist[start:i]
            y[i] = y0 + h2 * ((far[i - start] + near) + fpred)
            fhist[i] = rhs(t[i], y[i])
            # a NaN compares False, so this also catches non-finite states
            if not all(abs(v) <= _DIVERGENCE_CAP for v in y[i].tolist()):
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
    return Trajectory(grid, y)


def solve_fde(
    H: HamiltonianSystem, y0, grid: TimeGrid, order: FracOrder
) -> FdeSolution:
    """Solve the Caputo canonical system D^a x = dH/dp, D^a p = -dH/dx."""
    y0 = np.asarray(y0, dtype=float).ravel()
    d = y0.size // 2
    out = np.empty_like(y0)
    dx, dp = out[:d], out[d:]

    def rhs(t, y):
        x, p = y[:d], y[d:]
        dx[...] = H.dHdp(x, p)
        np.negative(H.dHdx(x, p), out=dp)
        return out

    y = solve_fde_system(rhs, y0, grid, order)
    return FdeSolution(grid=grid, y=y, alpha=order)
