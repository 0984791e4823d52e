"""Subordinated Hamiltonian flow and its fractional-dynamics counterparts.

The mean trajectory x_a(t) = E[x(S(t))], p_a(t) = E[p(S(t))] of a classical
flow evaluated at the internal time S is compared against the solution of
the Caputo canonical system on the same grid (two independent computational
routes), and against the identities tying natural Lagrangians to their
subordinated means: p_a = m D^a x_a and a vanishing causal Euler-Lagrange
residual.  The
commutation hypothesis E[dH(x(S), p(S))] = dH(x_a, p_a) holds for linear
gradients and is probed for failure on a quartic potential.

Sampling is the caller's: one ensemble serves every flow and check of a
run, and the bridge only maps it through classical flows, each solved once
on [0, s_end], the largest S(b).  It reads an ensemble through two things
only, a block of rows and s_end, so sampled paths
(inverse_subordinator_paths) and the factored rows of the exact one-time
law (exact_marginal_ensemble, which the command line passes, since every
check here reads one node at a time) map the same way.  A flow averages
the nodes the ensemble holds; an exact ensemble thinned to the commutation
nodes (MarginalEnsemble.at) flows only those.  Fewer than two rows are
refused, since they have no standard error.  A flow reduces all a check
reads in one pass over blocks of rows, so no M-row array outlives a block.

Error budgets combine Monte Carlo noise (3 stderr) with a flat scheme
bound added linearly; stderr for derived quantities (anything passed
through a fractional operator) comes from batch means over path groups.
Each verification returns a ComparisonReport: its Checks, which carry the
budgets, and the per-node tables behind them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import legendre_transform, solve_classical, solve_fde
from .errors import ConfigError, DegenerateSampleError, OutOfRangeError
from .fracops import caputo_left
from .grids import TimeGrid, Trajectory
from .reports import Check, interior_window
from .stochastic_time import MarginalEnsemble, SubordinatorEnsemble
from .systems import HamiltonianSystem, LagrangianSystem
from .variational import causal_el_residual

__all__ = [
    "SubordinatedObservable",
    "CommutationReport",
    "ComparisonReport",
    "subordinate_flow",
    "verify_stanislavsky",
    "verify_compatibility",
]

# a node agrees within _SIGMA stderr of Monte Carlo noise plus a flat scheme bound
_SIGMA = 3.0
_SCHEME_TOL = 5e-3
_BAND_WHAT = f"interior fraction within {_SIGMA:g}*stderr + {_SCHEME_TOL:g}"
# the classical flow is read by linear interpolation on steps of at most
# 1e-3; it and its shifted copy hold 2 x steps x 2d floats, 512 MiB at d = 1
_CLASSICAL_STEP = 1e-3
_MAX_CLASSICAL_STEPS = 2**24
# rows interpolated per np.interp call (one MiB at n = 2048); a block
# never straddles two batch-means groups
_FLOW_BLOCK = 64
_PASS_FRACTION = 0.95
_N_GROUPS = 16
_COMMUTATION_STEPS = 64
# a commutation gap is within noise at _SIGMA stderr, plus rounding
_COMMUTATION_ATOL = 1e-12
_TABLE_HEADER = ["t", "mc_mean", "mc_stderr", "fde_value", "gap"]


@dataclass(frozen=True)
class CommutationReport:
    """Gap between the gradient at the means and the mean of the gradient,
    at the commutation node times t."""

    t: np.ndarray
    gap_x: np.ndarray
    gap_p: np.ndarray
    stderr_x: np.ndarray
    stderr_p: np.ndarray

    @property
    def significance(self) -> float:
        """Largest gap over all nodes in units of stderr + rounding allowance,
        so gap <= 3 stderr + 1e-12 at every node iff this is at most 3."""
        floor = _COMMUTATION_ATOL / _SIGMA
        return max(
            float((gap / (err + floor)).max())
            for gap, err in ((self.gap_x, self.stderr_x), (self.gap_p, self.stderr_p))
        )


@dataclass(frozen=True)
class SubordinatedObservable:
    """Ensemble means of a classical flow evaluated at internal times, at
    the node times t of the ensemble.

    Node 0 is pinned to the initial data with zero stderr (S(0) = 0 on
    every path).  A derived flow also carries the group means, for
    batch-means error bars, and the commutation report.
    """

    t: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    stderr_x: np.ndarray
    stderr_p: np.ndarray
    m_paths: int
    group_means_x: np.ndarray | None = None
    group_means_p: np.ndarray | None = None
    commutation: CommutationReport | None = None
    # always None: no row values outlive the flow; perfbench/tracer.py
    # still reads them, with m_paths, at each flow's return
    path_x: None = None
    path_p: None = None


def subordinate_flow(
    H: HamiltonianSystem,
    y0,
    ens: SubordinatorEnsemble | MarginalEnsemble,
    derived: bool = False,
) -> SubordinatedObservable:
    """Average the classical flow over the internal-time rows of ens, at
    each node the ensemble holds.

    The classical system is solved once on [0, ens.s_end], the largest S(b),
    so every sampled time lies on it; the solution is evaluated at those
    times by linear interpolation with a classical step of at most 1e-3, so
    the interpolation error stays well below Monte Carlo noise.  Rows are
    formed and interpolated in blocks of 64, each inside one batch-means
    group.  derived also sums, in the same pass, the means of min(16, M)
    row groups, and dH - dH(y0) and its square at the commutation nodes,
    for the commutation report against dH at the flow's own means.

    Raises:
        DegenerateSampleError: fewer than two paths.
        OutOfRangeError: y0 does not stack x and p for H.dim, or the
            classical horizon would need more than 2^24 steps (checked
            before the classical solve).
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    if y0.size != 2 * H.dim:
        raise OutOfRangeError(
            f"y0 must stack x and p ({2 * H.dim} values), got {y0.size}"
        )
    d = H.dim
    M = ens.m_paths
    if M < 2:
        raise DegenerateSampleError("need at least two paths for mean and stderr")
    tau_max = ens.s_end
    n_classical = max(2048, math.ceil(tau_max / _CLASSICAL_STEP))
    if n_classical > _MAX_CLASSICAL_STEPS:
        raise OutOfRangeError(
            f"the largest sampled S(b) = {tau_max:.6g} needs {n_classical:.3g} classical"
            f" steps of {_CLASSICAL_STEP:g} (at most {_MAX_CLASSICAL_STEPS}); lower b"
        )
    classical = solve_classical(H, y0, TimeGrid(0.0, tau_max, n_classical))
    tau_nodes = classical.grid.nodes()
    # accumulate in coordinates shifted by y0 (exact at node 0), so the
    # one-pass variance does not cancel away when |y0| >> the spread
    cols = (classical.values - y0).T

    t = ens.t
    n_nodes = len(t)
    sums = np.zeros((2 * d, n_nodes))
    sumsq = np.zeros((2 * d, n_nodes))
    groups = min(_N_GROUPS, M) if derived else 0
    # group g holds rows starts[g]:starts[g + 1]; the last takes the remainder
    starts = [g * (M // groups) for g in range(groups)] + [M] if groups else [0, M]
    group_sums = np.zeros((groups, 2 * d, n_nodes))
    kept = _commutation_nodes(n_nodes - 1)
    dh_sums, dh_sumsq = np.zeros((2, len(kept), 2 * d))

    for g in range(len(starts) - 1):
        for lo in range(starts[g], starts[g + 1], _FLOW_BLOCK):
            hi = min(lo + _FLOW_BLOCK, starts[g + 1])
            block = ens.rows(lo, hi)
            at_kept = np.empty((hi - lo, len(kept), 2 * d)) if derived else None
            for c, col in enumerate(cols):
                vals = np.interp(block, tau_nodes, col)
                block_sum = vals.sum(axis=0)
                sums[c] += block_sum
                sumsq[c] += np.einsum("mj,mj->j", vals, vals)
                if derived:
                    group_sums[g, c] += block_sum
                    at_kept[:, :, c] = vals[:, kept]
            if derived:
                # kept node 0 is node 0, where every row is y0: dH - dH(y0)
                dh = _gradient(H, at_kept + y0)
                dh -= dh[0, 0].copy()
                dh_sums += dh.sum(axis=0)
                dh_sumsq += np.einsum("mjc,mjc->jc", dh, dh)

    shifted, stderr = _moments(sums.T, sumsq.T, M)
    mean = shifted + y0
    # node 0 is y0 on every path; remove the summation rounding artifact
    mean[0] = y0
    stderr[0] = 0.0
    obs = SubordinatedObservable(t, mean[:, :d], mean[:, d:], stderr[:, :d], stderr[:, d:], M)
    if not derived:
        return obs
    gm = (group_sums / np.diff(starts)[:, None, None]).transpose(0, 2, 1) + y0
    gm[:, 0, :] = y0
    at_mean = _gradient(H, mean[kept])
    dh_mean, dh_se = _moments(dh_sums, dh_sumsq, M)
    gap = np.abs(at_mean - at_mean[0] - dh_mean)
    comm = CommutationReport(t[kept], gap[:, :d], gap[:, d:], dh_se[:, :d], dh_se[:, d:])
    return replace(obs, group_means_x=gm[..., :d], group_means_p=gm[..., d:], commutation=comm)


def _moments(sums, sumsq, M: int):
    """Mean and stderr of M values from their sum and sum of squares."""
    mean = sums / M
    var = np.maximum(sumsq - M * mean * mean, 0.0) / (M - 1)
    return mean, np.sqrt(var) / math.sqrt(M)


def _gradient(H: HamiltonianSystem, y) -> np.ndarray:
    """dH/dx and dH/dp side by side at stacked phase points y (..., 2d)."""
    x, p = y[..., : H.dim], y[..., H.dim :]
    return np.concatenate([np.asarray(H.dHdx(x, p), float), np.asarray(H.dHdp(x, p), float)], -1)


def _commutation_nodes(n: int) -> np.ndarray:
    """Node indices of the commutation check: all when n <= 64, else the 65
    nearest a 64-step grid (exactly that grid when n/64 is a power of two;
    distinct, since its step exceeds one node).  Thinning is idempotent:
    the commutation nodes of the 65 kept are all of them."""
    if n <= _COMMUTATION_STEPS:
        return np.arange(n + 1)
    return np.rint(np.linspace(0, n, _COMMUTATION_STEPS + 1)).astype(int)


@dataclass(frozen=True)
class ComparisonReport:
    """The checks of one bridge verification and the per-node tables behind
    them: (suffix, header, columns) with t as the first column."""

    checks: tuple
    tables: tuple


def _band_check(name: str, gap, stderr, n: int) -> Check:
    """Passes when at least 95% of interior nodes have every component of
    gap (nonnegative) within 3*stderr + 5e-3."""
    ok = np.all(gap <= _SIGMA * stderr + _SCHEME_TOL, axis=1)
    w = interior_window(n)
    return Check(name, float(np.mean(ok[w : n + 1 - w])), ">=", _PASS_FRACTION, _BAND_WHAT)


def _batch_stderr(per_group: list) -> np.ndarray:
    """Standard error from batch means over path groups."""
    stacked = np.stack(per_group)
    return stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])


def verify_stanislavsky(
    H: HamiltonianSystem, y0, ens: SubordinatorEnsemble | MarginalEnsemble
) -> ComparisonReport:
    """Compare subordinated means against the Caputo canonical solution.

    A node agrees when every phase component is within 3*stderr + 5e-3;
    the check passes when at least 95% of interior nodes agree.  One table
    per phase component, x0.. then p0...
    """
    t_grid = ens.t_grid
    obs = subordinate_flow(H, y0, ens)
    fde = solve_fde(H, np.asarray(y0, dtype=float).ravel(), t_grid, ens.alpha).y.values
    mc = np.hstack([obs.mean_x, obs.mean_p])
    se = np.hstack([obs.stderr_x, obs.stderr_p])
    gap = np.abs(mc - fde)
    check = _band_check("MC subordination matches fractional solve", gap, se, t_grid.n)
    labels = [f"x{k}" for k in range(H.dim)] + [f"p{k}" for k in range(H.dim)]
    t = t_grid.nodes()
    tables = tuple(
        (label, _TABLE_HEADER, [t, mc[:, k], se[:, k], fde[:, k], gap[:, k]])
        for k, label in enumerate(labels)
    )
    return ComparisonReport(checks=(check,), tables=tables)


def verify_compatibility(
    L: LagrangianSystem, y0, ens: SubordinatorEnsemble | MarginalEnsemble
) -> ComparisonReport:
    """Check the natural-Lagrangian compatibility identities on MC means.

    (i) p_a = m D^a x_a, (ii) causal EL residual of x_a vanishes, (iii)
    the commutation gap of the induced Hamiltonian stays within noise.
    Batch means over 16 path groups provide the stderr for the two
    derived identities, since fractional operators amplify node-to-node
    Monte Carlo noise in a correlated way that per-path stderr cannot
    describe.  All three checks read one derived flow of the one sample
    ens, which reduces the group means and the commutation gap in its pass.
    Tables momentum_xk (p_a against m D^a x_a) and causal_el_xk (|residual|
    against 0) per component k.

    Raises:
        ConfigError: L is not in natural form.
    """
    if L.natural is None:
        raise ConfigError("compatibility checks need a natural Lagrangian")
    H = legendre_transform(L)
    obs = subordinate_flow(H, y0, ens, derived=True)
    t_grid, order = ens.t_grid, ens.alpha
    mass = L.natural.mass
    n = t_grid.n
    groups = list(zip(obs.group_means_x, obs.group_means_p))

    def derivative_route(x_mean):
        return mass * caputo_left(Trajectory(t_grid, x_mean.copy()), order).values

    def causal_residual(x_mean):
        return causal_el_residual(L, Trajectory(t_grid, x_mean.copy()), order).residual.values

    deriv_route = derivative_route(obs.mean_x)
    momentum_gap = np.abs(obs.mean_p - deriv_route)
    momentum_se = _batch_stderr([gp - derivative_route(gx) for gx, gp in groups])
    causal = np.abs(causal_residual(obs.mean_x))
    causal_se = _batch_stderr([causal_residual(gx) for gx, _ in groups])
    comm = obs.commutation
    checks = (
        _band_check("momentum identity p_a = m D^a x_a", momentum_gap, momentum_se, n),
        _band_check("causal EL residual of x_a within budget", causal, causal_se, n),
        Check(
            "commutation gap within noise for quadratic H",
            comm.significance,
            "<=",
            _SIGMA,
            "max gap in stderr units",
        ),
    )
    t = t_grid.nodes()
    zero = np.zeros(len(t_grid))
    tables = []
    for k in range(H.dim):
        momentum = [t, obs.mean_p[:, k], momentum_se[:, k], deriv_route[:, k], momentum_gap[:, k]]
        residual = [t, causal[:, k], causal_se[:, k], zero, causal[:, k]]
        tables.append((f"momentum_x{k}", _TABLE_HEADER, momentum))
        tables.append((f"causal_el_x{k}", _TABLE_HEADER, residual))
    return ComparisonReport(checks=checks, tables=tuple(tables))
