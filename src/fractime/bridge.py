"""Subordinated Hamiltonian flow and its fractional-dynamics counterparts.

The mean trajectory x_a(t) = E[x(S(t))], p_a(t) = E[p(S(t))] of a classical
flow evaluated at the internal time S is compared against the solution of
the Caputo canonical system on the same grid (two independent computational
routes), and against the identities tying natural Lagrangians to their
subordinated means: p_a = m D^a x_a and a vanishing causal Euler-Lagrange
residual.  The commutation hypothesis E[U'(x(S))] = U'(x_a) (dH/dp = p/m
commutes for every natural H) holds for linear U' and is probed for
failure on a quartic potential.

Sampling is the caller's: one ensemble serves every flow and check of a
run, and the bridge only maps it through classical flows, each solved once
on [0, s_end], the largest S(b).  It reads an ensemble through its node
times t, m_paths, s_end and blocks of rows only, so sampled paths
(inverse_subordinator_paths) and the factored rows of the exact one-time
law (exact_marginal_ensemble, which the command line passes, since every
check here reads one node at a time) map the same way.  A flow averages
the nodes the ensemble holds; an exact ensemble thinned to the commutation
nodes (MarginalEnsemble.at) flows only those.  Fewer than two rows are
refused, since they have no standard error.  Every flow reduces all a
check reads in one pass over blocks of rows: the means and stderr, the
means of 16 path groups and the commutation moments, so no M-row array
outlives a block; one np.interp on the complex column x + i p reads a
block.  The blocks run on a thread pool with one worker per CPU the
process may use (as many as fit a 16 MiB workspace), and are folded in
block order, so results do not depend on the core count.

Error budgets combine Monte Carlo noise (3 stderr) with a flat scheme
bound added linearly; stderr for derived quantities (anything passed
through a fractional operator) comes from batch means over path groups.
Both derived identities are evaluated once, on all curves stacked as
columns: the flow's mean, then its group means.
Each verification returns a ComparisonReport: its Checks, which carry the
budgets, and the per-node tables behind them.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .dynamics import solve_classical, solve_fde
from .errors import DegenerateSampleError, OutOfRangeError
from .fracops import caputo_left
from .grids import TimeGrid, Trajectory
from .reports import Check, interior_window
from .stochastic_time import MarginalEnsemble, SubordinatorEnsemble
from .systems import NaturalSystem
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
# 1e-3; it and its shifted copy hold 2 x steps x 2 floats, 512 MiB
_CLASSICAL_STEP = 1e-3
_MAX_CLASSICAL_STEPS = 2**24
# rows per block; a block never straddles two batch-means groups, and its
# size does not depend on the node count, so a flow thinned to some nodes
# sums the same rows in the same order as the full flow there
_FLOW_BLOCK = 42
# bytes of blocks and values the flow's workers hold at once: each holds one
# block buffer of internal times (8 B per value) and its complex values
# (16 B), 2 MiB at n = 2048, so at most 8 workers run, whatever the host; a
# finished block holds only its moments (64 KiB at n = 2048) until the fold
# reads it
_FLOW_WORKSPACE = 16 << 20
_PASS_FRACTION = 0.95
_N_GROUPS = 16
_COMMUTATION_STEPS = 64
# a commutation gap is within noise at _SIGMA stderr, plus rounding
_COMMUTATION_ATOL = 1e-12
_TABLE_HEADER = ["t", "mc_mean", "mc_stderr", "fde_value", "gap"]


@dataclass(frozen=True)
class CommutationReport:
    """Gap |U'(x_a) - E[U'(x)]| and its stderr at the commutation node times
    t; dH/dp = p/m commutes for every natural H, so U' is the whole check."""

    t: np.ndarray
    gap: np.ndarray
    stderr: np.ndarray

    @property
    def significance(self) -> float:
        """Largest gap over all nodes in units of stderr + rounding allowance,
        so gap <= 3 stderr + 1e-12 at every node iff this is at most 3."""
        return float((self.gap / (self.stderr + _COMMUTATION_ATOL / _SIGMA)).max())


@dataclass(frozen=True)
class SubordinatedObservable:
    """Ensemble means of a classical flow evaluated at internal times, at
    the node times of the ensemble, stacked x over p as in FdeSolution.y.

    mean and stderr are (nodes, 2); node 0 is pinned to the initial data
    with zero stderr (S(0) = 0 on every path).  group_means is (groups,
    nodes, 2), for batch-means error bars; commutation is the commutation
    report at the flow's commutation nodes.
    """

    mean: np.ndarray
    stderr: np.ndarray
    # perfbench/tracer.py reads m_paths, mean_x and the always-None
    # path_x/path_p (no row values outlive the flow) at each flow's return
    m_paths: int
    group_means: np.ndarray
    commutation: CommutationReport
    path_x: None = None
    path_p: None = None

    @property
    def mean_x(self) -> np.ndarray:
        return self.mean[:, :1]


def subordinate_flow(
    H: NaturalSystem,
    y0,
    ens: SubordinatorEnsemble | MarginalEnsemble,
) -> SubordinatedObservable:
    """Average the classical flow over the internal-time rows of ens, at
    each node the ensemble holds.

    The classical system is solved once on [0, ens.s_end], the largest S(b),
    so every sampled time lies on it; the solution is evaluated at those
    times by linear interpolation with a classical step of at most 1e-3, so
    the interpolation error stays well below Monte Carlo noise.  Rows are
    formed in blocks of 42, each inside one batch-means group, and each
    block is read by one np.interp call on the complex column
    (x - x0) + i (p - p0), which searches the classical grid once per value
    for both components.  The blocks run on every CPU the process may use
    (within a 16 MiB workspace), and their sums are folded in block order,
    so the result is the same bits on any core count.
    The same pass sums the means of min(16, M) row groups (the last takes
    the remainder), and U'(x) - U'(x0) and its square at the commutation
    nodes, against U' at the flow's mean x (dH/dp = p/m always commutes).

    Raises:
        DegenerateSampleError: fewer than two paths.
        OutOfRangeError: y0 is not two values, or the classical horizon
            would need more than 2^24 steps (checked before the classical
            solve).
    """
    y0 = np.asarray(y0, dtype=float).ravel()
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
    # one-pass variance does not cancel away when |y0| >> the spread; each
    # (x, p) row of the shifted values is one complex value x + i p
    zcol = (classical.values - y0).view(complex).ravel()

    n_nodes = len(ens.t)
    sums = np.zeros((n_nodes, 2))
    sumsq = np.zeros((n_nodes, 2))
    groups = min(_N_GROUPS, M)
    # group g holds rows starts[g]:starts[g + 1]; the last takes the remainder
    starts = [g * (M // groups) for g in range(groups)] + [M]
    group_sums = np.zeros((groups, n_nodes, 2))
    kept = _commutation_nodes(n_nodes - 1)
    du_sums, du_sumsq = np.zeros((2, len(kept)))

    # each worker forms its blocks in one buffer of its own: a block formed
    # afresh on a worker thread is mostly handed back to the system when
    # freed, and faulted in again for the next block
    buffers = threading.local()

    def block_moments(span):
        """Per node and component, the sum and sum of squares of the rows
        lo:hi of span (group, lo, hi), and those of U'(x) - U'(x0) at the
        kept nodes."""
        _, lo, hi = span
        if not hasattr(buffers, "block"):
            buffers.block = np.empty((_FLOW_BLOCK, n_nodes))
        block = ens.rows(lo, hi, out=buffers.block[: hi - lo])
        # the moments are allocated before the values, so that the space the
        # values free is whole again for the next block's
        moments = np.empty((2, n_nodes, 2))
        # one search of the classical grid per value reads x and p at once;
        # the float view (rows, nodes, 2) is read in place
        vals = np.interp(block, tau_nodes, zcol).view(float).reshape(hi - lo, n_nodes, 2)
        # take keeps C order (vals[:, kept] would not), so du is summed row by
        # row; taken from the contiguous values, it copies only the kept nodes
        du = H.potential_grad(vals.take(kept, axis=1)[:, :, 0] + y0[0])
        # kept node 0 is node 0, where every row is x0: U'(x) - U'(x0)
        du -= du[0, 0]
        vals.sum(axis=0, out=moments[0])
        np.square(vals, out=vals)
        vals.sum(axis=0, out=moments[1])
        return moments, du.sum(axis=0), np.einsum("mj,mj->j", du, du)

    # imported here: at the top it would cost every command a few ms
    from concurrent.futures import ThreadPoolExecutor

    spans = [
        (g, lo, min(lo + _FLOW_BLOCK, starts[g + 1]))
        for g in range(groups)
        for lo in range(starts[g], starts[g + 1], _FLOW_BLOCK)
    ]
    # blocks run on one thread per CPU the process may use, within the
    # workspace; map yields their moments in span order, and this thread
    # folds them with the additions a serial loop makes, so the result
    # depends on neither the core count nor scheduling
    workers = max(1, min(_workers(), _FLOW_WORKSPACE // (_FLOW_BLOCK * n_nodes * 24)))
    with ThreadPoolExecutor(workers) as pool:
        for (g, _, _), (moments, du_sum, du_sq) in zip(spans, pool.map(block_moments, spans)):
            sums += moments[0]
            sumsq += moments[1]
            group_sums[g] += moments[0]
            du_sums += du_sum
            du_sumsq += du_sq

    shifted, stderr = _moments(sums, sumsq, M)
    mean = shifted + y0
    # node 0 is y0 on every path; remove the summation rounding artifact
    mean[0] = y0
    stderr[0] = 0.0
    gm = group_sums / np.diff(starts)[:, None, None] + y0
    gm[:, 0, :] = y0
    at_mean = H.potential_grad(mean[kept, 0])
    du_mean, du_se = _moments(du_sums, du_sumsq, M)
    gap = np.abs(at_mean - at_mean[0] - du_mean)
    return SubordinatedObservable(mean, stderr, M, gm, CommutationReport(ens.t[kept], gap, du_se))


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _moments(sums, sumsq, M: int):
    """Mean and stderr of M values from their sum and sum of squares."""
    mean = sums / M
    var = np.maximum(sumsq - M * mean * mean, 0.0) / (M - 1)
    return mean, np.sqrt(var) / math.sqrt(M)


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


def _gap_and_stderr(curves: np.ndarray):
    """|column 0| of curves (nodes, 1 + groups), a quantity at the flow's
    mean, and the batch-means standard error of the group columns, each as
    one column.  The groups are reduced as a contiguous (groups, nodes)
    copy: a strided view would make numpy sum them in another order."""
    groups = np.ascontiguousarray(curves[:, 1:].T)
    stderr = groups.std(axis=0, ddof=1) / math.sqrt(len(groups))
    return np.abs(curves[:, :1]), stderr[:, None]


def verify_stanislavsky(
    H: NaturalSystem, y0, ens: SubordinatorEnsemble | MarginalEnsemble
) -> ComparisonReport:
    """Compare subordinated means against the Caputo canonical solution.

    A node agrees when x and p are both within 3*stderr + 5e-3; the check
    passes when at least 95% of interior nodes agree.  Tables x0 and p0.
    """
    t_grid = ens.t_grid
    obs = subordinate_flow(H, y0, ens)
    fde = solve_fde(H, y0, t_grid, ens.alpha).y.values
    gap = np.abs(obs.mean - fde)
    check = _band_check("MC subordination matches fractional solve", gap, obs.stderr, t_grid.n)
    t = t_grid.nodes()
    tables = tuple(
        (label, _TABLE_HEADER, [t, obs.mean[:, k], obs.stderr[:, k], fde[:, k], gap[:, k]])
        for k, label in enumerate(("x0", "p0"))
    )
    return ComparisonReport(checks=(check,), tables=tables)


def verify_compatibility(
    L: NaturalSystem, y0, ens: SubordinatorEnsemble | MarginalEnsemble
) -> ComparisonReport:
    """Check the natural-Lagrangian compatibility identities on MC means.

    (i) p_a = m D^a x_a, (ii) causal EL residual of x_a vanishes, (iii)
    the commutation gap of the induced Hamiltonian stays within noise.
    Batch means over 16 path groups provide the stderr for the two
    derived identities, since fractional operators amplify node-to-node
    Monte Carlo noise in a correlated way that per-path stderr cannot
    describe.  All three checks read one flow of the one sample ens, which
    reduces the group means and the commutation gap in its pass.  Both
    derived identities are evaluated once, on all curves stacked as
    columns: the mean (column 0) gives each gap, the group means its stderr.
    Tables momentum_x0 (p_a against m D^a x_a) and causal_el_x0 (|residual|
    against 0).
    """
    obs = subordinate_flow(L, y0, ens)
    t_grid, order = ens.t_grid, ens.alpha
    n = t_grid.n
    # column 0 is the flow's mean, columns 1.. its group means
    xs, ps = np.concatenate([obs.mean[None], obs.group_means]).transpose(2, 1, 0).copy()
    x = Trajectory(t_grid, xs)
    deriv_route = L.mass * caputo_left(x, order).values
    momentum_gap, momentum_se = _gap_and_stderr(ps - deriv_route)
    causal, causal_se = _gap_and_stderr(causal_el_residual(L, x, order).values)
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
    momentum = [t, ps[:, 0], momentum_se[:, 0], deriv_route[:, 0], momentum_gap[:, 0]]
    residual = [t, causal[:, 0], causal_se[:, 0], np.zeros(len(t_grid)), causal[:, 0]]
    tables = (("momentum_x0", _TABLE_HEADER, momentum), ("causal_el_x0", _TABLE_HEADER, residual))
    return ComparisonReport(checks=checks, tables=tables)
