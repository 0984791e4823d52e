"""Simulation of the internal time.

A totally skewed positive stable subordinator D(tau) is sampled by the
Chambers-Mallows-Stuck formula; the internal time S(t) = inf{tau : D(tau) > t}
is read off a discretized D path, with inversion bias O(tau_step) toward
zero (documented, not corrected).  Checks that read S one time at a time
draw its exact one-time law instead: S(t) has the law of (t/W)^alpha for a
standard positive stable W (Meerschaert & Scheffler, J. Appl. Probab. 41,
2004), one W per row.  Such a row is rank one, V t^alpha with V = W^-alpha,
so a MarginalEnsemble keeps the M factors V and the node factors t^alpha
and forms rows only when they are read.  Both ensemble forms are read the
same way: a block of rows at a time, and the largest S(b).  Heavy-tailed
renewal counting processes provide the pre-limit picture, and the
scaling-limit check compares the rescaled counting distribution against
exact S(1) = W^-alpha by a two-sample Kolmogorov-Smirnov statistic.  One loop
draws subordinator levels and renewal arrivals: partial sums past a horizon.

Reproducibility contract: every path draws from its own counter-based
substream keyed by (seed, path index), every renewal count from one keyed
by (seed, _RENEWAL_KEY, index), and an exact one-time-law ensemble draws
all its W from the one substream (seed, _MARGINAL_KEY, 0), in row order
(the S(1) of the scaling limit too).  A row of an exact ensemble is the
product of its V with t^alpha, elementwise, so it is the same bits however
the rows are blocked or its nodes thinned.  Results depend only on the
seed and parameters, never on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSampleError, GridError, OutOfRangeError
from .fracops import FracOrder
from .grids import TimeGrid

__all__ = [
    "WaitingTimeLaw",
    "SubordinatorEnsemble",
    "MarginalEnsemble",
    "EnsembleStats",
    "inverse_subordinator_paths",
    "exact_marginal_ensemble",
    "scaling_samples",
    "rescale_factor",
    "ks_statistic",
    "ensemble_mean",
]

# spawn-key namespaces separating renewal and one-time-law streams from path
# streams (keys of two entries: a path's key is its one index)
_RENEWAL_KEY = 1
_MARGINAL_KEY = 2
# a path holds all its levels in memory at once; cap their expected number
_MAX_LEVELS = 1e6
# the ensemble holds M x nodes float64 values at once: 1 GiB at most
_MAX_VALUES = 2**27
# rows formed at once when an ensemble is read whole
_MEAN_BLOCK = 64


@dataclass(frozen=True)
class WaitingTimeLaw:
    """Pareto waiting times: density alpha scale^alpha / t^(1+alpha), t >= scale."""

    alpha: FracOrder
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise OutOfRangeError(f"scale must be positive, got {self.scale}")

    def sample(self, rng, size: int) -> np.ndarray:
        u = rng.random(size)
        return self.scale * (1.0 - u) ** (-1.0 / self.alpha.alpha)


def _stable_block(alpha: float, size: int, rng) -> np.ndarray:
    """Standard positive alpha-stable samples, E[exp(-l W)] = exp(-l^alpha)."""
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    e = rng.exponential(1.0, size)
    shifted = alpha * (u + 0.5 * np.pi)
    return (np.sin(shifted) / np.cos(u) ** (1.0 / alpha)) * (
        np.cos(u - shifted) / e
    ) ** ((1.0 - alpha) / alpha)


def _expected_levels(alpha: float, tau_step: float, horizon: float) -> float:
    """E[S(horizon)] / tau_step: the tau levels a path draws before D > horizon."""
    return horizon**alpha / (math.gamma(1.0 + alpha) * tau_step)


def _first_passage(draw, first: int, horizon: float) -> np.ndarray:
    """Partial sums of positive draws, draw(size) at a time: first of them,
    then blocks of max(64, first // 4) until one passes horizon.  Returns the
    sums up to the first past horizon (at least one block is drawn)."""
    sums = [np.cumsum(draw(first))]
    while sums[-1][-1] <= horizon:
        sums.append(np.cumsum(draw(max(64, first // 4))) + sums[-1][-1])
    c = np.concatenate(sums)
    return c[: int(np.searchsorted(c, horizon, side="right")) + 1]


def _d_levels(alpha: float, tau_step: float, horizon: float, rng) -> np.ndarray:
    """Cumulative D values at tau = tau_step, 2 tau_step, ... to the first past
    horizon.  An infinite increment is a jump past it, so the map's overflow
    goes unreported; a scale tau_step^(1/alpha) of 0 or a NaN draw is refused."""
    scale = tau_step ** (1.0 / alpha)
    refusal = f"alpha = {alpha:g} is too small for sampled paths: "
    if scale == 0.0:
        raise OutOfRangeError(refusal + "the increment scale tau_step^(1/alpha) underflows to 0")

    def draw(size: int) -> np.ndarray:
        block = scale * _stable_block(alpha, size, rng)
        if np.isnan(block).any():
            raise OutOfRangeError(refusal + "the stable map gives NaN increments")
        return block

    first = max(64, int(1.2 * _expected_levels(alpha, tau_step, horizon)) + 1)
    with np.errstate(all="ignore"):
        return _first_passage(draw, first, horizon)


@dataclass(frozen=True)
class SubordinatorEnsemble:
    """M sampled internal-time paths S(t), one row per path and one column
    per node of t_grid, read off the tau grid of step tau_step."""

    t_grid: TimeGrid
    paths: np.ndarray
    alpha: FracOrder
    tau_step: float

    def __post_init__(self) -> None:
        if self.paths.ndim != 2 or self.paths.shape[1] != len(self.t_grid):
            raise GridError("paths must have one row per sample, one column per node")
        if np.any(self.paths[:, 0] != 0.0):
            raise GridError("S(0) must be 0 on every path")
        if np.any(self.paths[:, 1:] < self.paths[:, :-1]):
            raise GridError("S(t) paths must be nondecreasing")

    @property
    def m_paths(self) -> int:
        return int(self.paths.shape[0])

    @property
    def t(self) -> np.ndarray:
        """The node times of the columns."""
        return self.t_grid.nodes()

    @property
    def s_end(self) -> float:
        """The largest sampled S(b), and at least one tau step, so a flow
        over the rows never has an empty horizon."""
        return max(float(self.paths[:, -1].max()), self.tau_step)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi, one column per node (a view)."""
        return self.paths[lo:hi]


@dataclass(frozen=True)
class MarginalEnsemble:
    """M rows S(t_j) = scale_m * profile_j of the exact one-time law: scale
    holds V = W^-alpha, one per row, and profile holds t^alpha at the node
    times t, a subset of the nodes of t_grid (all of them as drawn).

    A row is not a path of S: all its nodes share one V, so the errors of
    node means move together.  Use it only where each node is read on its
    own.  The law is exact, so there is no inversion step.
    """

    t_grid: TimeGrid
    t: np.ndarray
    scale: np.ndarray
    profile: np.ndarray
    alpha: FracOrder

    def __post_init__(self) -> None:
        if self.scale.ndim != 1 or self.profile.shape != self.t.shape or self.t.ndim != 1:
            raise GridError("need one scale per row and one profile value per node")
        if not np.all(self.scale > 0.0):
            raise GridError("every row scale must be positive")
        if self.profile[0] != 0.0:
            raise GridError("S(0) must be 0 on every path")
        if np.any(self.profile[1:] < self.profile[:-1]):
            raise GridError("S(t) paths must be nondecreasing")

    @property
    def m_paths(self) -> int:
        return int(self.scale.size)

    @property
    def s_end(self) -> float:
        """The largest S at the last node: the largest scale times its
        profile value, the same bits as the largest product."""
        return float(self.scale.max() * self.profile[-1])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi, one column per node, formed as they are read."""
        return np.outer(self.scale[lo:hi], self.profile)

    def at(self, nodes) -> "MarginalEnsemble":
        """The same rows read only at the given column indices."""
        return replace(self, t=self.t[nodes], profile=self.profile[nodes])


@dataclass(frozen=True)
class EnsembleStats:
    """Pointwise sample mean and standard error at the node times t."""

    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray


def _path_rng(seed: int, key: tuple) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _check_ensemble(t_grid: TimeGrid, M: int, lower: str = "m_paths or n") -> None:
    """Refuse an internal-time ensemble before anything is allocated."""
    if t_grid.a != 0.0:
        raise GridError(f"a must be 0 for internal-time experiments, got a = {t_grid.a}")
    if M < 1:
        raise OutOfRangeError(f"M must be at least 1, got {M}")
    if M * len(t_grid) > _MAX_VALUES:
        raise OutOfRangeError(
            f"{M} paths x {len(t_grid)} nodes exceed the ensemble cap of"
            f" {_MAX_VALUES} values; lower {lower}"
        )


def _marginal_scale(alpha: float, M: int, seed: int) -> np.ndarray:
    """V = W^-alpha for M standard positive stable W, in row order from
    the one stream (seed, _MARGINAL_KEY, 0)."""
    return _stable_block(alpha, M, _path_rng(seed, (_MARGINAL_KEY, 0))) ** -alpha


def inverse_subordinator_paths(
    order: FracOrder,
    t_grid: TimeGrid,
    M: int,
    tau_step: float | None = None,
    seed: int = 0,
) -> SubordinatorEnsemble:
    """Sample M internal-time paths S(t) = inf{tau : D(tau) > t} on t_grid.

    Each path simulates its own subordinator until D exceeds t_grid.b and
    inverts it by counting tau levels with D <= t; S(0) = 0 exactly.  The
    discretization reads S off the tau grid, so values carry a bias in
    [-tau_step, 0].

    Raises:
        GridError: t_grid does not start at 0.
        OutOfRangeError: M < 1, the ensemble would hold more than 2^27
            values, tau_step <= 0, or a path would draw more than 1e6
            levels on average (all checked before any allocation); or
            alpha is below about 0.015, where tau_step^(1/alpha) is 0
            (checked before any draw) or the stable map gives NaN.
    """
    _check_ensemble(t_grid, M)
    if tau_step is None:
        tau_step = 1e-3 * t_grid.b**order.alpha
    if not (math.isfinite(tau_step) and tau_step > 0.0):
        raise OutOfRangeError(f"tau_step must be positive, got {tau_step}")
    levels = _expected_levels(order.alpha, tau_step, t_grid.b)
    if levels > _MAX_LEVELS:
        raise OutOfRangeError(
            f"tau_step = {tau_step:g} needs about {levels:.3g} levels per path"
            f" (at most {_MAX_LEVELS:.0e}); raise tau_step"
        )
    t_nodes = t_grid.nodes()
    paths = np.empty((M, len(t_grid)))
    for m in range(M):
        rng = _path_rng(seed, (m,))
        d_cum = _d_levels(order.alpha, tau_step, t_grid.b, rng)
        counts = np.searchsorted(d_cum, t_nodes, side="right")
        paths[m] = tau_step * counts
    return SubordinatorEnsemble(
        t_grid=t_grid, paths=paths, alpha=order, tau_step=tau_step
    )


def exact_marginal_ensemble(
    order: FracOrder, t_grid: TimeGrid, M: int, seed: int = 0
) -> MarginalEnsemble:
    """M rows S(t) = (t/W)^alpha on t_grid, one standard positive stable W
    per row: the exact one-time law of the inverse stable subordinator at
    every node, with no inversion step.  The rows are kept as their two
    factors, W^-alpha (M floats) and t^alpha (n + 1 floats).

    Raises:
        GridError: t_grid does not start at 0.
        OutOfRangeError: M < 1, or the ensemble would hold more than 2^27
            values, as for sampled paths (checked before any allocation).
    """
    _check_ensemble(t_grid, M)
    v = _marginal_scale(order.alpha, M, seed)
    t = t_grid.nodes()
    return MarginalEnsemble(t_grid=t_grid, t=t, scale=v, profile=t**order.alpha, alpha=order)


def _arrivals(law: WaitingTimeLaw, horizon: float, rng) -> np.ndarray:
    """Renewal arrival times T(n) <= horizon; waits are at least law.scale,
    so this stops after at most horizon/scale arrivals."""
    first = max(32, int(1.5 * max(1.0, horizon**law.alpha.alpha / law.scale**law.alpha.alpha)) + 1)
    return _first_passage(lambda size: law.sample(rng, size), first, horizon)[:-1]


def scaling_samples(
    law: WaitingTimeLaw, c: float, M: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """M counting samples N_c and M independent exact S(1) = W^-alpha
    samples: the row scales of an exact one-time-law ensemble, where the
    profile is 1.0 ** alpha == 1.0, drawn as it draws them.

    Raises:
        OutOfRangeError: c < 100, c <= scale 2^(1/alpha) (where the median
            count is 0), M < 1000, or an exact ensemble on [0, 1] at n = 2
            would hold more than 2^27 values (all checked before any
            allocation).
        DegenerateSampleError: the sample median of the counts is zero.
    """
    if c < 100.0:
        raise OutOfRangeError(f"c must be at least 100, got {c}")
    # P(N_c = 0) = (scale/c)^alpha, formed in logs: 2^(1/alpha) overflows at small alpha
    p_zero = math.exp(law.alpha.alpha * (math.log(law.scale) - math.log(c)))
    if p_zero >= 0.5:
        raise OutOfRangeError(
            f"c must exceed scale * 2^(1/alpha), got c = {c:g} with P(N_c = 0) = {p_zero:.4g}"
        )
    if M < 1000:
        raise OutOfRangeError(f"M must be at least 1000, got {M}")
    # its S(1) grid is fixed, so only m_paths moves the cap
    _check_ensemble(TimeGrid(0.0, 1.0, 2), M, lower="m_paths")
    counts = np.array(
        [len(_arrivals(law, c, _path_rng(seed, (_RENEWAL_KEY, i)))) for i in range(M)], float
    )
    if np.median(counts) == 0.0:
        raise DegenerateSampleError(f"the median count is 0 at c = {c:g}; raise c")
    return counts, _marginal_scale(law.alpha.alpha, M, seed)


def rescale_factor(counts: np.ndarray, s1: np.ndarray) -> float:
    """b(c) as the ratio of sample medians.

    The limiting law fixes b(c) only up to a regularly varying factor;
    median matching avoids the unstated constant.
    """
    return float(np.median(counts)) / float(np.median(s1))


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)|.

    Both empirical CDFs are counted at every pooled sample (ties included)
    and compared in exact integer arithmetic over the common denominator
    n_a n_b / gcd(n_a, n_b), so the one rounding is the final division.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    pooled = np.concatenate([a, b])
    g = math.gcd(a.size, b.size)
    ca = np.searchsorted(a, pooled, side="right")
    cb = np.searchsorted(b, pooled, side="right")
    h = int(np.abs(ca * (b.size // g) - cb * (a.size // g)).max())
    return h / ((a.size // g) * b.size)


def ensemble_mean(ens: SubordinatorEnsemble | MarginalEnsemble) -> EnsembleStats:
    """Pointwise mean and stderr (= sample std / sqrt(M)) over the paths.

    Raises:
        DegenerateSampleError: fewer than two paths.
    """
    m = ens.m_paths
    if m < 2:
        raise DegenerateSampleError("need at least two paths for mean and stderr")
    blocks = [(lo, min(lo + _MEAN_BLOCK, m)) for lo in range(0, m, _MEAN_BLOCK)]
    # row by row, in the order of numpy's own axis-0 sum: the dense
    # mean(axis=0) and std(ddof=1) bit for bit, without an ensemble-sized array
    total = np.zeros(len(ens.t))
    for lo, hi in blocks:
        for row in ens.rows(lo, hi):
            total += row
    mean = total / m
    sq = np.zeros_like(mean)
    for lo, hi in blocks:
        for row in ens.rows(lo, hi):
            sq += (row - mean) ** 2
    return EnsembleStats(t=ens.t, mean=mean, stderr=np.sqrt(sq / (m - 1)) / math.sqrt(m))
