"""Simulation of the internal time.

A totally skewed positive stable subordinator D(tau) is sampled by the
Chambers-Mallows-Stuck formula; the internal time S(t) = inf{tau : D(tau) > t}
is read off a discretized D path, with inversion bias O(tau_step) toward
zero (documented, not corrected).  Checks that read S one time at a time
draw its exact one-time law instead: S(t) has the law of (t/W)^alpha for a
standard positive stable W (Meerschaert & Scheffler, J. Appl. Probab. 41,
2004), one W per row.  Heavy-tailed renewal counting processes provide the
pre-limit picture, and the scaling-limit check compares the rescaled
counting distribution against simulated S(1) by a two-sample
Kolmogorov-Smirnov statistic.

Reproducibility contract: every path draws from its own counter-based
substream keyed by (seed, path index), every renewal count from one keyed
by (seed, _RENEWAL_KEY, index), and an exact one-time-law ensemble draws
all its W from the one substream (seed, _MARGINAL_KEY, 0), in row order.
Results depend only on the seed and parameters, never on scheduling or
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, GridError, OutOfRangeError
from .fracops import FracOrder
from .grids import TimeGrid

__all__ = [
    "WaitingTimeLaw",
    "SubordinatorEnsemble",
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


def _d_levels(alpha: float, tau_step: float, horizon: float, rng) -> np.ndarray:
    """Cumulative D values at tau = tau_step, 2 tau_step, ... past horizon."""
    scale = tau_step ** (1.0 / alpha)
    expected = _expected_levels(alpha, tau_step, horizon)
    first = max(64, int(1.2 * expected) + 1)
    chunks = []
    last = 0.0
    block = first
    while True:
        w = scale * _stable_block(alpha, block, rng)
        c = np.cumsum(w) + last
        chunks.append(c)
        last = c[-1]
        if last > horizon:
            break
        block = max(64, first // 4)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


@dataclass(frozen=True)
class SubordinatorEnsemble:
    """M internal-time rows S(t) sampled on a shared grid.

    tau_step is the inversion step of sampled paths; 0 marks rows of the
    exact one-time law (exact_marginal_ensemble), which have none.
    """

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


@dataclass(frozen=True)
class EnsembleStats:
    """Pointwise sample mean and standard error on a grid."""

    t_grid: TimeGrid
    mean: np.ndarray
    stderr: np.ndarray


def _path_rng(seed: int, key: tuple) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _check_ensemble(t_grid: TimeGrid, M: int) -> None:
    """Refuse an internal-time ensemble before anything is allocated."""
    if t_grid.a != 0.0:
        raise GridError(f"a must be 0 for internal-time experiments, got a = {t_grid.a}")
    if M < 1:
        raise OutOfRangeError(f"M must be at least 1, got {M}")
    if M * len(t_grid) > _MAX_VALUES:
        raise OutOfRangeError(
            f"{M} paths x {len(t_grid)} nodes exceed the ensemble cap of"
            f" {_MAX_VALUES} values; lower m_paths or n"
        )


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
            levels on average (all checked before any allocation).
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
) -> SubordinatorEnsemble:
    """M rows S(t) = (t/W)^alpha on t_grid, one standard positive stable W
    per row: the exact one-time law of the inverse stable subordinator at
    every node, with no inversion step (tau_step = 0).

    A row is not a path of S: all its nodes share one W, so it is t^alpha
    times one random factor, and the errors of node means move together.
    Use it only where each node is read on its own.

    Raises:
        GridError: t_grid does not start at 0.
        OutOfRangeError: M < 1, or the ensemble would hold more than 2^27
            values (checked before any allocation).
    """
    _check_ensemble(t_grid, M)
    alpha = order.alpha
    w = _stable_block(alpha, M, _path_rng(seed, (_MARGINAL_KEY, 0)))
    paths = np.outer(w**-alpha, t_grid.nodes() ** alpha)
    return SubordinatorEnsemble(t_grid=t_grid, paths=paths, alpha=order, tau_step=0.0)


def _arrivals(law: WaitingTimeLaw, horizon: float, rng) -> np.ndarray:
    """Renewal arrival times T(n) <= horizon; waits are at least law.scale,
    so this stops after at most horizon/scale arrivals."""
    expected = max(1.0, horizon**law.alpha.alpha / law.scale**law.alpha.alpha)
    block = max(32, int(1.5 * expected) + 1)
    chunks = []
    last = 0.0
    while True:
        w = law.sample(rng, block)
        c = np.cumsum(w) + last
        chunks.append(c)
        last = c[-1]
        if last > horizon:
            break
        block = max(32, block // 4)
    times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return times[times <= horizon]


def scaling_samples(
    law: WaitingTimeLaw, c: float, M: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """M counting samples N_c and M independent S(1) samples.

    Raises:
        OutOfRangeError: c < 100, M < 1000, or the S(1) paths would hold
            more than 2^27 values (all checked before any allocation).
        DegenerateSampleError: every counting sample is zero.
    """
    if c < 100.0:
        raise OutOfRangeError(f"c must be at least 100, got {c}")
    if M < 1000:
        raise OutOfRangeError(f"M must be at least 1000, got {M}")
    s_grid = TimeGrid(0.0, 1.0, 2)
    if M * len(s_grid) > _MAX_VALUES:
        raise OutOfRangeError(
            f"{M} paths x {len(s_grid)} nodes exceed the ensemble cap of"
            f" {_MAX_VALUES} values; lower m_paths"
        )
    counts = np.empty(M)
    for i in range(M):
        rng = _path_rng(seed, (_RENEWAL_KEY, i))
        counts[i] = len(_arrivals(law, c, rng))
    if not np.any(counts > 0):
        raise DegenerateSampleError("all counting samples are zero; c too small")
    s1 = inverse_subordinator_paths(law.alpha, s_grid, M, seed=seed).paths[:, -1]
    return counts, s1


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


def ensemble_mean(ens: SubordinatorEnsemble) -> EnsembleStats:
    """Pointwise mean and stderr (= sample std / sqrt(M)) over the paths.

    Raises:
        DegenerateSampleError: fewer than two paths.
    """
    values = ens.paths
    m = values.shape[0]
    if m < 2:
        raise DegenerateSampleError("need at least two paths for mean and stderr")
    mean = values.mean(axis=0)
    # row by row, in the order of numpy's own axis-0 sum: values.std(ddof=1)
    # bit for bit, without its ensemble-sized temporary
    sq = np.zeros_like(mean)
    for row in values:
        sq += (row - mean) ** 2
    return EnsembleStats(
        t_grid=ens.t_grid, mean=mean, stderr=np.sqrt(sq / (m - 1)) / math.sqrt(m)
    )
