"""Uniform time grids and sampled vector-valued paths.

A :class:`TimeGrid` is the closed interval ``[a, b]`` split into ``n`` equal
steps, carrying the ``n + 1`` nodes ``t_i = a + i*h``.  A :class:`Trajectory`
holds one vector value per node, stored as an ``(n + 1, dim)`` float array.
All discrete operators in this package act on these two types.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GridError

__all__ = ["TimeGrid", "Trajectory", "write_csv", "write_text", "trapezoid"]

# rows formatted and written per chunk by write_csv
_CHUNK = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on ``[a, b]`` with ``n`` steps (``n + 1`` nodes)."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise GridError("grid endpoints must be finite")
        if not self.a < self.b:
            raise GridError(f"need a < b, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise GridError(f"need at least 2 steps, got n={self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n + 1)

    def __len__(self) -> int:
        return self.n + 1


@dataclass
class Trajectory:
    """Vector-valued samples on a :class:`TimeGrid`.

    ``values`` has shape ``(n + 1, dim)``; a 1-D array of length ``n + 1``
    is accepted and treated as ``dim = 1``.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise GridError(f"values must be 1-D or 2-D, got shape {v.shape}")
        if v.shape[0] != len(self.grid):
            raise GridError(
                f"values have {v.shape[0]} rows but grid has {len(self.grid)} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("trajectory values must all be finite")
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_callable(
        cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "Trajectory":
        """Sample ``fn`` on the grid nodes.

        ``fn`` receives the node array and may return shape ``(n + 1,)`` or
        ``(n + 1, dim)``.
        """
        return cls(grid, np.asarray(fn(grid.nodes()), dtype=float))

    @classmethod
    def constant(cls, grid: TimeGrid, value: Sequence[float] | float) -> "Trajectory":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(grid, np.tile(v, (len(grid), 1)))

    def same_grid(self, other: "Trajectory") -> None:
        if self.grid != other.grid:
            raise GridError("trajectories live on different grids")


def write_csv(
    path: str | os.PathLike,
    header: Iterable[str],
    columns: Sequence[np.ndarray],
) -> None:
    """Write aligned columns as CSV with 17 significant digits, atomically.

    Rows are formatted ``_CHUNK`` at a time, one ``%`` call per row on
    Python floats, and each chunk is streamed to :func:`write_text` as one
    string, so memory stays bounded by the chunk; the file still appears
    whole or not at all.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("CSV columns must have equal length")
    row = ",".join(["%.17g"] * len(cols))

    def chunks():
        yield ",".join(header)
        for lo in range(0, n, _CHUNK):
            yield "\n".join(row % v for v in zip(*(c[lo : lo + _CHUNK].tolist() for c in cols)))

    write_text(path, chunks())


def write_text(path: str | os.PathLike, lines: Iterable[str]) -> None:
    """Write lines with LF endings, atomically.

    Each line is written as it arrives, followed by LF, into a file next
    to ``path``, which is renamed into place once all are written, so
    readers never observe a partial file and an iterable that raises
    leaves nothing behind.  No lines still make one LF.  The temporary
    file is created with mode 0o666, which the umask trims as for any new
    file (mkstemp would make it owner-only).
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            empty = True
            for line in lines:
                fh.write(line)
                fh.write("\n")
                empty = False
            if empty:
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trapezoid(values: np.ndarray, h: float) -> float:
    """Trapezoid rule on uniformly spaced samples."""
    return float(np.trapezoid(np.asarray(values, dtype=float), dx=h))
