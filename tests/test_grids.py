"""Grid construction, trajectory containers, and CSV serialization."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractime import TimeGrid
from fractime.errors import GridError
from fractime.grids import _CHUNK, Trajectory, trapezoid, write_csv, write_text


def test_grid_nodes_hit_endpoints_exactly():
    grid = TimeGrid(0.25, 2.75, 10)
    t = grid.nodes()
    assert t[0] == 0.25
    assert t[-1] == pytest.approx(2.75, abs=1e-15)
    assert len(grid) == 11
    assert grid.h == pytest.approx(0.25)


def test_grid_rejects_degenerate_intervals():
    with pytest.raises(GridError):
        TimeGrid(1.0, 1.0, 4)
    with pytest.raises(GridError):
        TimeGrid(2.0, 1.0, 4)
    with pytest.raises(GridError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(GridError):
        TimeGrid(0.0, math.inf, 4)


def test_trajectory_accepts_flat_and_stacked_values():
    grid = TimeGrid(0.0, 1.0, 4)
    flat = Trajectory(grid, np.arange(5.0))
    assert flat.dim == 1
    assert flat.values.shape == (5, 1)
    wide = Trajectory(grid, np.ones((5, 3)))
    assert wide.dim == 3
    np.testing.assert_array_equal(wide.values[:, 2], np.ones(5))


def test_trajectory_rejects_bad_shapes_and_nonfinite():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(GridError):
        Trajectory(grid, np.ones(4))
    with pytest.raises(GridError):
        Trajectory(grid, np.ones((5, 2, 2)))
    bad = np.ones(5)
    bad[2] = np.nan
    with pytest.raises(GridError):
        Trajectory(grid, bad)


def test_from_callable_supports_scalar_and_vector_outputs():
    grid = TimeGrid(0.0, 1.0, 8)
    scalar = Trajectory.from_callable(grid, np.sin)
    np.testing.assert_array_equal(scalar.values[:, 0], np.sin(grid.nodes()))
    vector = Trajectory.from_callable(grid, lambda t: np.stack([t, t * t], axis=1))
    assert vector.dim == 2
    np.testing.assert_array_equal(vector.values[:, 1], grid.nodes() ** 2)


def test_constant_trajectory_tiles_value():
    grid = TimeGrid(0.0, 1.0, 3)
    traj = Trajectory.constant(grid, [2.0, -1.0])
    assert traj.dim == 2
    assert np.all(traj.values == [2.0, -1.0])


def test_same_grid_guards_mixed_grids():
    x = Trajectory.constant(TimeGrid(0.0, 1.0, 4), 1.0)
    y = Trajectory.constant(TimeGrid(0.0, 1.0, 5), 1.0)
    with pytest.raises(GridError):
        x.same_grid(y)


def test_write_csv_roundtrips_doubles_exactly(tmp_path):
    path = tmp_path / "vals.csv"
    col = np.array([math.pi, 1.0 / 3.0, 1e-17, -2.5e300])
    write_csv(path, ["t", "v"], [np.arange(4.0), col])
    lines = path.read_text().split("\n")
    assert lines[0] == "t,v"
    back = np.array([float(line.split(",")[1]) for line in lines[1:5]])
    np.testing.assert_array_equal(back, col)
    # LF only, trailing newline
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.ones(3), np.ones(4)])


def test_write_csv_leaves_no_temp_files(tmp_path):
    write_csv(tmp_path / "out.csv", ["a"], [np.ones(2)])
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]



def _per_cell_csv(header, columns):
    # one np.float64 formatted per cell, the writer's reference output
    rows = [",".join(header)]
    rows += [",".join(f"{np.float64(c[i]):.17g}" for c in columns) for i in range(len(columns[0]))]
    return ("\n".join(rows) + "\n").encode()


def test_write_csv_matches_per_cell_formatting_on_edge_values(tmp_path):
    edge = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308,
            -1.7976931348623157e308, 0.1, 1.0 / 3.0, 3.0, -42.0, 1e16, 2.0**53 + 2.0, 1e-7]
    cols = [np.array(edge), np.array(edge[::-1]), np.arange(len(edge), dtype=float)]
    path = tmp_path / "edge.csv"
    write_csv(path, ["a", "b", "i"], cols)
    assert path.read_bytes() == _per_cell_csv(["a", "b", "i"], cols)


@pytest.mark.parametrize("rows", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_write_csv_rows_across_chunk_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    cols = [np.arange(rows) * 0.1, rng.standard_normal(rows) * 1e5]
    path = tmp_path / "rows.csv"
    write_csv(path, ["t", "v"], cols)
    assert path.read_bytes() == _per_cell_csv(["t", "v"], cols)


def test_write_text_leaves_nothing_when_lines_raise(tmp_path):
    def lines():
        for i in range(_CHUNK + 5):
            yield f"line {i}"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_text(tmp_path / "out.txt", lines())
    assert os.listdir(tmp_path) == []


def test_write_text_of_no_lines_is_one_newline(tmp_path):
    write_text(tmp_path / "empty.txt", [])
    assert (tmp_path / "empty.txt").read_bytes() == b"\n"


def test_write_csv_memory_is_bounded_by_its_chunk(tmp_path):
    # 65,537 x 3 values, the frac-deriv sin export; holding every line at
    # once (and their join) peaks near 14 MiB
    t = np.linspace(0.0, 10.0, 65537)
    cols = [t, np.sin(t), np.cos(t)]
    write_csv(tmp_path / "warm.csv", ["t", "a", "b"], [c[:10] for c in cols])
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["t", "a", "b"], cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert (tmp_path / "big.csv").read_bytes() == _per_cell_csv(["t", "a", "b"], cols)


def test_write_keyvalues_format(tmp_path, capsys):
    # key=value text goes through write_text, one LF-terminated line each;
    # the solve-fde sidecar is such a file
    from fractime import cli

    path = tmp_path / "meta.txt"
    write_text(path, ["alpha=0.5", "n=2048"])
    assert path.read_bytes() == b"alpha=0.5\nn=2048\n"
    out = tmp_path / "run"
    assert cli.main(["solve-fde", "--b", "1", "--n", "2048", "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "solution.csv.meta").read_text()
    assert "alpha=0.5" in text
    assert "n=2048" in text


def test_trajectory_save_csv_headers(tmp_path, capsys):
    # a two-component trajectory is written as t,x0,x1 by solve-fde
    from fractime import cli

    assert cli.main(["solve-fde", "--b", "1", "--n", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 1 + 3

def test_trapezoid_matches_reference_quadrature():
    grid = TimeGrid(0.0, math.pi, 2000)
    vals = np.sin(grid.nodes())
    assert trapezoid(vals, grid.h) == pytest.approx(2.0, abs=1e-6)
    assert trapezoid(vals, grid.h) == pytest.approx(
        np.trapezoid(vals, dx=grid.h), abs=0.0
    )


@settings(max_examples=50, deadline=None)
@given(
    c1=st.floats(-10, 10, allow_nan=False),
    c2=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_trapezoid_is_linear(c1, c2, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(17)
    g = rng.standard_normal(17)
    h = 0.125
    combined = trapezoid(c1 * f + c2 * g, h)
    split = c1 * trapezoid(f, h) + c2 * trapezoid(g, h)
    assert combined == pytest.approx(split, abs=1e-9)
