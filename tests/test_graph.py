"""The grid read through ``HerdingEnv.neighbors``: each vertex's neighbors in
ascending order, from ``EnvConfig``'s rows and cols. The ``make_grid`` test
names date from the function these checks were first written against."""

import pytest

from swarmherd import HerdingEnv

from helpers import grid_env


def neighbors(rows, cols):
    return HerdingEnv(grid_env(rows, cols)).neighbors


def grid_neighbors(rows, cols, v):
    """The coordinate rule: the other vertices at Manhattan distance 1, ascending."""
    r, c = divmod(v, cols)
    return tuple(
        t for t in range(rows * cols) if abs(t // cols - r) + abs(t % cols - c) == 1
    )


def reachable(neighbors, start=0):
    seen = {start}
    stack = [start]
    while stack:
        for t in neighbors[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def test_make_grid_2x2_edge_set():
    cfg = grid_env(2, 2)
    assert cfg.num_vertices == 4
    assert HerdingEnv(cfg).neighbors == ((1, 2), (0, 3), (0, 3), (1, 2))
    assert cfg.rows == 2 and cfg.cols == 2


def test_make_grid_1x2():
    cfg = grid_env(1, 2)
    assert cfg.num_vertices == 2
    assert HerdingEnv(cfg).neighbors == ((1,), (0,))
    assert cfg.rows == 1 and cfg.cols == 2


@pytest.mark.parametrize("rows,cols", [(0, 2), (2, 0), (-1, 3), (1, 1)])
def test_make_grid_invalid_dimensions(rows, cols):
    # EnvConfig's ConfigError is a ValueError.
    with pytest.raises(ValueError, match="invalid grid dimensions"):
        grid_env(rows, cols)


def test_out_neighbors_2x2():
    nbrs = neighbors(2, 2)
    assert nbrs[0] == (1, 2)
    assert nbrs[3] == (1, 2)


def test_out_neighbors_1x2():
    assert neighbors(1, 2)[0] == (1,)


def test_strong_connectivity_grid():
    # Every grid is strongly connected: its edges are bidirected and it is connected.
    for rows, cols in ((1, 2), (2, 2), (3, 3), (5, 4)):
        assert reachable(neighbors(rows, cols)) == set(range(rows * cols))


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 3), (1, 5), (4, 2), (5, 4)])
def test_grid_properties(rows, cols):
    cfg = grid_env(rows, cols)
    nbrs = HerdingEnv(cfg).neighbors
    assert (cfg.rows, cfg.cols, cfg.num_vertices) == (rows, cols, rows * cols)
    assert nbrs == tuple(grid_neighbors(rows, cols, v) for v in range(rows * cols))
    # bidirectedness: t is a neighbor of v exactly when v is a neighbor of t
    for v, row in enumerate(nbrs):
        assert all(v in nbrs[t] for t in row)
