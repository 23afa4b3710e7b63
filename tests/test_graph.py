import pytest

from swarmherd import make_grid


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
    g = make_grid(2, 2)
    assert g.num_vertices == 4
    assert g.neighbors == ((1, 2), (0, 3), (0, 3), (1, 2))
    assert g.rows == 2 and g.cols == 2


def test_make_grid_1x2():
    g = make_grid(1, 2)
    assert g.num_vertices == 2
    assert g.neighbors == ((1,), (0,))
    assert g.rows == 1 and g.cols == 2


@pytest.mark.parametrize("rows,cols", [(0, 2), (2, 0), (-1, 3), (1, 1)])
def test_make_grid_invalid_dimensions(rows, cols):
    with pytest.raises(ValueError):
        make_grid(rows, cols)


def test_out_neighbors_2x2():
    g = make_grid(2, 2)
    assert g.neighbors[0] == (1, 2)
    assert g.neighbors[3] == (1, 2)


def test_out_neighbors_1x2():
    assert make_grid(1, 2).neighbors[0] == (1,)


def test_strong_connectivity_grid():
    # Every grid is strongly connected: its edges are bidirected and it is connected.
    for rows, cols in ((1, 2), (2, 2), (3, 3), (5, 4)):
        g = make_grid(rows, cols)
        assert reachable(g.neighbors) == set(range(g.num_vertices))


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 3), (1, 5), (4, 2), (5, 4)])
def test_grid_properties(rows, cols):
    g = make_grid(rows, cols)
    assert (g.rows, g.cols, g.num_vertices) == (rows, cols, rows * cols)
    assert g.neighbors == tuple(grid_neighbors(rows, cols, v) for v in range(rows * cols))
    # bidirectedness: t is a neighbor of v exactly when v is a neighbor of t
    for v, nbrs in enumerate(g.neighbors):
        assert all(v in g.neighbors[t] for t in nbrs)
