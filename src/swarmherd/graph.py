"""Grid graphs: bidirected lattices with a self-edge at every vertex.

Vertices use row-major numbering: vertex r*cols + c sits at row r, column c.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Immutable rows x cols grid with a self-edge at every vertex.

    ``neighbors[v]`` holds the non-self neighbors of v in ascending order.
    That order is canonical: action indexing, multinomial categories, and
    the Q-table layout all derive from it.
    """

    num_vertices: int
    neighbors: tuple[tuple[int, ...], ...]
    rows: int
    cols: int


def make_grid(rows: int, cols: int) -> Graph:
    """Bidirected rows x cols lattice with self-edges everywhere.

    Horizontal and vertical neighbors are connected in both directions;
    there are no diagonal edges. Raises ValueError for dimensions below 1
    or a single-vertex grid.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be at least 1, got {rows}x{cols}")
    if rows * cols < 2:
        raise ValueError("grid needs at least two vertices")
    nbrs = []
    for v in range(rows * cols):
        r, c = divmod(v, cols)
        # Up, left, right, down: ascending vertex order.
        row = []
        if r > 0:
            row.append(v - cols)
        if c > 0:
            row.append(v - 1)
        if c + 1 < cols:
            row.append(v + 1)
        if r + 1 < rows:
            row.append(v + cols)
        nbrs.append(tuple(row))
    return Graph(rows * cols, tuple(nbrs), rows, cols)
