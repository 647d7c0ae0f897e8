"""Tiling arithmetic, the k-ordered GEMM kernel and the float64 oracle.

Element data is float32 throughout. reference_gemm is the one k-ordered
accumulation kernel: the inner dimension is summed in strictly ascending k
order, so the whole-matrix product, a single tile and the cycle-level PE
walk all round identically and agree bit for bit. The kernel runs every k
on one row panel of the output before it moves to the next, so the panel
stays in L2 across the k loop; the blocking leaves each element's order of
summation as it is. A float64 accumulation mode is available on the kernel
for tolerance analysis, and max_rel_error is the float64 oracle the CLI
checks every output against.

Padding is logical: a tile at the ragged edge of the grid reads
out-of-range elements as zero instead of materialising padded copies of
the operands. Traffic accounting elsewhere still charges full padded
blocks, which is exactly what the transfer model assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.float32

# Output rows, output columns and inner-dimension depth of one max_rel_error
# step: its float64 copies of A and B hold 8 * 512 * (128 + 256) bytes
# (1.5 MB) at most. 128x256x512 measured faster (0.26 s vs 0.56 s on fc-6)
# and smaller in peak RSS than 32x64 panels over the full depth.
ORACLE_PANEL = (128, 256, 512)

# Output elements in one reference_gemm row panel, which is
# max(1, KERNEL_PANEL_ELEMS // n) full rows of C. A float32 panel and its
# scratch take 1 MB together and stay in a 2 MB per-core L2 across all k;
# the whole fc-6 output and its scratch (4 MB) did not, so every k went to
# L3 (fc-6 2.8 s -> 1.5 s). 2**16 and 2**18 measured no faster. Rows, not
# columns: a row panel is one contiguous block and reads each row of B
# whole, while column panels made every per-k operation strided and slower.
KERNEL_PANEL_ELEMS = 1 << 17


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float32 C-order array."""
    out = np.ascontiguousarray(a, dtype=DTYPE)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {out.ndim} dims")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    return out


@dataclass(frozen=True)
class TileGrid:
    """Partition of an m x n result into block_rows x block_cols tiles.

    The inner dimension (depth) is never split: each tile covers the full
    reduction. Padded dimensions are the smallest multiples of the block
    sizes covering the problem.
    """

    m: int
    n: int
    depth: int
    block_rows: int
    block_cols: int
    grid_rows: int
    grid_cols: int
    padded_rows: int
    padded_cols: int

    @property
    def tile_count(self) -> int:
        return self.grid_rows * self.grid_cols

    def tile_coords(self, tile_id: int) -> tuple[int, int]:
        """Map a row-major tile id back to (tile_row, tile_col)."""
        return divmod(tile_id, self.grid_cols)

    def tile_id(self, tile_row: int, tile_col: int) -> int:
        return tile_row * self.grid_cols + tile_col


def partition(m: int, n: int, depth: int, block_rows: int, block_cols: int) -> TileGrid:
    """Split an (m, depth) x (depth, n) product into a tile grid.

    Raises ValueError for non-positive dimensions or block sizes.
    """
    for name, v in (("m", m), ("n", n), ("depth", depth),
                    ("block_rows", block_rows), ("block_cols", block_cols)):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    grid_rows = -(-m // block_rows)
    grid_cols = -(-n // block_cols)
    return TileGrid(
        m=m, n=n, depth=depth,
        block_rows=block_rows, block_cols=block_cols,
        grid_rows=grid_rows, grid_cols=grid_cols,
        padded_rows=grid_rows * block_rows,
        padded_cols=grid_cols * block_cols,
    )


@dataclass(frozen=True)
class Tile:
    """One (tile_row, tile_col) task: a block_rows x depth slice of A against
    a depth x block_cols slice of B, with zero fill past the matrix edges."""

    grid: TileGrid
    tile_row: int
    tile_col: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if not (0 <= self.tile_row < self.grid.grid_rows):
            raise ValueError(f"tile_row {self.tile_row} outside grid")
        if not (0 <= self.tile_col < self.grid.grid_cols):
            raise ValueError(f"tile_col {self.tile_col} outside grid")

    def sa(self) -> np.ndarray:
        """Block of A: block_rows x depth, zero-filled below row m."""
        g = self.grid
        r0 = self.tile_row * g.block_rows
        r1 = min(r0 + g.block_rows, g.m)
        if r1 - r0 == g.block_rows:
            return self.a[r0:r1, :]
        out = np.zeros((g.block_rows, g.depth), DTYPE)
        out[: r1 - r0, :] = self.a[r0:r1, :]
        return out

    def sb(self) -> np.ndarray:
        """Block of B: depth x block_cols, zero-filled right of column n."""
        g = self.grid
        c0 = self.tile_col * g.block_cols
        c1 = min(c0 + g.block_cols, g.n)
        if c1 - c0 == g.block_cols:
            return self.b[:, c0:c1]
        out = np.zeros((g.depth, g.block_cols), DTYPE)
        out[:, : c1 - c0] = self.b[:, c0:c1]
        return out


def make_tile(grid: TileGrid, tile_row: int, tile_col: int, a, b) -> Tile:
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != (grid.m, grid.depth):
        raise ValueError(f"a has shape {a.shape}, grid expects {(grid.m, grid.depth)}")
    if b.shape != (grid.depth, grid.n):
        raise ValueError(f"b has shape {b.shape}, grid expects {(grid.depth, grid.n)}")
    return Tile(grid, tile_row, tile_col, a, b)


def reference_gemm(a, b, accumulate: str = "f32") -> np.ndarray:
    """Reference product C[i, j] = sum_k A[i, k] * B[k, j], k ascending.

    This is the accelerator's numerics: each PE accumulates its output
    elements in exactly this order, so the kernel applied to the whole
    matrix, to one tile, or walked cycle by cycle gives the same bits. The
    sum is built as a sequence of rank-1 updates, one per k, so the
    rounding sequence per output element is fully determined: every element
    gets c = fl(c + fl(a[i, k] * b[k, j])) for k = 0, 1, 2, ... With
    accumulate="f64" the updates run in float64 (returned as float64) for
    use as a higher-precision yardstick.

    The updates are applied one row panel of C at a time (see
    KERNEL_PANEL_ELEMS): all k for rows r0..r1, then all k for the next
    rows. A panel is contiguous and stays in L2 with its scratch across the
    k loop, where the whole output would be re-read from L3 once per k.
    Each element belongs to one panel and sees the same updates in the same
    order as in a whole-matrix pass, so the bits do not depend on the panel
    size.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}")
    if accumulate == "f32":
        dt = np.float32
    elif accumulate == "f64":
        dt = np.float64
    else:
        raise ValueError(f"unknown accumulate mode {accumulate!r}")
    aa = a.astype(dt, copy=False)
    bb = b.astype(dt, copy=False)
    m, n = a.shape[0], b.shape[1]
    rows = max(1, KERNEL_PANEL_ELEMS // n)
    out = np.zeros((m, n), dt)
    scratch = np.empty((min(rows, m), n), dt)
    for r0 in range(0, m, rows):
        panel = out[r0: r0 + rows]
        t = scratch[: panel.shape[0]]
        a_panel = aa[r0: r0 + rows]
        for k in range(a.shape[1]):
            np.multiply.outer(a_panel[:, k], bb[k], out=t)
            np.add(panel, t, out=panel)
    return out


def multiply_blocked(a, b, grid: TileGrid) -> np.ndarray:
    """Full blocked product: run every tile, assemble, crop the padding.

    Functional (untimed) counterpart of what the array simulator computes;
    bitwise equal to reference_gemm(a, b) because the k order matches.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    out = np.zeros((grid.padded_rows, grid.padded_cols), DTYPE)
    for tid in range(grid.tile_count):
        i, j = grid.tile_coords(tid)
        tile = make_tile(grid, i, j, a, b)
        r0 = i * grid.block_rows
        c0 = j * grid.block_cols
        out[r0: r0 + grid.block_rows, c0: c0 + grid.block_cols] = \
            reference_gemm(tile.sa(), tile.sb())
    return out[: grid.m, : grid.n]


def max_rel_error(a, b, out) -> float:
    """Largest element-wise relative error of out against a float64 product.

    The float64 reference is a matmul computed one ORACLE_PANEL output panel
    at a time, each summed over depth slices of the inner dimension, so its
    float64 working set is bounded whatever the problem size. A NaN anywhere
    in out makes the result NaN.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}")
    if out.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"out has shape {out.shape}, expected {(a.shape[0], b.shape[1])}")
    panel_rows, panel_cols, panel_depth = ORACLE_PANEL
    tiny = np.finfo(np.float64).tiny
    worst = np.float64(0.0)
    for c0 in range(0, b.shape[1], panel_cols):
        cols = slice(c0, c0 + panel_cols)
        for r0 in range(0, a.shape[0], panel_rows):
            rows = slice(r0, r0 + panel_rows)
            ref = sum(a[rows, k0: k0 + panel_depth].astype(np.float64)
                      @ b[k0: k0 + panel_depth, cols].astype(np.float64)
                      for k0 in range(0, a.shape[1], panel_depth))
            err = np.abs(out[rows, cols] - ref)
            worst = np.maximum(worst, (err / np.maximum(np.abs(ref), tiny)).max())
    return float(worst)
