"""Blocked matrix multiplication: tiling, padding, reproducible accumulation.

The accelerator computes C = A x B by splitting A into row blocks and B
into column blocks, then accumulating each output tile as a sum of outer
products, one inner-dimension step at a time. This demo shows the tiling
arithmetic, where padding lives (in the transfers, not in the numerics),
and the bit-reproducibility of the accumulation order.
"""

import numpy as np

import masim

rng = np.random.default_rng(0)
m, k, n = 130, 50, 100
a = rng.random((m, k), dtype=np.float32)
b = rng.random((k, n), dtype=np.float32)

grid = masim.partition(m, n, k, block_rows=64, block_cols=64)
print(f"problem {m}x{k}x{n}, blocks 64x64")
print(f"  grid: {grid.grid_rows} x {grid.grid_cols} tiles "
      f"({grid.tile_count} total)")
print(f"  padded to {grid.padded_rows} x {grid.padded_cols} "
      f"(charged in transfers, never copied)")


def tile(tile_id):
    """One tile: the k-ordered kernel on its slices of A and B."""
    i, j = grid.tile_coords(tile_id)
    rows = slice(i * grid.block_rows, (i + 1) * grid.block_rows)
    cols = slice(j * grid.block_cols, (j + 1) * grid.block_cols)
    return rows, cols, masim.reference_gemm(a[rows], b[:, cols])


# the last tile sits on the ragged edge: its slices are cut short, and
# padding them with zeros would only add rows and columns that are cropped
rows, cols, edge = tile(grid.tile_count - 1)
print(f"  edge tile live region: {edge.shape[0]}x{edge.shape[1]} of 64x64")

# one k-ordered kernel serves the tile and the whole matrix: the tiles,
# assembled, and the whole-matrix product agree bit for bit
blocked = np.empty((m, n), np.float32)
for tile_id in range(grid.tile_count):
    rows, cols, block = tile(tile_id)
    blocked[rows, cols] = block
reference = masim.reference_gemm(a, b)
print(f"  blocked result equals reference bitwise: "
      f"{np.array_equal(blocked, reference)}")

# against a float64 product the usual float32 rounding remains; the
# oracle computes that product panel by panel to bound its memory
rel = masim.max_rel_error(a, b, blocked)
print(f"  max relative error vs float64 product: {rel:.2e}")

# every tile, edge tiles included, moves the same padded bytes: both
# operand slices in, the result tile out
in_bytes, out_bytes = masim.block_bytes(grid.block_rows, grid.block_cols, grid.depth)
print(f"  each tile moves {in_bytes} bytes in and {out_bytes} bytes out, "
      f"{in_bytes + out_bytes} bytes in total")
