"""Blocked matrix multiplication: tiling, padding, reproducible accumulation.

The accelerator computes C = A x B by splitting A into row blocks and B
into column blocks, then accumulating each output tile as a sum of outer
products, one inner-dimension step at a time. This demo shows the tiling
arithmetic, the zero-fill at ragged edges, and the bit-reproducibility of
the accumulation order.
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
      f"(zero-filled on read, never copied)")

# one edge tile: rows past m and cols past n read as zero
tile = masim.make_tile(grid, grid.grid_rows - 1, grid.grid_cols - 1, a, b)
block = masim.reference_gemm(tile.sa(), tile.sb())
live = (m - tile.tile_row * 64, n - tile.tile_col * 64)
print(f"  edge tile live region: {live[0]}x{live[1]} of 64x64, "
      f"padding contributes {np.count_nonzero(block == 0)} zero cells")

# one k-ordered kernel serves the tile and the whole matrix: the blocked
# path and the whole-matrix product agree bit for bit
blocked = masim.multiply_blocked(a, b, grid)
reference = masim.reference_gemm(a, b)
print(f"  blocked result equals reference bitwise: "
      f"{np.array_equal(blocked, reference)}")

# against a float64 product the usual float32 rounding remains; the
# oracle computes that product panel by panel to bound its memory
rel = masim.max_rel_error(a, b, blocked)
print(f"  max relative error vs float64 product: {rel:.2e}")

# A is addressed in its transposed layout, so block fetches are unit-stride
# bursts; every tile moves the same padded bytes
plan = masim.plan_for_tile(grid, 0, 0)
print(f"  A-block descriptor reads {plan.a.n_bursts} bursts of "
      f"{plan.a.burst_elems} elements (stride {plan.a.stride}), "
      f"{plan.total_bytes} bytes per tile in total")
