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

si = sj = 64
shape = masim.ProblemShape(m, k, n)
grid_rows, grid_cols = -(-m // si), -(-n // sj)
# tile ids run row-major over the grid; edge tiles are cut short
tiles = [(slice(r0, r0 + si), slice(c0, c0 + sj))
         for r0 in range(0, m, si) for c0 in range(0, n, sj)]
assert len(tiles) == shape.tile_count(si, sj)
print(f"problem {m}x{k}x{n}, blocks {si}x{sj}")
print(f"  grid: {grid_rows} x {grid_cols} tiles ({len(tiles)} total)")
print(f"  padded to {grid_rows * si} x {grid_cols * sj} "
      f"(charged in transfers, never copied)")


def tile(tile_id):
    """One tile: the k-ordered kernel on its slices of A and B."""
    rows, cols = tiles[tile_id]
    return rows, cols, masim.reference_gemm(a[rows], b[:, cols])


# the last tile sits on the ragged edge: its slices are cut short, and
# padding them with zeros would only add rows and columns that are cropped
rows, cols, edge = tile(len(tiles) - 1)
print(f"  edge tile live region: {edge.shape[0]}x{edge.shape[1]} of {si}x{sj}")

# one k-ordered kernel serves the tile and the whole matrix: the tiles,
# assembled, and the whole-matrix product agree bit for bit
blocked = np.empty((m, n), np.float32)
for tile_id in range(len(tiles)):
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
in_bytes, out_bytes = masim.block_bytes(si, sj, k)
print(f"  each tile moves {in_bytes} bytes in and {out_bytes} bytes out, "
      f"{in_bytes + out_bytes} bytes in total")
