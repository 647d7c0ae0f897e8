"""Timing anatomy of one linear array executing blocks.

A block of (block_rows x depth) x (depth x block_cols) costs

    block_rows                      prefetch of the first A column
  + max(block_rows, block_cols)     per inner step, B row streaming
      * depth                         padded by synchroniser stalls
  + pipeline stages                 multiply-accumulate flush

cycles, which block_charges gives. The cycle-by-cycle walk of the array
(trace_block: explicit PE registers and PE-to-PE hops) lands on the same
count and on the same bits as the k-ordered kernel.
"""

import numpy as np

import masim

rng = np.random.default_rng(1)
machine = masim.Machine()                  # 4 base arrays of 64 PEs, 8 stages


def block(si, sj, k):
    return (rng.random((si, k), dtype=np.float32),
            rng.random((k, sj), dtype=np.float32))


print("closed-form cycles vs cycle-by-cycle walk")
for si, sj, k in [(16, 16, 8), (16, 8, 8), (8, 16, 8), (5, 7, 3)]:
    sa, sb = block(si, sj, k)
    charges = masim.block_charges(si, sj, k, machine)
    tile, events, pes = masim.trace_block(sa, sb, machine)
    walked = max(e.cycle for e in events if e.kind != "drain_done")
    print(f"  {si:>3}x{sj:<3} depth {k}: {charges.cycles} cycles "
          f"({charges.stall_cycles // k} stall/step), walk {walked}, "
          f"bitwise equal to the kernel: "
          f"{np.array_equal(tile, masim.reference_gemm(sa, sb))}")

# the walk exposes the architectural invariants directly
_, events, pes = masim.trace_block(*block(6, 4, 3), machine)
latches = [e for e in events if e.kind == "a_latch" and e.k == 0]
print(f"\nprefetch: all {len(latches)} PEs latch their own element on "
      f"cycle {latches[0].cycle}")
print(f"register reuse per step: {pes[0].reuse_this_iter} "
      f"(= block_cols, each buffered value multiplies a whole B row)")

# joining base arrays through the multiplexers supports longer blocks: a
# block of block_rows runs on a chain of machine.chain(block_rows) of them
print("\nbase arrays per effective array, and array counts, by block rows")
for si in (64, 100, 192):
    print(f"  {si:>3} rows: chains of {machine.chain(si)}, "
          f"array counts {list(machine.array_counts(si, si))}")

# the values never change with the layout, only the timing does, so the
# run needs no data
shape = masim.ProblemShape(48, 20, 48)
print("\nindependent vs cooperating arrays on the same 9-tile workload")
for n_arrays in (4, 1):
    rep = masim.run_mpe(shape, masim.DesignPoint(n_arrays, 16), machine)
    label = f"{n_arrays} array(s)"
    print(f"  {label:<12} {rep.total_cycles:>8} cycles, "
          f"{rep.gflops:6.2f} GFLOPS, "
          f"blocks per array {[s.blocks_executed for s in rep.arrays]}")
