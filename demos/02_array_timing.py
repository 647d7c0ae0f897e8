"""Timing anatomy of one linear array executing blocks.

A block of (block_rows x depth) x (depth x block_cols) costs

    block_rows                      prefetch of the first A column
  + max(block_rows, block_cols)     per inner step, B row streaming
      * depth                         padded by synchroniser stalls
  + pipeline stages                 multiply-accumulate flush

cycles. The cycle-by-cycle walk of the array (explicit PE registers and
FIFO hops) lands on the same count and the same bits as simulate_block,
whose tile comes from the k-ordered kernel.
"""

import numpy as np

import masim

rng = np.random.default_rng(1)
machine = masim.Machine()                  # 4 base arrays of 64 PEs, 8 stages
array = masim.configure_mpe(machine, [False] * 3).arrays[0]

print("closed-form cycles vs cycle-by-cycle walk")
for si, sj, k in [(16, 16, 8), (16, 8, 8), (8, 16, 8), (5, 7, 3)]:
    job = masim.BlockJob(rng.random((si, k), dtype=np.float32),
                         rng.random((k, sj), dtype=np.float32), si, sj, k)
    fast = masim.simulate_block(array, job, machine)
    walk, events, pes = masim.trace_block(array, job, machine)
    stalls = masim.psu_stall_plan(si, sj)
    print(f"  {si:>3}x{sj:<3} depth {k}: {fast.cycles} cycles "
          f"({stalls} stall/step), walk {walk.cycles}, "
          f"bitwise equal: {np.array_equal(fast.tile, walk.tile)}")

# the walk exposes the architectural invariants directly
si, sj, k = 6, 4, 3
job = masim.BlockJob(rng.random((si, k), dtype=np.float32),
                     rng.random((k, sj), dtype=np.float32), si, sj, k)
_, events, pes = masim.trace_block(array, job, machine)
latches = [e for e in events if e.kind == "a_latch" and e.k == 0]
print(f"\nprefetch: all {len(latches)} PEs latch their own element on "
      f"cycle {latches[0].cycle}")
print(f"register reuse per step: {pes[0].reuse_this_iter} "
      f"(= block_cols, each buffered value multiplies a whole B row)")

# joining arrays through the multiplexers supports longer blocks; the
# values never change, only the timing does, so the run needs no data
grid = masim.partition(48, 48, 20, 16, 16)
print("\nindependent vs cooperating arrays on the same 9-tile workload")
for n_arrays in (4, 1):
    queues = masim.partition_workload(grid, n_arrays)
    rep = masim.run_mpe(machine, grid, queues)
    label = f"{n_arrays} array(s)"
    print(f"  {label:<12} {rep.total_cycles:>8} cycles, "
          f"{rep.gflops:6.2f} GFLOPS, "
          f"blocks per array {[s.blocks_executed for s in rep.arrays]}")
