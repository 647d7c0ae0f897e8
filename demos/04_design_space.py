"""Design-space exploration: picking the array count and block size.

The run time of a problem is bracketed by a compute-only lower bound and
a no-overlap upper bound built from the effective-bandwidth model. The
explorer ranks every feasible (array count, block size) pair by the
worst-case bound. More arrays is not automatically better: when two
configurations are both starved for bandwidth, the one with the longer
bursts can win.
"""

import masim

machine = masim.Machine()    # 4 base arrays of 64 PEs at 200 MHz, placeholder bandwidth
print(f"machine peak: {machine.peak_gflops:.1f} GFLOPS "
      f"({machine.max_arrays} base arrays of {machine.pes_per_base} PEs "
      f"at {machine.f_acc / 1e6:.0f} MHz)\n")

print(f"{'layer':<8} {'best point':>12} {'lower ms':>9} {'upper ms':>9} "
      f"{'gflops<=':>9}")
for name, (m, k, n) in masim.LAYER_PRESETS.items():
    shape = masim.ProblemShape(m, k, n)
    best = masim.explore(shape, machine)[0]
    pt = f"({best.point.n_arrays},{best.point.block_rows})"
    est = best.estimate
    print(f"{name:<8} {pt:>12} {est.lower_seconds * 1e3:9.2f} "
          f"{est.upper_seconds * 1e3:9.2f} {est.gflops_upper:9.1f}")

# a bandwidth-starved corner: one array with 32-wide bursts beats two
# arrays with 16-wide bursts because the port rewards longer bursts
table = masim.TableBandwidth({
    (1, 16): 7e8, (1, 32): 1.0e9,
    (2, 16): 5e8, (2, 32): 7e8,
    (3, 16): 4e8, (3, 32): 5.5e8,
    (4, 16): 3.5e8, (4, 32): 4.5e8,
})
starved = masim.Machine(bw_model=table)
shape = masim.ProblemShape(128, 1200, 729)
print("\nmemory-bound corner (measured-table calibration):")
for point in (masim.DesignPoint(1, 32), masim.DesignPoint(2, 16)):
    est = masim.bounds(shape, point, starved)
    bound = "memory" if est.transfer_seconds > est.compute_seconds else "compute"
    print(f"  ({point.n_arrays},{point.block_rows}): "
          f"upper {est.upper_seconds * 1e3:6.2f} ms, {bound}-bound")
ranked = [(e.point.n_arrays, e.point.block_rows)
          for e in masim.explore(shape, starved, candidates=[16, 32])]
print(f"  ranking: {ranked}")
print(f"  (1,32) placed {ranked.index((1, 32)) + 1} of {len(ranked)}, "
      f"ahead of (2,16) at {ranked.index((2, 16)) + 1}")
