"""Work stealing between array queues.

run_mpe deals the tiles round-robin, one task queue per array; when an
array has nothing queued and a buffer slot free, it steals the tail task
of the fullest other queue, with simultaneous requests arbitrated
round-robin. Under skewed service
rates this keeps every array busy and cuts the makespan.
"""

import masim

m, k, n = 32, 8, 32                       # 8x8 grid of 4x4 tiles
shape, point = masim.ProblemShape(m, k, n), masim.DesignPoint(4, 4)
machine = masim.Machine(bw_model=masim.IdealBandwidth())

slow = {0: 2.0}                            # array 0 runs at half speed
print(f"{shape.tile_count(4, 4)} tiles over 4 arrays, array 0 clocked 2x slower\n")

results = {}
for steal_on in (False, True):
    rep = masim.run_mpe(shape, point, machine, steal=steal_on, slowdowns=slow)
    results[steal_on] = rep
    mode = "stealing" if steal_on else "static  "
    print(f"{mode}: makespan {rep.total_cycles} cycles, "
          f"blocks per array {[s.blocks_executed for s in rep.arrays]}, "
          f"steals {len(rep.steal_events)}")

blocks = masim.block_charges(4, 4, k, machine).cycles
ideal = 64 * blocks / (0.5 + 1 + 1 + 1)
speedup = results[False].total_cycles / results[True].total_cycles
print(f"\nideal balanced makespan {ideal:.0f} cycles; stealing is "
      f"{speedup:.2f}x faster than the static split and within "
      f"{results[True].total_cycles / ideal:.3f}x of ideal")

print("\nsteal log (time, thief, victim, task):")
for ev in results[True].steal_events:
    print(f"  {ev.time_s * machine.f_acc:8.0f} cy  array {ev.thief} <- array {ev.victim}"
          f"  tile {ev.item_id}")

# both schedules execute every tile exactly once, so both write back the
# same output: the k-ordered product of the whole problem
for rep in results.values():
    done = sorted(t for s in rep.arrays for t in s.tiles)
    assert done == list(range(rep.tile_count))
print("\nexactly-once execution confirmed for both schedules")
