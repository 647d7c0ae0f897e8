"""Simulator and performance model for a multi-array linear systolic
GEMM accelerator."""

from .blockmm import (DTYPE, Tile, TileGrid, as_matrix, make_tile,
                      max_rel_error, multiply_blocked, partition,
                      reference_gemm)
from .mac import (BufferDescriptor, CalibrationError, CalibrationMissingError,
                  IdealBandwidth, ParametricBandwidth, TableBandwidth,
                  TransferPlan, block_bytes, effective_bandwidth,
                  plan_for_tile)
from .model import (DesignPoint, ExploreResult, ModelEstimate, ProblemShape,
                    bounds, default_block_candidates, explore,
                    feasible_points, n_work, t_compute, t_trans, t_work)
from .mpe import (BlockCharges, BlockJob, BlockResult, EffectiveArray,
                  InfeasibleBlockError, Machine, MpeLayout, PeState,
                  block_charges, block_cycles, configure_mpe,
                  layout_for_point, psu_stall_plan, simulate_block,
                  trace_block)
from .presets import LAYER_PRESETS
from .simulator import (ArrayRunStats, SimReport, SimulationError, run_mpe,
                        write_trace_csv)
from .wqm import (RoundRobinArbiter, StealEvent, WorkItem, WorkQueue,
                  arbitrate, build_work_items, partition_workload,
                  select_victim, steal)

__version__ = "0.1.0"
