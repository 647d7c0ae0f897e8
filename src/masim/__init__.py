"""Simulator and performance model for a multi-array linear systolic
GEMM accelerator."""

from .blockmm import (DTYPE, TileGrid, as_matrix, max_rel_error, partition,
                      reference_gemm)
from .mac import (BufferDescriptor, CalibrationError, CalibrationMissingError,
                  IdealBandwidth, ParametricBandwidth, TableBandwidth,
                  TransferPlan, block_bytes, effective_bandwidth,
                  plan_for_tile)
from .model import (DesignPoint, ExploreResult, ModelEstimate, ProblemShape,
                    bounds, default_block_candidates, explore,
                    feasible_points, n_work, t_compute, t_trans, t_work)
from .mpe import (BlockCharges, InfeasibleBlockError, Machine, PeState,
                  block_charges, block_cycles, psu_stall_plan, trace_block)
from .presets import LAYER_PRESETS
from .simulator import ArrayRunStats, SimReport, SimulationError, run_mpe
from .wqm import (RoundRobinArbiter, StealEvent, WorkQueue, arbitrate,
                  partition_workload, select_victim, steal)

__version__ = "0.1.0"
