"""Simulator and performance model for a multi-array linear systolic
GEMM accelerator."""

from .blockmm import DTYPE, as_matrix, max_rel_error, reference_gemm
from .mac import (CalibrationError, CalibrationMissingError, IdealBandwidth,
                  ParametricBandwidth, TableBandwidth, block_bytes,
                  effective_bandwidth)
from .model import (DesignPoint, ExploreEntry, ModelEstimate, ProblemShape,
                    bounds, default_block_candidates, explore,
                    feasible_points, n_work)
from .mpe import (BlockCharges, InfeasibleBlockError, Machine, PeState,
                  block_charges, trace_block)
from .presets import LAYER_PRESETS
from .simulator import ArrayRunStats, SimReport, SimulationError, run_mpe
from .wqm import StealEvent, arbitrate, partition_workload

__version__ = "0.1.0"
