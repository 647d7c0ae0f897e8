"""Simulator and performance model for a multi-array linear systolic
GEMM accelerator."""

from .mac import (CalibrationError, CalibrationMissingError, IdealBandwidth,
                  ParametricBandwidth, TableBandwidth, block_bytes,
                  effective_bandwidth)
from .model import (DesignPoint, ExploreEntry, ModelEstimate, ProblemShape,
                    bounds, default_block_candidates, explore,
                    feasible_points, n_work)
from .mpe import BlockCharges, InfeasibleBlockError, Machine, block_charges
from .presets import LAYER_PRESETS
from .simulator import ArrayRunStats, SimReport, SimulationError, run_mpe
from .wqm import StealEvent, arbitrate, partition_workload

__version__ = "0.1.0"

_NUMERICS = ("DTYPE", "as_matrix", "max_rel_error", "reference_gemm", "PeState",
             "trace_block")


def __getattr__(name):
    """A numerics name, imported from blockmm on first access (PEP 562)."""
    if name not in _NUMERICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import blockmm
    return getattr(blockmm, name)
