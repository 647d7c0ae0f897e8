import numpy as np
import pytest

import masim
from masim import cli


def assemble_run(rep, grid, a, b):
    """Output of the k-ordered kernel run on every tile the run executed.

    Each executed tile is reference_gemm on its slices A[r0:r1] and
    B[:, c0:c1]: padding would only add rows and columns that are cropped.
    The assembled result is what the accelerator writes back.
    """
    out = np.full((grid.m, grid.n), np.nan, np.float32)
    for stats in rep.arrays:
        for tid in stats.tiles:
            i, j = grid.tile_coords(tid)
            rows = slice(i * grid.block_rows, (i + 1) * grid.block_rows)
            cols = slice(j * grid.block_cols, (j + 1) * grid.block_cols)
            out[rows, cols] = masim.reference_gemm(a[rows], b[:, cols])
    return out


@pytest.fixture
def cli_output(monkeypatch):
    """Record (a, b, out) each time the CLI hands an output to the oracle."""
    seen = []
    check = cli.max_rel_error

    def recording(a, b, out):
        seen.append((a, b, out))
        return check(a, b, out)

    monkeypatch.setattr(cli, "max_rel_error", recording)
    return seen
