import numpy as np
import pytest

import masim
from masim import cli


def assemble_run(rep, machine, grid, a, b):
    """Output of simulate_block run on every tile, on the array that executed it.

    This is the per-block path a run's schedule implies; the cropped result
    is what the accelerator writes back.
    """
    layout = masim.layout_for_point(machine, len(rep.arrays), grid.block_rows,
                                    grid.block_cols)
    out = np.zeros((grid.padded_rows, grid.padded_cols), np.float32)
    for array, stats in zip(layout.arrays, rep.arrays):
        for tid in stats.tiles:
            i, j = grid.tile_coords(tid)
            tile = masim.make_tile(grid, i, j, a, b)
            res = masim.simulate_block(
                array, masim.BlockJob(tile.sa(), tile.sb(), grid.block_rows,
                                      grid.block_cols, grid.depth, i, j),
                machine)
            r0, c0 = i * grid.block_rows, j * grid.block_cols
            out[r0: r0 + grid.block_rows, c0: c0 + grid.block_cols] = res.tile
    return out[: grid.m, : grid.n]


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
