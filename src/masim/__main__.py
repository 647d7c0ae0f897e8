"""python -m masim and the masim script: the masim command line (see
masim.cli), with BLAS pinned to one thread unless the environment says
otherwise.

masim calls no BLAS, but numpy loads OpenBLAS, whose idle worker threads
spin after import and take a core from the verify loop's parts: on two
vCPUs, `masim run --preset conv-1 --auto --seed 7` took 28.2 ms unpinned
against 18.3 ms pinned, and fc-6 0.279 s against 0.243 s (medians of 12
fresh processes). Each of the three thread-count variables the user has not
set is set to 1 before masim.cli, and with it numpy, is imported. A plain
`import masim.cli` leaves the environment alone.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
