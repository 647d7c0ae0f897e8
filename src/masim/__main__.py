"""python -m masim: the masim command line (see masim.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
