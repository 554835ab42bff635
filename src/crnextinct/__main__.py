"""Run the command line as `python -m crnextinct`, the same as `python -m crnextinct.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
