"""``python -m uhrkit``: the command line, as the ``uhrkit`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
