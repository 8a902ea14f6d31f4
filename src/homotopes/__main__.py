"""``python -m homotopes``: the command line (``homotopes.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
