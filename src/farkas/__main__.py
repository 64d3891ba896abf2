"""``python -m farkas``: the ``farkas`` command line (``cli.main``)."""
import sys

from .cli import main

if __name__ == "__main__":  # not on import: a tracer imports every submodule
    sys.exit(main())
