"""``python -m repro``: the ``repro`` command line (:func:`repro.cli.main`)."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
