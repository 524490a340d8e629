"""``python -m uncloneq``: the command line of :mod:`uncloneq.cli`."""

import sys

from .cli import main

sys.exit(main())
