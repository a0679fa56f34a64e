"""``python -m mdiqkd_polcomp``: the command line, as the console script."""

import sys

from .cli import main

sys.exit(main())
