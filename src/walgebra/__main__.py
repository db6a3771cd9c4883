"""`python -m walgebra`: the command line of walgebra.cli."""

import sys

from .cli import main

sys.exit(main())
