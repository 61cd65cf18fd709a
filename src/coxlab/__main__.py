"""Run the command line as ``python -m coxlab``."""

import sys

from .cli import main

sys.exit(main())
