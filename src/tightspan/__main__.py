"""Run the command-line interface: ``python -m tightspan <command> ...``."""

import sys

from .cli import main

sys.exit(main())
