"""`python -m cupgame`: the same command line as the `cupgame` script."""

import sys

from .cli import main

sys.exit(main())
