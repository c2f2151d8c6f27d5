"""`python -m cmfields`: the same command line as the `cmfields` script."""

import sys

from .cli import main

sys.exit(main())
