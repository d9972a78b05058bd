"""``python -m scgames``: the ``scgames`` command, run from a checkout."""

import sys

from .cli import main

sys.exit(main())
