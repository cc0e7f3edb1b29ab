"""``PYTHONPATH=src python -m benchmarks.pipeline`` - same as ``run.py``."""

import sys

from .cli import main

sys.exit(main())
