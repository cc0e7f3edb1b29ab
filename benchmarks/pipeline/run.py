"""Script entry point: ``python3 benchmarks/pipeline/run.py ...``.

Puts the checkout root (for ``benchmarks.pipeline``) and ``src`` (for
``repro``) on the import path, so the command needs no environment.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:1] = [str(root), str(root / "src")]
    from benchmarks.pipeline.cli import main

    sys.exit(main())
