"""Entry point: ``python3 benchmarks/e2e/run.py [run|compare] ...``.

Run from anywhere inside a full checkout; the program is imported from the
checkout's ``src/``.  Exits 2 without a result when ``src/repro`` is missing.
"""

from __future__ import annotations

import os
import pathlib
import sys
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts: the checkout's ``src``
    first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: {SRC / 'repro'} not found; the benchmark runs the program "
              "from a full checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    # Run as a script, this directory heads sys.path; drop it so its module
    # names cannot shadow anything else.
    sys.path.pop(0)
    sys.exit(main())
