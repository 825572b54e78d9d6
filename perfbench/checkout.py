"""Locate the checkout the benchmark runs in and import its program.

The benchmark runs from the root of a checkout and measures the
``repro`` package under that checkout's ``src/``, never an installed
copy: without that source it exits non-zero before printing a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, temp files, traces) stays under here.
STATE = ROOT / ".perfbench"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
