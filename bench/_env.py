"""Locate the checkout and import the program from its own ``src`` tree."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import ModuleType

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "controversy_scope"


class ProgramMissing(RuntimeError):
    """The checkout holds no controversy_scope sources to benchmark."""


def import_program() -> ModuleType:
    """Import controversy_scope from this checkout, never from site-packages."""
    if not (PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no package sources at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("controversy_scope")
    if Path(module.__file__).resolve().parent != PACKAGE:
        raise ProgramMissing(f"controversy_scope imported from {module.__file__}, not {PACKAGE}")
    return module
