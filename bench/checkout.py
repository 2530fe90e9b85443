"""Locate the package sources of the checkout this benchmark lives in.

The benchmark measures the package as it stands in the checkout, so it
imports ``geodesic`` from ``<checkout>/src`` and never from an installed
copy.  Import this module before anything from ``geodesic``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put ``<checkout>/src`` first on the import path, or exit 2 without a result."""
    if not (SRC / "geodesic" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
