"""Every function the benchmark's tracer hooks must exist.

``bench/tracer.py`` skips a hook whose name is gone, and silently drops
the per-layer metrics that need it; this test makes such a loss fail.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402


def test_every_tracer_hook_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.HOOKS
        if getattr(owner, attr, None) is None
    ]
    assert not missing, f"tracer hooks that no longer resolve: {missing}"
