"""Every name of the package that the benchmark uses must exist.

``bench/tracer.py`` skips a hook whose name is gone, and silently drops
the per-layer metrics that need it; ``bench/workloads.py`` builds its
operations from public functions and options of the package.  These tests
make such a loss fail here rather than in ``bench/run.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from checkout import use_checkout_sources  # noqa: E402

use_checkout_sources()

import tracer  # noqa: E402
import workloads  # noqa: E402
from calibrate import Speedometer  # noqa: E402


def test_every_tracer_hook_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.HOOKS
        if getattr(owner, attr, None) is None
    ]
    assert not missing, f"tracer hooks that no longer resolve: {missing}"


@pytest.mark.parametrize("name", workloads.WORKLOADS + ("paper-j2",))
def test_every_workload_builds(name):
    assert workloads.build(name, 1).ops


def test_random_n7_batch_runs_and_checks():
    # run_batch clears the decision cache first, then checks every pinned answer
    result = workloads.run_batch(workloads.build("random-n7", 1), Speedometer())
    assert result.failures == []
