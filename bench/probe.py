"""Set one workload up in a fresh process, for ``setup_s`` in ``run.py``.

    python3 bench/probe.py WORKLOAD SEED

Imports the package, builds the workload's inputs, and prints one JSON
line: the kernel speed (``calibrate.py``) read right before the import
and right after the build, and the time those readings took.
"""

from __future__ import annotations

import json
import sys

from calibrate import Speedometer

READINGS = 3

speed = Speedometer()
for _ in range(READINGS):
    speed.sample()

from checkout import use_checkout_sources  # noqa: E402

use_checkout_sources()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
for _ in range(READINGS):
    speed.sample()
kernel_s = (min(speed.samples[:READINGS]) + min(speed.samples[READINGS:])) / 2
print(json.dumps({"kernel_s": kernel_s, "sampling_s": speed.spent}), flush=True)
