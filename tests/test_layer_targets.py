"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps the
program's layer entry points by name; every name it wraps must exist."""
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
)

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_every_traced_entry_point_exists():
    targets = layers.targets(Tracer())
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if not hasattr(owner, attr)
    ]
    assert not missing, missing
