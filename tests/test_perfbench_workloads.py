"""The benchmark's workloads run on the library as it stands.

``perfbench/workloads.py`` calls pommkit's public API only. Each workload
here runs its set-up and one task at its tiny size, untraced, and its
per-task check must pass, so that a public signature or behaviour the
benchmark relies on fails this suite rather than a benchmark run. The
benchmark's files are imported as they are, not copied or edited.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from spans import NULL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_one_passing_task(name, tmp_path):
    wl = WORKLOADS[name](tiny=True)
    ctx = wl.setup(3, NULL, tmp_path)
    prep = wl.prepare(ctx, 1, NULL)
    out = wl.task(ctx, prep, NULL)
    assert wl.check(ctx, prep, out) == []
