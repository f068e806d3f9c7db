"""Deterministic, splittable random number streams.

Every stochastic operation in the package draws from a counter-based
Philox generator keyed by ``(seed, *stream)``. Substreams derived from
the same seed but different stream paths are statistically independent,
so parallel Monte Carlo loops never share a stream.
"""
from __future__ import annotations

import numbers

import numpy as np

# Stream-path tags, one per subsystem, so that independent operations
# seeded with the same user seed never collide.
SIMULATE = 1
BPF = 2
KLD_OUTER = 3
KLD_INNER = 4
MH = 5
AUDIT = 6
EXPERIMENT = 7


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a bool: the one integer check of every size, count and seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_index(value) -> bool:
    return _is_int(value) and value >= 0


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a Generator for the substream identified by ``(seed, *path)``.

    Identical arguments always produce an identical stream; distinct
    paths are independent. ``seed`` and every path entry must be
    non-negative integers: a float is rejected, not truncated.
    """
    if not _is_index(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not all(_is_index(p) for p in path):
        raise ValueError(f"stream path {path!r} must hold non-negative integers")
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))
