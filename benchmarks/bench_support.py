"""Shared helpers for the sweep benchmarks."""

from __future__ import annotations

import atexit
import tempfile

from repro.flow import DiskStageCache, StageCache


def make_bench_cache(executor: str):
    """A stage cache matched to the benchmark's executor.

    The thread/serial backends share one in-memory cache across rounds;
    the out-of-process backends (process/distributed) need a disk cache
    as the cross-address-space medium, so they get a temporary directory
    that lives for the whole benchmark session (removed at interpreter
    exit).
    """
    if executor not in ("process", "distributed"):
        return StageCache()
    tmp = tempfile.TemporaryDirectory(prefix="cfdlang-bench-cache-")
    atexit.register(tmp.cleanup)
    return DiskStageCache(tmp.name)
