"""Frozen stage keys: the cache key scheme, pinned byte for byte.

Disk caches, broker tenants and TCP workers of different releases share
entries only while every stage key stays the same digest.  The record in
``data/stage_keys.json`` holds the ordered (stage, key) lookups of a
small ``compile_many`` grid: ``HELMHOLTZ_DSL`` (a text source) and the
smoother program (AST sources) under two sharing modes, on ZCU106/bram
auto-sized and on U280/hbm at k = m = 2, plus one fused ``fem-cfd``
compile (the function-seeded path).  The keys are recomputed on a fresh
cache and again on the same, warm cache, whose lookups all hit.

Regenerate after an intended key change with
``PYTHONPATH=src python tests/test_stage_keys.py``.

A session derives each key once per cache: the memo of keys lives as
long as the cache its sessions share, and the tests below pin that
scope.
"""

from __future__ import annotations

import gc
import json
import pathlib
import pickle
import sys
import weakref

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.apps.workloads import make_workload
from repro.flow import (
    DiskStageCache,
    Flow,
    FlowOptions,
    FlowTrace,
    ProgramResult,
    StageCache,
    StageEvent,
    SystemOptions,
    compile_many,
)
from repro.flow import session
from repro.flow.distributed import run_job_spec
from repro.mnemosyne import SharingMode
from repro.system.board import ALVEO_U280, ZCU106
from repro.teil.program import Function

RECORD = pathlib.Path(__file__).with_name("data") / "stage_keys.json"
DEGREE = 5


class KeyLog(StageCache):
    """An in-memory stage cache that logs every key it is asked for."""

    def __init__(self) -> None:
        super().__init__()
        self.keys = []

    def fetch(self, key):
        self.keys.append(key)
        return super().fetch(key)


def grid() -> list:
    targets = (
        SystemOptions(board=ZCU106, memory_model="bram"),
        SystemOptions(k=2, m=2, board=ALVEO_U280, memory_model="hbm"),
    )
    points = [
        (program, FlowOptions(sharing=mode, system=system))
        for program in (
            HELMHOLTZ_DSL, make_workload("smoother", n=DEGREE).program
        )
        for mode in (SharingMode.MATCHING, SharingMode.CLIQUE)
        for system in targets
    ]
    points.append((
        make_workload("fem-cfd", n=DEGREE).program,
        FlowOptions(sharing=SharingMode.CLIQUE, fusion="auto"),
    ))
    return points


def stage_keys(cache: KeyLog) -> list:
    """The grid's (stage, key) lookups in order, run serially on ``cache``."""
    trace = FlowTrace()
    start = len(cache.keys)
    compile_many(grid(), cache=cache, trace=trace, executor="serial")
    keys = cache.keys[start:]
    assert len(keys) == len(trace.events)
    return [[e.stage, key] for e, key in zip(trace.events, keys)]


def test_stage_keys_match_the_record_cold_and_warm():
    want = json.loads(RECORD.read_text())
    cache = KeyLog()
    assert stage_keys(cache) == want
    assert len(cache) < len(want)  # the grid shares stages between points
    hits = cache.hits
    assert stage_keys(cache) == want
    assert cache.hits - hits == len(want)  # every warm lookup hit


def designs(results) -> list:
    out = []
    for res in results:
        for r in (res.results.values() if isinstance(res, ProgramResult)
                  else [res]):
            out.append((
                r.options.kernel_name, r.kernel.source,
                [u.members for u in r.memory.units], str(r.system),
                repr(r.sim),
            ))
    return out


def count_fingerprints(monkeypatch) -> list:
    calls = []
    original = Function.fingerprint

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(Function, "fingerprint", counted)
    return calls


class TestKeyMemo:
    def test_a_new_cache_starts_with_an_empty_memo(self, monkeypatch):
        first = KeyLog()
        stage_keys(first)
        assert len(session._KEY_MEMOS[first]) > 0
        second = StageCache()
        assert second not in session._KEY_MEMOS
        # nothing carries over from the first cache: the lowered
        # function is fingerprinted again
        calls = count_fingerprints(monkeypatch)
        Flow(HELMHOLTZ_DSL, cache=second).run()
        assert calls == ["kernel_body"]
        assert len(session._KEY_MEMOS[second]) == 15

    def test_a_warm_lookup_never_refingerprints(self, monkeypatch):
        cache = KeyLog()
        want = stage_keys(cache)
        calls = count_fingerprints(monkeypatch)
        assert stage_keys(cache) == want
        assert calls == []

    def test_the_memo_goes_with_its_cache(self):
        class Probe:
            pass

        cache = KeyLog()
        stage_keys(cache)
        probe = Probe()
        session._KEY_MEMOS[cache]["probe"] = probe
        probe_ref, cache_ref = weakref.ref(probe), weakref.ref(cache)
        del probe, cache
        gc.collect()
        assert cache_ref() is None and probe_ref() is None

    def test_an_override_leaves_no_memo_entry(self):
        cache = StageCache()
        Flow(HELMHOLTZ_DSL, cache=cache).run()
        memo = dict(session._KEY_MEMOS[cache])
        flow = Flow(HELMHOLTZ_DSL, cache=cache).run_until("layouts")
        layouts = dict(flow["layouts"])
        flow.override(layouts=layouts).run()
        assert session._KEY_MEMOS[cache] == memo

    def test_a_backend_without_weak_references_still_compiles(self):
        class Slotted:  # a CacheBackend need not support weak references
            __slots__ = ("inner",)

            def __init__(self):
                self.inner = StageCache()

            def fetch(self, key):
                return self.inner.fetch(key)

            def peek(self, key):
                return self.inner.peek(key)

            def put(self, key, outputs):
                self.inner.put(key, outputs)

        cache = Slotted()
        want = Flow(HELMHOLTZ_DSL).run()
        for _ in range(2):  # cold, then every stage a hit
            got = Flow(HELMHOLTZ_DSL, cache=cache).run()
            assert str(got.system) == str(want.system)
        assert cache.inner.hits == 15

    def test_threads_match_the_serial_designs_and_keys(self):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the sessions finely
        try:
            serial_cache, thread_cache = KeyLog(), KeyLog()
            serial = compile_many(grid(), cache=serial_cache,
                                  executor="serial")
            threaded = compile_many(grid(), cache=thread_cache, jobs=4,
                                    executor="thread")
        finally:
            sys.setswitchinterval(switch)
        assert designs(threaded) == designs(serial)
        assert set(thread_cache.keys) == set(serial_cache.keys)
        assert len(thread_cache) == len(serial_cache)


class TestStageEvent:
    def test_round_trips_through_pickle(self):
        event = StageEvent("lower", 0.25, True, "disk@host-pid7")
        back = pickle.loads(pickle.dumps(event))
        assert back == event and type(back) is StageEvent
        assert (back.stage, back.seconds, back.cached, back.origin) == (
            "lower", 0.25, True, "disk@host-pid7"
        )
        assert StageEvent("parse", 0.0, False).origin == ""

    def test_worker_tagged_events_keep_their_fields(self, tmp_path):
        cache = DiskStageCache(tmp_path / "cache")
        spec = (HELMHOLTZ_DSL, FlowOptions().to_spec())
        trace = FlowTrace()
        for _ in range(2):  # cold, then every stage a memory hit
            _, events, _ = run_job_spec(spec, cache, None, "w1")
            for stage, seconds, cached, origin in pickle.loads(
                pickle.dumps(events)
            ):
                trace.record(stage, seconds, cached, origin)
        cold, warm = trace.events[:15], trace.events[15:]
        assert all(type(e) is StageEvent for e in trace.events)
        assert [e.stage for e in cold] == [e.stage for e in warm]
        assert [(e.cached, e.origin) for e in cold] == [(False, "@w1")] * 15
        assert [(e.cached, e.origin) for e in warm] == [
            (True, "memory@w1")
        ] * 15
        assert trace.cached_counts_by_origin("memory") == {
            e.stage: 1 for e in warm
        }


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(pair) for pair in stage_keys(KeyLog()))
    RECORD.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {RECORD}", file=sys.stderr)
