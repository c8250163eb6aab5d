"""Artifact store backends: disk persistence, concurrency, single-flight,
gc lifecycle, and corrupt-entry recovery under concurrent writers."""

import multiprocessing
import os
import pickle
import threading
import time

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL, inverse_helmholtz_program
from repro.flow import (
    DiskStageCache,
    Flow,
    FlowOptions,
    FlowTrace,
    SingleFlight,
    StageCache,
    SystemOptions,
    compile_many,
)
from repro.flow.stages import FRONT_END_STAGES
from repro.mnemosyne import SharingMode

ALL_MODES = (SharingMode.NONE, SharingMode.MATCHING, SharingMode.CLIQUE)


class TestCacheBackendProtocol:
    def test_implementations_satisfy_protocol(self, tmp_path):
        from repro.flow import CacheBackend

        assert isinstance(StageCache(), CacheBackend)
        assert isinstance(DiskStageCache(tmp_path), CacheBackend)

    def test_stage_cache_fetch_origin(self):
        cache = StageCache()
        cache.put("k", {"x": 1})
        assert cache.fetch("k") == ({"x": 1}, "memory")
        assert cache.fetch("missing") is None
        assert cache.stats()["disk_hits"] == 0


class TestDiskStageCache:
    def test_round_trip_across_fresh_sessions(self, tmp_path):
        """Two independent cache instances over one directory behave like
        two processes: the second session executes nothing."""
        first = FlowTrace()
        r1 = Flow(HELMHOLTZ_DSL, cache=DiskStageCache(tmp_path), trace=first).run()
        assert first.executed_counts()  # everything ran

        second = FlowTrace()
        r2 = Flow(HELMHOLTZ_DSL, cache=DiskStageCache(tmp_path), trace=second).run()
        assert second.executed_counts() == {}
        disk = second.cached_counts_by_origin("disk")
        for name in FRONT_END_STAGES:
            assert disk[name] == 1, name
        assert r2.kernel.source == r1.kernel.source
        assert r2.memory.brams == r1.memory.brams
        assert (r2.system.k, r2.system.m) == (r1.system.k, r1.system.m)
        assert r2.sim.total_cycles == r1.sim.total_cycles

    def test_km_sweep_fresh_process_runs_zero_front_end_stages(self, tmp_path):
        """Acceptance: repeat a k x m sweep with a fresh DiskStageCache —
        no front-end stage executes."""
        grid = [(1, 1), (2, 2), (4, 8), (16, 16)]
        jobs = [
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=m)))
            for k, m in grid
        ]
        t1 = FlowTrace()
        compile_many(jobs, cache=DiskStageCache(tmp_path), trace=t1)
        assert t1.executed_counts()["build-system"] == len(grid)

        t2 = FlowTrace()
        results = compile_many(jobs, cache=DiskStageCache(tmp_path), trace=t2)
        executed = t2.executed_counts()
        for name in FRONT_END_STAGES:
            assert executed.get(name, 0) == 0, name
        assert [(r.system.k, r.system.m) for r in results] == grid

    def test_memory_layer_fronts_disk(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("deadbeef", {"x": 1})
        assert cache.fetch("deadbeef")[1] == "memory"
        fresh = DiskStageCache(tmp_path)
        assert fresh.fetch("deadbeef") == ({"x": 1}, "disk")
        # now cached in the new instance's memory layer too
        assert fresh.fetch("deadbeef")[1] == "memory"
        assert fresh.stats()["disk_hits"] == 1
        assert fresh.stats()["memory_hits"] == 1

    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("cafe01", {"x": 1})
        (path,) = tmp_path.glob("ca/*.pkl")
        path.write_bytes(b"not a pickle at all")
        fresh = DiskStageCache(tmp_path)
        assert fresh.fetch("cafe01") is None
        assert fresh.misses == 1
        assert not path.exists()  # stale file dropped for rewrite

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("cafe02", {"x": list(range(1000))})
        (path,) = tmp_path.glob("ca/*.pkl")
        path.write_bytes(path.read_bytes()[:20])
        assert DiskStageCache(tmp_path).fetch("cafe02") is None

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        path = tmp_path / "ab" / "abcd.pkl"
        path.parent.mkdir()
        path.write_bytes(pickle.dumps([1, 2, 3]))
        assert cache.fetch("abcd") is None

    def test_corrupted_cache_flow_recovers(self, tmp_path):
        Flow(HELMHOLTZ_DSL, cache=DiskStageCache(tmp_path)).run()
        for path in tmp_path.glob("??/*.pkl"):
            path.write_bytes(b"\x80garbage")
        trace = FlowTrace()
        res = Flow(HELMHOLTZ_DSL, cache=DiskStageCache(tmp_path), trace=trace).run()
        assert res.memory.brams == 18
        assert trace.cached_counts() == {}  # everything recomputed

    def test_unpicklable_artifact_stays_in_memory(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("feed01", {"fn": lambda: None})
        assert cache.fetch("feed01")[1] == "memory"
        assert cache.put_errors == 1
        assert DiskStageCache(tmp_path).fetch("feed01") is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        for i in range(8):
            cache.put(f"{i:02d}aa", {"i": i})
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_gc_evicts_oldest_first(self, tmp_path):
        import os
        import time

        cache = DiskStageCache(tmp_path)
        for i in range(4):
            key = f"{i:02d}bb"
            cache.put(key, {"payload": "x" * 1000})
            past = time.time() - (100 - i)  # strictly increasing mtimes
            os.utime(cache._path(key), (past, past))
        size = cache.disk_bytes()
        removed = cache.gc(size // 2)
        assert removed == 2
        # the two oldest are gone from disk, the newest survive
        fresh = DiskStageCache(tmp_path)
        assert fresh.fetch("00bb") is None
        assert fresh.fetch("03bb") is not None

    def test_max_bytes_bounds_the_store(self, tmp_path):
        cache = DiskStageCache(tmp_path, max_bytes=2_000)
        for i in range(10):
            cache.put(f"{i:02d}cc", {"payload": "y" * 500})
        assert cache.disk_bytes() <= 2_000

    def test_clear(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("aa11", {"x": 1})
        cache.clear()
        assert cache.fetch("aa11") is None
        assert cache.stats()["disk_entries"] == 0

    def test_gc_max_age_expires_untouched_entries(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        for i in range(4):
            cache.put(f"{i:02d}dd", {"i": i})
        for i in (0, 1):  # two entries last touched an hour ago
            past = time.time() - 3600
            os.utime(cache._path(f"{i:02d}dd"), (past, past))
        removed = cache.gc(max_age_seconds=600)
        assert removed == 2
        fresh = DiskStageCache(tmp_path)
        assert fresh.fetch("00dd") is None
        assert fresh.fetch("03dd") is not None

    def test_gc_age_and_size_compose(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        for i in range(6):
            key = f"{i:02d}ee"
            cache.put(key, {"payload": "z" * 1000})
            past = time.time() - (100 - i)
            os.utime(cache._path(key), (past, past))
        size = cache.disk_bytes()
        # age drops nothing (all fresh enough), size then halves the store
        removed = cache.gc(size // 2, max_age_seconds=3600)
        assert removed == 3

    def test_gc_defaults_to_constructed_policy(self, tmp_path):
        cache = DiskStageCache(tmp_path, max_age_seconds=600)
        cache.put("aaff", {"x": 1})
        past = time.time() - 3600
        os.utime(cache._path("aaff"), (past, past))
        assert cache.gc() == 1  # no args: the constructed policy applies
        assert DiskStageCache(tmp_path).gc() == 0  # no policy: no-op

    def test_apply_gc_policy(self, tmp_path):
        unbounded = DiskStageCache(tmp_path)
        unbounded.put("aa01", {"x": 1})
        assert unbounded.apply_gc_policy() == 0
        bounded = DiskStageCache(tmp_path, max_bytes=0)
        assert bounded.apply_gc_policy() >= 0
        assert bounded.disk_bytes() == 0

    def test_verify_reports_and_fixes_corrupt_entries(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("aa21", {"x": 1})
        cache.put("bb21", {"y": 2})
        (tmp_path / "cc").mkdir()
        (tmp_path / "cc" / "cc21.pkl").write_bytes(b"garbage")
        report = DiskStageCache(tmp_path).verify()
        assert report["checked"] == 3
        assert report["corrupt"] == ["cc21"]
        assert report["removed"] == 0
        assert (tmp_path / "cc" / "cc21.pkl").exists()  # detection only
        report = DiskStageCache(tmp_path).verify(fix=True)
        assert report["removed"] == 1
        assert not (tmp_path / "cc" / "cc21.pkl").exists()
        assert DiskStageCache(tmp_path).verify() == {
            "checked": 2, "corrupt": [], "removed": 0,
            "stale_locks": [], "locks_removed": 0,
        }

    def test_merge_stats(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("aa31", {"x": 1})
        cache.fetch("aa31")
        cache.merge_stats({"hits": 3, "memory_hits": 1, "disk_hits": 2,
                           "misses": 5, "put_errors": 1})
        s = cache.stats()
        assert s["hits"] == 4 and s["memory_hits"] == 2
        assert s["disk_hits"] == 2 and s["misses"] == 5
        assert s["put_errors"] == 1


class TestEntryTransfer:
    """Serialized entry export/import: how cache entries cross a network
    boundary for workers without the shared mount."""

    def test_export_import_roundtrip(self, tmp_path):
        src = DiskStageCache(tmp_path / "a")
        dst = DiskStageCache(tmp_path / "b")
        src.put("key1", {"artifact": [1, 2, 3]})
        data = src.export_entry("key1")
        assert isinstance(data, bytes)
        assert dst.import_entry("key1", data) == {"artifact": [1, 2, 3]}
        # durable on the destination: a fresh instance disk-hits it
        fresh = DiskStageCache(tmp_path / "b")
        entry, origin = fresh.fetch("key1")
        assert entry == {"artifact": [1, 2, 3]} and origin == "disk"

    def test_export_of_absent_key_is_none(self, tmp_path):
        assert DiskStageCache(tmp_path).export_entry("missing") is None

    def test_export_of_memory_only_entry(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("key1", {"v": 1})
        cache._path("key1").unlink()  # disk copy gone: memory serves it
        data = cache.export_entry("key1")
        assert data is not None
        other = DiskStageCache(tmp_path / "other")
        assert other.import_entry("key1", data) == {"v": 1}

    def test_import_of_garbage_is_rejected(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        assert cache.import_entry("key1", b"not a pickle") is None
        assert cache.import_entry("key2", pickle.dumps([1, 2])) is None
        assert cache.fetch("key1") is None  # nothing was poisoned
        assert cache.stats()["disk_entries"] == 0

    def test_transfer_does_not_touch_counters(self, tmp_path):
        src = DiskStageCache(tmp_path / "a")
        dst = DiskStageCache(tmp_path / "b")
        src.put("key1", {"v": 1})
        before_src, before_dst = src.counters(), dst.counters()
        dst.import_entry("key1", src.export_entry("key1"))
        assert src.counters() == before_src
        assert dst.counters() == before_dst

    def test_import_respects_byte_budget(self, tmp_path):
        """A broker cache fed entirely over the wire (every entry lands
        via import_entry, never put) must still gc to max_bytes."""
        src = DiskStageCache(tmp_path / "a")
        for i in range(8):
            src.put(f"key{i:02d}", {"blob": b"x" * 4096})
        dst = DiskStageCache(tmp_path / "b", max_bytes=10_000)
        for i in range(8):
            dst.import_entry(f"key{i:02d}", src.export_entry(f"key{i:02d}"))
        assert dst.disk_bytes() <= 10_000


class TestLockFileLifecycle:
    """Stale single-flight locks used to survive clear/gc/verify, making
    the next sweep's first touch of that key stall for the whole stale
    window."""

    @staticmethod
    def _abandoned_lock(cache, key="deadbeef", age=3600.0):
        from repro.flow import FileSingleFlight

        flight = FileSingleFlight(cache.lock_dir)
        assert flight.begin(key)  # leader "crashes" without finish()
        path = cache.lock_dir / f"{key}.lock"
        stale = time.time() - age
        os.utime(path, (stale, stale))
        return path

    def test_clear_removes_lock_files(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.put("aa41", {"x": 1})
        path = self._abandoned_lock(cache, age=0.0)  # even a fresh lock
        cache.clear()
        assert not path.exists()

    def test_gc_sweeps_stale_locks_only(self, tmp_path):
        from repro.flow import FileSingleFlight

        cache = DiskStageCache(tmp_path)
        stale_path = self._abandoned_lock(cache, key="stalekey")
        flight = FileSingleFlight(cache.lock_dir)
        assert flight.begin("livekey")  # a live leader mid-stage
        cache.gc(max_age_seconds=7 * 86400)
        assert not stale_path.exists()
        assert (cache.lock_dir / "livekey.lock").exists()
        flight.finish("livekey")

    def test_sweep_stale_locks_counts(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        self._abandoned_lock(cache, key="k1")
        self._abandoned_lock(cache, key="k2")
        assert cache.sweep_stale_locks() == 2
        assert cache.sweep_stale_locks() == 0

    def test_verify_reports_stale_locks(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        path = self._abandoned_lock(cache)
        report = DiskStageCache(tmp_path).verify()
        assert report["stale_locks"] == ["deadbeef.lock"]
        assert path.exists()  # detection only
        report = DiskStageCache(tmp_path).verify(fix=True)
        assert report["locks_removed"] == 1
        assert not path.exists()

    def test_next_sweep_does_not_stall_after_clear(self, tmp_path):
        """The user-visible symptom: an abandoned leader lock makes the
        first flow after it wait out the stale window unless lifecycle
        commands clean it."""
        from repro.flow import FileSingleFlight

        cache = DiskStageCache(tmp_path)
        self._abandoned_lock(cache, age=0.0)  # looks fresh = worst case
        cache.clear()
        flight = FileSingleFlight(cache.lock_dir, stale_seconds=30.0)
        t0 = time.monotonic()
        flight.wait("deadbeef", timeout=60.0)
        assert time.monotonic() - t0 < 5.0  # no stall: lock is gone
        assert flight.begin("deadbeef")
        flight.finish("deadbeef")

    def test_cache_cli_verify_reports_stale_locks(self, tmp_path, capsys):
        from repro.flow.cli import main

        cache = DiskStageCache(tmp_path)
        cache.put("aa51", {"x": 1})
        self._abandoned_lock(cache)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 stale locks" in out and "deadbeef.lock" in out
        assert main(["cache", "verify", "--cache-dir", str(tmp_path),
                     "--fix"]) == 0
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

    def test_cache_cli_gc_reports_stale_locks(self, tmp_path, capsys):
        from repro.flow.cli import main

        cache = DiskStageCache(tmp_path)
        self._abandoned_lock(cache)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-age", "7d"]) == 0
        assert "1 stale locks" in capsys.readouterr().out
        assert not list(cache.lock_dir.glob("*.lock"))


class TestParallelCompileMany:
    def test_parallel_matches_sequential(self):
        """Acceptance: compile_many(jobs=4) equals the sequential run."""
        grid = [
            (HELMHOLTZ_DSL, FlowOptions(sharing=mode, system=SystemOptions(k=k, m=k)))
            for mode in ALL_MODES
            for k in (1, 2, 4, 8)
        ]
        seq = compile_many(grid, cache=StageCache())
        par = compile_many(grid, jobs=4, cache=StageCache())
        assert [r.memory.brams for r in seq] == [r.memory.brams for r in par]
        assert [r.kernel.source for r in seq] == [r.kernel.source for r in par]
        assert [r.hls.summary() for r in seq] == [r.hls.summary() for r in par]
        assert [(r.system.k, r.system.m) for r in seq] == [
            (r.system.k, r.system.m) for r in par
        ]
        assert [r.sim.total_cycles for r in seq] == [r.sim.total_cycles for r in par]

    def test_single_flight_runs_front_end_once(self):
        trace = FlowTrace()
        compile_many(
            [(HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=k)))
             for k in (1, 2, 4, 8, 16)],
            jobs=8,
            trace=trace,
        )
        counts = trace.executed_counts()
        for name in FRONT_END_STAGES:
            assert counts[name] == 1, name

    def test_identical_jobs_compute_each_stage_once(self):
        trace = FlowTrace()
        results = compile_many([HELMHOLTZ_DSL] * 8, jobs=8, trace=trace)
        assert all(r.memory.brams == 18 for r in results)
        assert all(n == 1 for n in trace.executed_counts().values())

    def test_parallel_per_job_error_capture(self):
        from repro.errors import SystemGenerationError

        jobs = [
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=k)))
            for k in (1, 2)
        ] + [
            (HELMHOLTZ_DSL, FlowOptions(sharing=SharingMode.NONE,
                                        system=SystemOptions(k=16, m=16))),
        ]
        results = compile_many(jobs, jobs=4, return_exceptions=True)
        assert results[0].system.k == 1 and results[1].system.k == 2
        assert isinstance(results[2], SystemGenerationError)
        with pytest.raises(SystemGenerationError):
            compile_many(jobs, jobs=4)

    def test_parallel_against_disk_cache(self, tmp_path):
        grid = [
            (inverse_helmholtz_program(n), FlowOptions())
            for n in (5, 7, 9)
        ]
        r1 = compile_many(grid, jobs=4, cache=DiskStageCache(tmp_path))
        t2 = FlowTrace()
        r2 = compile_many(grid, jobs=4, cache=DiskStageCache(tmp_path), trace=t2)
        assert t2.executed_counts() == {}
        assert [r.memory.brams for r in r1] == [r.memory.brams for r in r2]


class TestSingleFlight:
    def test_leader_recheck_does_not_inflate_stats(self):
        """The post-begin race-closing re-check must not count as a second
        miss per executed stage."""
        from repro.flow import stage_names

        cache = StageCache()
        Flow(HELMHOLTZ_DSL, cache=cache, flight=SingleFlight()).run()
        assert cache.misses == len(stage_names())
        assert cache.hits == 0

    def test_one_leader_per_key(self):
        flight = SingleFlight()
        assert flight.begin("k")
        assert not flight.begin("k")
        flight.finish("k")
        assert flight.begin("k")
        flight.finish("k")

    def test_wait_wakes_on_finish(self):
        flight = SingleFlight()
        flight.begin("k")
        woke = threading.Event()

        def waiter():
            flight.wait("k")
            woke.set()

        t = threading.Thread(target=waiter)
        t.start()
        flight.finish("k")
        t.join(timeout=5)
        assert woke.is_set()

    def test_wait_on_unknown_key_returns(self):
        SingleFlight().wait("never-started", timeout=0.1)


class TestTraceOrigins:
    def test_summary_reports_hit_rate_and_origins(self, tmp_path):
        trace = FlowTrace()
        Flow(HELMHOLTZ_DSL, cache=DiskStageCache(tmp_path), trace=trace).run()
        Flow(HELMHOLTZ_DSL, cache=DiskStageCache(tmp_path), trace=trace).run()
        text = trace.summary()
        assert "mem hits" in text and "disk hits" in text
        assert "cache hit rate: 50.0%" in text
        disk = trace.cached_counts_by_origin("disk")
        assert sum(disk.values()) == len(trace.events) // 2
        assert trace.cached_counts_by_origin("memory") == {}
        assert trace.hit_rate() == pytest.approx(0.5)

    def test_memory_origin_within_one_process(self):
        trace = FlowTrace()
        cache = StageCache()
        Flow(HELMHOLTZ_DSL, cache=cache, trace=trace).run()
        Flow(HELMHOLTZ_DSL, cache=cache, trace=trace).run()
        mem = trace.cached_counts_by_origin("memory")
        assert sum(mem.values()) == len(trace.events) // 2
        assert trace.cached_counts_by_origin("disk") == {}


class TestCliIntegration:
    def test_cache_dir_reports_disk_hits_on_second_run(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        from repro.flow import stage_names

        args = ["--app", "helmholtz", "-n", "6", "-o", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache"), "--trace"]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "cache: 0 hits" in first
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        n = len(stage_names())  # robust to stages being added or split
        assert f"cache: {n} hits (0 memory, {n} disk), 0 misses" in second

    def test_unknown_board_lists_known_ones(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--app", "helmholtz", "--board", "zcu999"]) == 2
        err = capsys.readouterr().err
        assert "unknown board" in err and "ZCU106" in err and "Alveo U280" in err

    def test_board_flag_resolves_aliases(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        rc = cli_main(["--app", "helmholtz", "-n", "6", "--board", "ALVEO_U280",
                       "-o", str(tmp_path)])
        assert rc == 0
        assert "Alveo U280" in capsys.readouterr().out

    def test_list_boards(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--list-boards"]) == 0
        out = capsys.readouterr().out
        assert "ZCU106" in out and "Alveo U280" in out

    def test_sweep_flag(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        rc = cli_main(["--app", "helmholtz", "--sweep", "1x1,2x2,4x4",
                       "--jobs", "2", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "k x m sweep" in out and "cache hit rate" in out

    def test_sweep_bad_spec(self, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["--app", "helmholtz", "--sweep", "1x1,banana"]) == 2
        assert "bad sweep point" in capsys.readouterr().err


_SPAWN = multiprocessing.get_context("spawn")


def _stress_writer(args):
    """Hammer one shared cache dir with puts/fetches (+ per-put gc churn)."""
    cache_dir, seed, n = args
    cache = DiskStageCache(cache_dir, max_bytes=20_000)
    for i in range(n):
        key = f"{i % 8:02d}w{seed}x{i}"
        cache.put(key, {"writer": seed, "i": i, "payload": "x" * 400})
        cache.fetch(key)
        # cross-writer reads race against the other writers' gc evictions
        cache.fetch(f"{i % 8:02d}w{(seed + 1) % 4}x{i}")
    return cache.put_errors


def _stress_corruptor(args):
    """Interleave valid writes with garbage files in the entry fan-out."""
    cache_dir, n = args
    cache = DiskStageCache(cache_dir)
    for i in range(n):
        cache.put(f"{i % 4:02d}good{i}", {"i": i})
        bad = cache._path(f"{i % 4:02d}bad{i}")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"\x80truncated-garbage")
    return n


def _stress_reader(args):
    """Fetch concurrently with writers/corruptors; must never raise."""
    cache_dir, n = args
    cache = DiskStageCache(cache_dir)
    ok = 0
    for i in range(n):
        for key in (f"{i % 4:02d}good{i}", f"{i % 4:02d}bad{i}"):
            hit = cache.fetch(key)
            if hit is not None:
                assert isinstance(hit[0], dict)
                ok += 1
    return ok


class TestConcurrentWriterStress:
    """Satellite: DiskStageCache gc/eviction and corrupt-entry recovery
    must survive concurrent writer *processes* (the workload of a
    sweep's workers sharing one cache directory)."""

    def test_concurrent_writers_with_gc_churn(self, tmp_path):
        with _SPAWN.Pool(4) as pool:
            put_errors = pool.map(
                _stress_writer, [(str(tmp_path), seed, 40) for seed in range(4)]
            )
        assert put_errors == [0, 0, 0, 0]
        # every surviving entry is readable: atomic writes mean gc races
        # can lose entries (recomputed later) but never corrupt them
        report = DiskStageCache(tmp_path).verify()
        assert report["corrupt"] == []
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_concurrent_corruption_recovery(self, tmp_path):
        jobs = [("corrupt", (str(tmp_path), 25)) for _ in range(2)] + [
            ("read", (str(tmp_path), 25)) for _ in range(2)
        ]
        with _SPAWN.Pool(4) as pool:
            pending = [
                pool.apply_async(
                    _stress_corruptor if kind == "corrupt" else _stress_reader,
                    (args,),
                )
                for kind, args in jobs
            ]
            results = [r.get(timeout=120) for r in pending]  # raises on any crash
        assert all(r >= 0 for r in results)
        # post-hoc lifecycle repair: verify --fix leaves a clean store
        cache = DiskStageCache(tmp_path)
        report = cache.verify(fix=True)
        assert report["removed"] == len(report["corrupt"])
        assert DiskStageCache(tmp_path).verify()["corrupt"] == []

    def test_fetch_races_with_gc_eviction(self, tmp_path):
        """Eviction between the memory-layer miss and the disk read is a
        miss, not an error (FileNotFoundError path)."""
        cache = DiskStageCache(tmp_path)
        cache.put("aa61", {"x": 1})
        other = DiskStageCache(tmp_path)
        other.gc(0)  # evict everything behind the first instance's back
        fresh = DiskStageCache(tmp_path)
        assert fresh.fetch("aa61") is None
        assert cache.fetch("aa61")[1] == "memory"  # its working set survives


class TestCacheCli:
    def _seed(self, tmp_path, n=3):
        cache = DiskStageCache(tmp_path)
        for i in range(n):
            cache.put(f"{i:02d}cli", {"payload": "x" * 200})
        return cache

    def test_stats(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        self._seed(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 3" in out

    def test_gc_max_bytes_and_age(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        cache = self._seed(tmp_path)
        past = time.time() - 3600
        os.utime(cache._path("00cli"), (past, past))
        rc = cli_main(["cache", "gc", "--cache-dir", str(tmp_path),
                       "--max-age", "10m"])
        assert rc == 0
        assert "removed 1 entries" in capsys.readouterr().out
        rc = cli_main(["cache", "gc", "--cache-dir", str(tmp_path),
                       "--max-bytes", "0"])
        assert rc == 0
        assert DiskStageCache(tmp_path).stats()["disk_entries"] == 0

    def test_gc_requires_a_bound(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        assert cli_main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
        assert "needs --max-bytes" in capsys.readouterr().err

    def test_clear(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        self._seed(tmp_path)
        assert cli_main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert DiskStageCache(tmp_path).stats()["disk_entries"] == 0

    def test_verify_detects_then_fixes(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        self._seed(tmp_path)
        (tmp_path / "ff").mkdir()
        (tmp_path / "ff" / "ffbad.pkl").write_bytes(b"junk")
        assert cli_main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "corrupt: ffbad" in out
        rc = cli_main(["cache", "verify", "--cache-dir", str(tmp_path),
                       "--fix"])
        assert rc == 0
        assert "1 removed" in capsys.readouterr().out
        assert cli_main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

    def test_missing_cache_dir_is_an_error(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        rc = cli_main(["cache", "stats", "--cache-dir", str(tmp_path / "no")])
        assert rc == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_size_and_age_suffix_parsing(self):
        from repro.flow.cli import _parse_age, _parse_size

        assert _parse_size("1024") == 1024
        assert _parse_size("4K") == 4096
        assert _parse_size("2M") == 2 << 20
        assert _parse_size("1G") == 1 << 30
        assert _parse_age("90") == 90.0
        assert _parse_age("15m") == 900.0
        assert _parse_age("12h") == 43200.0
        assert _parse_age("7d") == 604800.0
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size("banana")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_age("fortnight")


class TestExpectFrontEndCached:
    def test_cold_run_fails_warm_run_passes(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        args = ["--app", "helmholtz", "-n", "6", "-o", str(tmp_path / "o"),
                "--cache-dir", str(tmp_path / "c"),
                "--expect-front-end-cached"]
        assert cli_main(args) == 1  # cold cache: the front end had to run
        assert "front-end stages ran" in capsys.readouterr().err
        assert cli_main(args) == 0  # warm cache: everything served from disk
        capsys.readouterr()

    def test_sweep_mode(self, tmp_path, capsys):
        from repro.flow.cli import main as cli_main

        args = ["--app", "helmholtz", "--sweep", "1x1,2x2", "--jobs", "2",
                "-o", str(tmp_path / "o"),
                "--cache-dir", str(tmp_path / "c"),
                "--expect-front-end-cached"]
        assert cli_main(args) == 1
        capsys.readouterr()
        # second sweep: front end fully cached, system stages recompute
        assert cli_main(args) == 0
        capsys.readouterr()

    def test_process_sweep_without_cache_dir_rejected(self, capsys):
        """A throwaway cache starts cold, so the check can never pass —
        reject the combination instead of failing confusingly."""
        from repro.flow.cli import main as cli_main

        rc = cli_main(["--app", "helmholtz", "--sweep", "1x1",
                       "--executor", "process", "--expect-front-end-cached"])
        assert rc == 2
        assert "needs --cache-dir" in capsys.readouterr().err


class TestBoardRegistry:
    def test_boards_and_lookup(self):
        from repro.system import ALVEO_U280, ZCU106, boards, get_board

        assert boards() == {"ZCU106": ZCU106, "Alveo U280": ALVEO_U280}
        assert get_board("zcu106") is ZCU106
        assert get_board("Alveo U280") is ALVEO_U280
        assert get_board("alveo-u280") is ALVEO_U280
        assert get_board("u280") is ALVEO_U280
        assert get_board("xczu7ev-ffvc1156-2") is ZCU106

    def test_unknown_board_error(self):
        from repro.errors import SystemGenerationError
        from repro.system import get_board

        with pytest.raises(SystemGenerationError, match="known boards are"):
            get_board("virtex-2")
