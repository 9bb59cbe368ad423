"""Trace compiler (`repro.workloads.compile`) and content-addressed
trace cache (`repro.workloads.trace_cache`).

The properties pinned here:

* the packed-trace pipeline reproduces, across all 7 registered
  schemes, the golden cells the scheme-registry refactor froze;
* a cached entry is verified before it is trusted: truncation, a
  flipped byte, a torn sidecar or a missing payload all invalidate the
  entry and rebuild from source — never a wrong trace;
* a ``GENERATOR_VERSION`` bump changes every cache key, so stale
  entries can only be orphaned, not returned;
* an entry carries its workload's VMA layout under its own checksum,
  so a warm sweep builds no workload and still matches the golden
  cells; a bit-flipped layout invalidates the entry;
* the cache knobs never leak into the journal's config fingerprint
  (a sweep journaled with the cache on resumes with it off).
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.sim import SimConfig, Simulator
from repro.sim.journal import config_fingerprint
from repro.workloads.compile import (
    TRACE_DTYPE,
    CompiledTrace,
    compiled_trace_for,
    pack_trace,
    spec_digest,
    trace_spec,
)
from repro.workloads.registry import build_workload
from repro.workloads.trace_cache import TraceCache, cache_for_config

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheme_cells.json"
REFS = 500
TRACE_SEED = 1


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def gups():
    return build_workload("gups")


def _spec(num_refs=REFS, trace_seed=TRACE_SEED):
    return trace_spec("gups", 64, 0, num_refs, trace_seed)


def _packed(gups, num_refs=REFS, trace_seed=TRACE_SEED):
    return pack_trace(gups.trace(num_refs, trace_seed))


# -- bit-identity through the packed pipeline ---------------------------

class TestPackedBitIdentity:
    def test_packed_matches_golden_all_schemes(self, golden, gups):
        """Every registered scheme, both page modes: a run over the
        packed trace reproduces the golden cells exactly."""
        assert golden["workload"] == "gups"
        for rec in golden["results"]:
            packed = Simulator(
                rec["scheme"], gups,
                SimConfig(num_refs=golden["refs"], thp=rec["thp"]),
            ).run()
            assert asdict(packed) == rec, ("packed", rec["scheme"], rec["thp"])

    def test_column_views_match_raw_trace(self, gups):
        raw = gups.trace(REFS, TRACE_SEED)
        compiled = CompiledTrace(_packed(gups), _spec())
        assert compiled.vas == raw.tolist()
        assert len(compiled) == len(raw)


class TestPackTrace:
    def test_layout(self, gups):
        raw = gups.trace(REFS, TRACE_SEED)
        packed = _packed(gups)
        assert packed.dtype == TRACE_DTYPE == np.dtype("<i8")
        assert (packed == raw).all()
        assert not packed.flags.writeable

    def test_spec_digest_is_input_sensitive(self):
        base = spec_digest(_spec())
        assert spec_digest(_spec(num_refs=REFS + 1)) != base
        assert spec_digest(_spec(trace_seed=2)) != base
        assert spec_digest(trace_spec("gups", 32, 0, REFS, TRACE_SEED)) != base
        assert spec_digest(_spec()) == base  # deterministic


# -- the cache: hits, corruption, invalidation --------------------------

class TestCacheRoundTrip:
    def test_store_then_memmap_hit(self, tmp_path, gups):
        cache = TraceCache(tmp_path)
        stored = cache.load_or_build(_spec(), lambda: _packed(gups))
        assert stored.source == "built"
        assert cache.builds == 1 and cache.hits == 0

        fresh = TraceCache(tmp_path)
        hit = fresh.get(_spec())
        assert hit is not None and hit.source == "cache"
        assert fresh.hits == 1 and fresh.invalidated == 0
        assert isinstance(hit.packed, np.memmap)
        assert not hit.packed.flags.writeable
        assert hit.vas == stored.vas
        assert (np.asarray(hit.packed) == stored.packed).all()

    def test_compiled_trace_for_memoizes_per_workload(self, tmp_path):
        cache = TraceCache(tmp_path)
        w = build_workload("gups")
        first = compiled_trace_for(w, REFS, TRACE_SEED, cache)
        again = compiled_trace_for(w, REFS, TRACE_SEED, cache)
        assert first is again  # the 8 cells of a sweep share one trace
        assert cache.builds == 1 and cache.hits == 0

    def test_hand_built_workload_skips_disk(self, tmp_path, gups):
        """A workload without build identity (scale/seed None) still
        compiles, but must not key into the shared cache."""
        from repro.workloads.registry import BuiltWorkload

        anon = BuiltWorkload(gups.info, gups.space, gups.trace_fn)
        cache = TraceCache(tmp_path)
        compiled = compiled_trace_for(anon, REFS, TRACE_SEED, cache)
        assert compiled.vas == gups.trace(REFS, TRACE_SEED).tolist()
        assert cache.builds == 0 and not list(tmp_path.iterdir())


class TestCacheCorruption:
    """A damaged entry is rebuilt, never trusted."""

    def _seed_entry(self, tmp_path, gups):
        cache = TraceCache(tmp_path)
        cache.load_or_build(_spec(), lambda: _packed(gups))
        digest = spec_digest(_spec())
        return tmp_path / f"{digest}.npy", tmp_path / f"{digest}.json"

    def _assert_rebuilt(self, tmp_path, gups):
        cache = TraceCache(tmp_path)
        assert cache.get(_spec()) is None
        assert cache.invalidated == 1
        rebuilt = cache.load_or_build(_spec(), lambda: _packed(gups))
        assert cache.builds == 1
        assert rebuilt.vas == gups.trace(REFS, TRACE_SEED).tolist()
        # The rebuilt entry is whole again.
        assert TraceCache(tmp_path).get(_spec()) is not None

    def test_truncated_payload(self, tmp_path, gups):
        npy_path, _ = self._seed_entry(tmp_path, gups)
        npy_path.write_bytes(npy_path.read_bytes()[:100])
        self._assert_rebuilt(tmp_path, gups)

    def test_flipped_byte(self, tmp_path, gups):
        npy_path, _ = self._seed_entry(tmp_path, gups)
        blob = bytearray(npy_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        npy_path.write_bytes(bytes(blob))
        self._assert_rebuilt(tmp_path, gups)

    def test_torn_sidecar(self, tmp_path, gups):
        _, meta_path = self._seed_entry(tmp_path, gups)
        meta_path.write_text(meta_path.read_text()[:20])
        self._assert_rebuilt(tmp_path, gups)

    def test_missing_payload_is_a_plain_miss(self, tmp_path, gups):
        """A sidecar whose payload is gone looks exactly like a
        concurrent gc caught between its two unlinks: a miss to
        rebuild, not corruption to count and clean up."""
        npy_path, meta_path = self._seed_entry(tmp_path, gups)
        npy_path.unlink()
        cache = TraceCache(tmp_path)
        assert cache.get(_spec()) is None
        assert cache.invalidated == 0
        rebuilt = cache.load_or_build(_spec(), lambda: _packed(gups))
        assert rebuilt.vas == gups.trace(REFS, TRACE_SEED).tolist()
        assert npy_path.exists() and meta_path.exists()
        assert TraceCache(tmp_path).get(_spec()) is not None

    def test_corrupt_entry_files_are_deleted(self, tmp_path, gups):
        npy_path, meta_path = self._seed_entry(tmp_path, gups)
        npy_path.write_bytes(b"garbage")
        assert TraceCache(tmp_path).get(_spec()) is None
        assert not npy_path.exists() and not meta_path.exists()


class TestVersionInvalidation:
    def test_generator_bump_changes_every_key(self, tmp_path, gups, monkeypatch):
        cache = TraceCache(tmp_path)
        cache.load_or_build(_spec(), lambda: _packed(gups))

        import repro.workloads.compile as compile_mod

        monkeypatch.setattr(
            compile_mod, "GENERATOR_VERSION", compile_mod.GENERATOR_VERSION + 1
        )
        bumped = TraceCache(tmp_path)
        assert bumped.get(_spec()) is None  # new key: a miss, not corruption
        assert bumped.invalidated == 0
        bumped.load_or_build(_spec(), lambda: _packed(gups))
        # Both generations coexist until gc; nothing was overwritten.
        assert len(bumped.entries()) == 2

    def test_gc_reclaims_everything(self, tmp_path, gups):
        cache = TraceCache(tmp_path)
        cache.load_or_build(_spec(), lambda: _packed(gups))
        cache.load_or_build(_spec(trace_seed=2), lambda: _packed(gups, trace_seed=2))
        assert len(cache.entries()) == 2
        stats = cache.gc()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert not list(tmp_path.iterdir())
        assert cache.entries() == []


class TestConcurrentGC:
    """gc racing another process's gc (or a sweep's invalidation):
    entries vanishing mid-scan are skipped, counts stay honest."""

    def _seed(self, tmp_path, gups, seeds=(1, 2, 3)):
        cache = TraceCache(tmp_path)
        for seed in seeds:
            cache.load_or_build(
                _spec(trace_seed=seed), lambda s=seed: _packed(gups, trace_seed=s)
            )
        return cache

    def test_gc_tolerates_entries_vanishing_mid_scan(
        self, tmp_path, gups, monkeypatch
    ):
        """The racing process wins one entry: our gc neither raises nor
        counts the stolen entry as its own removal."""
        cache = self._seed(tmp_path, gups)
        victim = spec_digest(_spec(trace_seed=2))
        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            if self.stem == victim:
                # The other gc got here first: both files are gone by
                # the time ours tries.
                real_unlink(self.with_suffix(".json"))
                real_unlink(self.with_suffix(".npy"))
                raise FileNotFoundError(str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        stats = cache.gc()
        assert stats["entries"] == 2  # the stolen entry is not ours
        assert stats["bytes"] > 0
        assert not list(tmp_path.iterdir())

    def test_gc_tolerates_directory_vanishing_mid_scan(
        self, tmp_path, gups, monkeypatch
    ):
        """root removed between is_dir() and the glob walk: an empty
        gc, not a FileNotFoundError."""
        import shutil

        cache = self._seed(tmp_path, gups)
        real_is_dir = Path.is_dir

        def vanishing_is_dir(self, *args, **kwargs):
            result = real_is_dir(self, *args, **kwargs)
            if result and self == tmp_path:
                shutil.rmtree(tmp_path)
            return result

        monkeypatch.setattr(Path, "is_dir", vanishing_is_dir)
        stats = cache.gc()
        assert stats == {"entries": 0, "bytes": 0}

    def test_get_during_concurrent_gc_is_a_miss(
        self, tmp_path, gups, monkeypatch
    ):
        """Sidecar visible, bytes gone by read time: a miss (the other
        process is cleaning up), never an exception or an
        invalidation."""
        cache = self._seed(tmp_path, gups, seeds=(1,))
        real_read = Path.read_text

        def vanishing_read(self, *args, **kwargs):
            if self.suffix == ".json":
                self.unlink()
                raise FileNotFoundError(str(self))
            return real_read(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", vanishing_read)
        probe = TraceCache(tmp_path)
        assert probe.get(_spec(trace_seed=1)) is None
        assert probe.invalidated == 0


# -- opt-outs and fingerprint discipline --------------------------------

class TestOptOuts:
    def test_config_opt_out_writes_nothing(self, tmp_path, gups):
        cfg = SimConfig(
            num_refs=REFS, use_trace_cache=False,
            trace_cache_dir=str(tmp_path),
        )
        assert cache_for_config(cfg) is None
        Simulator("radix", build_workload("gups"), cfg).run()
        assert not list(tmp_path.iterdir())

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        cfg = SimConfig(num_refs=REFS, trace_cache_dir=str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert cache_for_config(cfg) is None
        monkeypatch.delenv("REPRO_TRACE_CACHE")
        assert cache_for_config(cfg) is not None

    def test_unwritable_cache_degrades_gracefully(self, tmp_path, gups):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = TraceCache(blocker / "sub")
        compiled = cache.load_or_build(_spec(), lambda: _packed(gups))
        # The build still happened in memory; nothing exploded.
        assert compiled.vas == gups.trace(REFS, TRACE_SEED).tolist()


class TestFingerprintInvariance:
    def test_cache_knobs_do_not_change_the_fingerprint(self, tmp_path):
        base = config_fingerprint(SimConfig(num_refs=REFS))
        assert config_fingerprint(
            SimConfig(num_refs=REFS, use_trace_cache=False)
        ) == base
        assert config_fingerprint(
            SimConfig(num_refs=REFS, trace_cache_dir=str(tmp_path))
        ) == base
        # ...while result-shaping fields still do.
        assert config_fingerprint(SimConfig(num_refs=REFS + 1)) != base


# -- the workload layout in the sidecar ---------------------------------

class TestWarmSweepSkipsBuild:
    """A cache entry also carries its workload's VMA layout, so a warm
    sweep builds no workload at all — and computes the same cells."""

    @staticmethod
    def _forbid_builds(monkeypatch):
        from repro.sim import runner

        def build_workload(*args, **kwargs):
            raise AssertionError("a warm sweep built a workload")

        monkeypatch.setattr(runner, "build_workload", build_workload)

    @pytest.mark.timeout(600)
    def test_warm_layout_only_sweep_matches_cold_and_golden(
        self, golden, tmp_path, monkeypatch
    ):
        from repro.sim import run_suite

        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        schemes = list(dict.fromkeys(r["scheme"] for r in golden["results"]))
        cfg = SimConfig(num_refs=golden["refs"], trace_cache_dir=str(tmp_path))
        cold = run_suite([golden["workload"]], schemes, config=cfg)
        assert cold.trace_cache["builds"] == 1
        assert cold.trace_cache["workloads_built"] == 1
        self._forbid_builds(monkeypatch)
        by_cell = {(r["scheme"], r["thp"]): r for r in golden["results"]}
        for jobs in (1, 2):
            warm = run_suite([golden["workload"]], schemes, config=cfg, jobs=jobs)
            assert warm.trace_cache["hits"] == 1
            assert warm.trace_cache["builds"] == 0
            assert warm.trace_cache["workloads_built"] == 0
            assert [asdict(r) for r in warm.results] == \
                [asdict(r) for r in cold.results]
            for run in warm.results:
                assert asdict(run) == by_cell[(run.scheme, run.thp)], jobs

    def test_layout_only_workload(self, tmp_path):
        """Same VMAs and bases as the built workload, the cache hit as
        its trace, and any other trace built on first use."""
        from repro.workloads.registry import workload_from_layout

        real = build_workload("gups")
        compiled_trace_for(real, REFS, TRACE_SEED, TraceCache(tmp_path))
        hit = TraceCache(tmp_path).get(_spec())
        loaded = workload_from_layout(hit)
        assert loaded.space == real.space
        assert list(loaded.space.segment_base_vpn) == \
            list(real.space.segment_base_vpn)
        assert compiled_trace_for(loaded, REFS, TRACE_SEED, None) is hit
        assert (loaded.trace(REFS + 1, 2) == real.trace(REFS + 1, 2)).all()

    def _sweep(self, tmp_path):
        from repro.sim import run_suite

        cfg = SimConfig(num_refs=REFS, trace_cache_dir=str(tmp_path))
        return run_suite(["gups"], ["radix", "lvm"], config=cfg)

    def _sidecar(self, tmp_path):
        [meta_path] = tmp_path.glob("*.json")
        return meta_path, json.loads(meta_path.read_text())

    def test_bit_flipped_layout_invalidates_the_entry(self, tmp_path):
        cold = self._sweep(tmp_path)
        meta_path, meta = self._sidecar(tmp_path)
        layout = meta["layout"]
        flipped = json.loads(layout)
        flipped["vmas"][0][0] ^= 1  # one bit of a VMA start
        meta["layout"] = json.dumps(flipped, separators=(",", ":"))
        meta_path.write_text(json.dumps(meta, sort_keys=True))
        rerun = self._sweep(tmp_path)
        assert rerun.trace_cache["invalidated"] == 1
        assert rerun.trace_cache["builds"] == 1
        assert rerun.trace_cache["workloads_built"] == 1
        assert [asdict(r) for r in rerun.results] == \
            [asdict(r) for r in cold.results]
        assert self._sidecar(tmp_path)[1]["layout"] == layout

    def test_entry_without_layout_is_a_trace_that_means_build(self, tmp_path):
        cold = self._sweep(tmp_path)
        meta_path, meta = self._sidecar(tmp_path)
        del meta["layout"], meta["layout_sha256"]
        meta_path.write_text(json.dumps(meta, sort_keys=True))
        rerun = self._sweep(tmp_path)
        assert rerun.trace_cache["hits"] == 1
        assert rerun.trace_cache["builds"] == 0
        assert rerun.trace_cache["invalidated"] == 0
        assert rerun.trace_cache["workloads_built"] == 1
        assert [asdict(r) for r in rerun.results] == \
            [asdict(r) for r in cold.results]
