"""Sharded store layout and the serving LRU."""

import json
import os
import pickle

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    RunSpec,
    cache_key,
    cache_lookup,
    cache_path,
)
from repro.harness.runner import RunResult
from repro.serve.store import ResultStore, encode_result
from repro.timing import SimStats, small_config
from repro.timing.gpu import SimulationResult

SPEC = RunSpec(abbr="LIB", config_name="BASE", scale="tiny")


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def make_result(spec=SPEC, cycles=123) -> RunResult:
    sim = SimulationResult(
        frontend_name=spec.config_name,
        cycles=cycles,
        stats=SimStats(cycles=cycles),
        per_sm_stats=[],
        config=small_config(num_sms=1),
    )
    return RunResult(workload=spec.abbr, config_name=spec.config_name,
                     sim=sim, energy_pj=42.0)


def store_entry(spec, cache_dir) -> str:
    key = cache_key(spec)
    assert parallel._cache_store(cache_path(spec, key, cache_dir), key, make_result(spec))
    return key


class TestShardedLayout:
    def test_cache_path_is_sharded_by_key_prefix(self, cache_dir):
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        shard = os.path.basename(os.path.dirname(path))
        assert shard == key[: parallel.CACHE_SHARD_CHARS]

    def test_lookup_hits_sharded_entry(self, cache_dir):
        key = store_entry(SPEC, cache_dir)
        result, status = cache_lookup(SPEC, key, cache_dir)
        assert status == "hit"
        assert result.cycles == 123

    def test_missing_everywhere_is_a_miss(self, cache_dir):
        result, status = cache_lookup(SPEC, cache_key(SPEC), cache_dir)
        assert result is None and status == "miss"


class TestShardedMaintenance:
    def test_clear_cache_traverses_shards(self, cache_dir):
        key = store_entry(SPEC, cache_dir)
        other = RunSpec(abbr="FWS", config_name="BASE", scale="tiny")
        store_entry(other, cache_dir)
        leak = os.path.join(cache_dir, key[:2], "x.pkl.tmp.999")
        with open(leak, "wb") as fh:
            fh.write(b"partial")

        assert parallel.clear_cache(cache_dir) == 3
        assert os.listdir(cache_dir) == []  # emptied shard dirs pruned

    def test_reap_stale_tmp_traverses_shards(self, cache_dir):
        key = cache_key(SPEC)
        shard = os.path.join(cache_dir, key[:2])
        os.makedirs(shard, exist_ok=True)
        stale = os.path.join(shard, "a.pkl.tmp.111")
        fresh = os.path.join(shard, "b.pkl.tmp.222")
        for path in (stale, fresh):
            with open(path, "wb") as fh:
                fh.write(b"partial")
        old = os.path.getmtime(stale) - 7200
        os.utime(stale, (old, old))

        assert parallel.reap_stale_tmp(cache_dir) == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)

    def test_clear_cache_counts_nothing_when_empty(self, cache_dir):
        assert parallel.clear_cache(cache_dir) == 0


class TestResultStore:
    def test_miss_then_store_hit_then_memory_hit(self, cache_dir):
        key = store_entry(SPEC, cache_dir)
        store = ResultStore(cache_dir)

        body, source = store.get(SPEC, key)
        assert source == "store"
        payload = json.loads(body.decode())
        assert payload["cycles"] == 123
        assert payload["workload"] == "LIB"

        body2, source2 = store.get(SPEC, key)
        assert source2 == "memory"
        assert body2 == body
        assert store.memory_hits == 1 and store.store_hits == 1

    def test_cold_key_misses(self, cache_dir):
        store = ResultStore(cache_dir)
        body, source = store.get(SPEC, cache_key(SPEC))
        assert body is None and source is None
        assert store.misses == 1

    def test_lru_eviction_bound(self, cache_dir):
        store = ResultStore(cache_dir, memory_entries=2)
        store.put("k1", b"1")
        store.put("k2", b"2")
        store.put("k3", b"3")
        assert len(store) == 2
        assert "k1" not in store._memory  # oldest evicted

    def test_corrupt_disk_entry_counted(self, cache_dir):
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage")
        store = ResultStore(cache_dir)
        body, source = store.get(SPEC, key)
        assert body is None
        assert store.corrupt_entries == 1

    def test_encode_result_fallback_never_raises(self):
        body = encode_result(object())
        assert b"repr" in body

    def test_wrong_key_entry_is_a_miss(self, cache_dir):
        key = cache_key(SPEC)
        path = cache_path(SPEC, key, cache_dir)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump({"key": "foreign", "result": "bogus"}, fh)
        store = ResultStore(cache_dir)
        body, source = store.get(SPEC, key)
        assert body is None and source is None
