"""Tests for repro.store: the on-disk column-shard store.

Covers the file format's byte-model invariants, the out-of-core shuffle
writer, the mmap readers and budgeted block cache, the footer-driven
load-cost model, and — the acceptance test — a full out-of-core
ColumnSGD run on ``backend='local'`` whose final model is *exactly*
the in-memory simulator's, with cache counters that reconcile against
the byte ledger.
"""

from __future__ import annotations

import pickle
import shutil

import numpy as np
import pytest

from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.datasets.libsvm import write_libsvm
from repro.errors import ConfigurationError, DataError, PartitionError
from repro.models import make_model
from repro.optim import make_optimizer
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based
from repro.partition.workset import WorksetStore
from repro.sim.cluster import SimulatedCluster
from repro.sim.presets import CLUSTER1
from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    csr_matrix_bytes,
    workset_bytes,
)
from repro.store import (
    STORE_LEDGER,
    ColumnShardStore,
    LRUBlockCache,
    MemoryMeter,
    ShardIndex,
    ShardReader,
    ShardWorksetStore,
    ShuffleWriter,
    StoreHeader,
    shard_filename,
    store_backed_dispatch,
)
from repro.store.format import HEADER_BYTES, KIND_SHARD, SIDECAR_FILENAME

WORKERS = 4
BLOCK = 64


@pytest.fixture(autouse=True)
def _reset_ledger():
    STORE_LEDGER.reset()
    yield
    STORE_LEDGER.reset()


@pytest.fixture
def data():
    return make_classification(500, 80, nnz_per_row=6, seed=3)


@pytest.fixture
def store(data, tmp_path):
    return ColumnShardStore.from_dataset(
        data, tmp_path / "store", n_workers=WORKERS, block_size=BLOCK
    )


def cluster():
    return SimulatedCluster(CLUSTER1.with_workers(WORKERS))


# ----------------------------------------------------------------------
# format: headers, footers, and size validation
# ----------------------------------------------------------------------
class TestFormat:
    def test_header_round_trip(self):
        header = StoreHeader(
            kind=KIND_SHARD, worker_id=3, n_blocks=7,
            footer_offset=4096, footer_length=288, data_bytes=4032,
        )
        packed = header.pack()
        assert len(packed) == HEADER_BYTES
        assert StoreHeader.unpack(packed) == header

    def test_bad_magic_rejected(self):
        packed = bytearray(
            StoreHeader(KIND_SHARD, 0, 1, 100, 50, 36).pack()
        )
        packed[0] = 0
        with pytest.raises(DataError, match="magic"):
            StoreHeader.unpack(bytes(packed))

    def test_store_files_validate(self, store):
        # every published file re-validates against the byte model on open
        for w in range(WORKERS):
            ShardIndex.load(store.store_dir / shard_filename(w))
        ShardIndex.load(store.store_dir / SIDECAR_FILENAME)

    def test_truncated_file_rejected(self, store, tmp_path):
        path = store.store_dir / shard_filename(0)
        clipped = tmp_path / "clipped.col"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            ShardIndex.load(clipped)

    def test_no_tmp_files_left(self, store):
        assert not list(store.store_dir.glob("*.tmp"))


# ----------------------------------------------------------------------
# writer: streaming shuffle under a meter
# ----------------------------------------------------------------------
class TestShuffleWriter:
    def test_record_lengths_equal_byte_model(self, store):
        # writer already asserts this internally; verify from the footers
        for w in range(WORKERS):
            index = store.shard_indexes[w]
            for b in range(index.n_blocks):
                expected = csr_matrix_bytes(
                    index.n_rows(b), index.nnz(b), with_labels=False
                )
                assert index.length(b) == expected

    def test_block_layout_matches_dispatcher(self, data, store):
        sizes = store.block_sizes()
        assert sorted(sizes) == list(range(len(sizes)))
        assert all(v == BLOCK for v in list(sizes.values())[:-1])
        assert sum(sizes.values()) == data.n_rows

    def test_meter_balance_and_peak(self, data, tmp_path):
        writer = ShuffleWriter(
            tmp_path / "s", n_features=data.n_features, n_workers=WORKERS,
            block_size=BLOCK,
        )
        for i in range(data.n_rows):
            row = data.features.row(i)
            writer.add_row(data.labels[i], row.indices, row.values)
        writer.close()
        assert writer.meter.current == 0  # all charges released
        assert writer.meter.peak > 0

    def test_meter_rejects_over_release(self):
        meter = MemoryMeter()
        meter.charge(10)
        with pytest.raises(DataError):
            meter.release(11)

    def test_closed_writer_rejects_rows(self, tmp_path):
        writer = ShuffleWriter(tmp_path / "s", n_features=4, n_workers=2)
        writer.close()
        with pytest.raises(DataError, match="closed"):
            writer.add_row(1.0, np.array([0]), np.array([1.0]))


# ----------------------------------------------------------------------
# readers: zero-copy records, lazy stores, caching
# ----------------------------------------------------------------------
class TestReaders:
    def test_record_is_zero_copy_view(self, store):
        reader = ShardReader(store.shard_indexes[0])
        record = reader.record(0)
        assert isinstance(record, memoryview)
        assert len(record) == store.shard_indexes[0].length(0)
        record.release()  # views pin the mapping; drop before close
        reader.close()

    def test_worksets_identical_to_dispatcher(self, data, store):
        assignment = make_assignment("round_robin", data.n_features, WORKERS)
        mem_stores, _, _ = dispatch_block_based(
            data, assignment, cluster(), block_size=BLOCK
        )
        for w in range(WORKERS):
            ws = store.worker_store(w)
            mem = mem_stores[w]
            assert ws.block_sizes() == mem.block_sizes()
            assert ws.stored_bytes() == mem.stored_bytes()
            for b in ws.block_ids():
                ours, theirs = ws.get(b), mem.get(b)
                np.testing.assert_array_equal(
                    ours.features.indptr, theirs.features.indptr
                )
                np.testing.assert_array_equal(
                    ours.features.indices, theirs.features.indices
                )
                np.testing.assert_array_equal(
                    ours.features.data, theirs.features.data
                )
                np.testing.assert_array_equal(ours.labels, theirs.labels)
            ws.clear()

    def test_store_is_read_only(self, store):
        ws = store.worker_store(0)
        with pytest.raises(PartitionError):
            ws.put(ws.get(0))
        ws.clear()

    def test_out_of_range_block(self, store):
        ws = store.worker_store(0)
        with pytest.raises(PartitionError):
            ws.get(999)

    def test_counters_and_ledger_reconcile(self, store):
        ws = store.worker_store(2)
        for b in ws.block_ids():
            ws.get(b)
        for b in ws.block_ids():
            ws.get(b)  # second pass: all hits
        stats = ws.cache_stats()
        n = store.manifest.n_blocks
        assert stats["misses"] == n and stats["hits"] == n
        expected = sum(
            store.shard_indexes[2].length(b) + store.sidecar_index.length(b)
            for b in range(n)
        )
        assert stats["bytes_read"] == expected
        assert STORE_LEDGER.by_worker[2] == expected
        assert STORE_LEDGER.blocks_read == n
        ws.clear()

    def test_budget_evicts_lru(self, store):
        weights = [
            workset_bytes(
                store.sidecar_index.n_rows(b), store.shard_indexes[0].nnz(b)
            )
            for b in range(store.manifest.n_blocks)
        ]
        budget = 2 * max(weights)
        ws = store.worker_store(0, cache_budget_bytes=budget)
        for b in ws.block_ids():
            ws.get(b)
        stats = ws.cache_stats()
        assert stats["evictions"] > 0
        assert stats["bytes_evicted"] > 0
        # over-budget only by the MRU entry that must stay resident
        assert stats["resident_bytes"] <= budget + max(weights)
        ws.clear()

    def test_pickle_drops_file_state(self, store):
        ws = store.worker_store(1, cache_budget_bytes=4096)
        ws.get(0)
        clone = pickle.loads(pickle.dumps(ws))
        assert clone.cache_stats()["hits"] == 0  # fresh cache
        got = clone.get(0)
        np.testing.assert_array_equal(got.labels, ws.get(0).labels)
        ws.clear()
        clone.clear()

    def test_kind_mismatch_rejected(self, store):
        with pytest.raises(DataError, match="shard"):
            ShardWorksetStore(0, 10, store.sidecar_index, store.sidecar_index)
        with pytest.raises(DataError, match="sidecar"):
            ShardWorksetStore(
                0, 10, store.shard_indexes[0], store.shard_indexes[0]
            )


    def test_close_with_live_views(self, store):
        ws = store.worker_store(0)
        held = ws.get(0)
        expected = (
            held.features.indptr.copy(), held.features.data.copy(),
            held.labels.copy(),
        )
        ws.clear()  # the mapping outlives the store's handles
        np.testing.assert_array_equal(held.features.indptr, expected[0])
        np.testing.assert_array_equal(held.features.data, expected[1])
        np.testing.assert_array_equal(held.labels, expected[2])
        again = ws.get(0)  # reopens the files
        assert again is not held
        np.testing.assert_array_equal(again.features.data, expected[1])
        np.testing.assert_array_equal(again.labels, expected[2])
        ws.clear()

    def test_reader_close_with_live_payload(self, store):
        reader = ShardReader(store.shard_indexes[0])
        payload = reader.csr_block(0)
        data = payload.data.copy()
        reader.close()
        np.testing.assert_array_equal(payload.data, data)

    def test_cached_arrays_are_read_only_views(self, store):
        ws = store.worker_store(0)
        got = ws.get(0)
        assert not got.features.data.flags.writeable
        assert not got.labels.flags.writeable
        assert got.features.indptr.dtype == np.int64
        ws.clear()


# ----------------------------------------------------------------------
# corrupt records: typed errors, nothing cached
# ----------------------------------------------------------------------
class TestCorruptRecords:
    BLOCK_ID = 1

    def _corrupt(self, store, tmp_path, patch):
        """Copy the store, let ``patch`` rewrite one shard record."""
        copy = tmp_path / "copy"
        shutil.copytree(store.store_dir, copy)
        index = store.shard_indexes[0]
        path = copy / shard_filename(0)
        raw = bytearray(path.read_bytes())
        start = index.offset(self.BLOCK_ID)
        n_rows = index.n_rows(self.BLOCK_ID)
        body = start + OBJECT_OVERHEAD_BYTES
        indptr = np.frombuffer(raw, dtype="<i4", count=n_rows + 1, offset=body)
        indices = np.frombuffer(
            raw, dtype="<i4", count=index.nnz(self.BLOCK_ID),
            offset=body + 4 * (n_rows + 1),
        )
        patch(raw, start, indptr.copy(), body, indices.size)
        path.write_bytes(bytes(raw))
        return ColumnShardStore.open(copy).worker_store(0)

    def _assert_rejected(self, ws, match):
        with pytest.raises(DataError, match=match) as info:
            ws.get(self.BLOCK_ID)
        message = str(info.value)
        assert "block {}".format(self.BLOCK_ID) in message
        assert shard_filename(0) in message
        assert not ws.resident(self.BLOCK_ID)
        assert ws.cache_stats()["resident_bytes"] == 0
        assert ws.cache_stats()["bytes_read"] == 0
        ws.get(0)  # the intact records still read
        ws.clear()

    def test_bad_record_magic(self, store, tmp_path):
        def patch(raw, start, indptr, body, nnz):
            raw[start:start + 4] = b"XXXX"

        self._assert_rejected(self._corrupt(store, tmp_path, patch), "magic")

    def test_decreasing_indptr(self, store, tmp_path):
        def patch(raw, start, indptr, body, nnz):
            assert indptr.size >= 3
            bumped = np.array([indptr[2] + 1], dtype="<i4").tobytes()
            raw[body + 4:body + 8] = bumped

        self._assert_rejected(
            self._corrupt(store, tmp_path, patch), "non-decreasing"
        )

    def test_row_count_disagrees_with_footer(self, store, tmp_path):
        def patch(raw, start, indptr, body, nnz):
            # the header's n_rows field follows magic, version, type, flags
            fewer = np.array([indptr.size - 2], dtype="<u8").tobytes()
            raw[start + 8:start + 16] = fewer

        self._assert_rejected(self._corrupt(store, tmp_path, patch), "rows")

    def test_column_index_out_of_range(self, store, tmp_path):
        local_dim = store.assignment().local_dim(0)

        def patch(raw, start, indptr, body, nnz):
            assert nnz > 0
            at = body + 4 * indptr.size
            raw[at:at + 4] = np.array([local_dim + 7], dtype="<i4").tobytes()

        self._assert_rejected(
            self._corrupt(store, tmp_path, patch), "column indices"
        )


# ----------------------------------------------------------------------
# batch assembly fetches cache-resident blocks first
# ----------------------------------------------------------------------
def _scan_draws(sizes, seed):
    """Draws that touch every block, in a shuffled order."""
    r = np.random.default_rng(seed)
    pairs = [
        (b, int(o)) for b, n in sizes.items()
        for o in r.integers(0, n, size=3)
    ]
    r.shuffle(pairs)
    return pairs


class TestResidentFirst:
    def test_second_batch_hits_every_resident_block(self, data, store):
        shard = store.shard_indexes[0]
        total = sum(
            workset_bytes(shard.n_rows(b), shard.nnz(b))
            for b in range(shard.n_blocks)
        )
        ws = store.worker_store(0, cache_budget_bytes=total // 3)
        assignment = make_assignment("round_robin", data.n_features, WORKERS)
        mem, _, _ = dispatch_block_based(
            data, assignment, cluster(), block_size=BLOCK
        )
        sizes = store.block_sizes()
        for seed in (0, 1):
            draws = _scan_draws(sizes, seed)
            resident = [b for b in ws.block_ids() if ws.resident(b)]
            hits_before = ws.cache_stats()["hits"]
            features, labels = ws.assemble_batch(draws)
            if seed:  # the first batch's survivors are all hits
                assert 0 < len(resident) < len(sizes)
                assert ws.cache_stats()["hits"] - hits_before == len(resident)
            want_features, want_labels = mem[0].assemble_batch(draws)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(features, name), getattr(want_features, name)
                )
            assert labels.tobytes() == want_labels.tobytes()
        ws.clear()

    def test_in_memory_store_visits_blocks_in_ascending_order(self, data):
        assignment = make_assignment("round_robin", data.n_features, WORKERS)
        mem, _, _ = dispatch_block_based(
            data, assignment, cluster(), block_size=BLOCK
        )
        visits = []

        class Recording(WorksetStore):
            def get(self, block_id):
                visits.append(block_id)
                return super().get(block_id)

        store = Recording(0, mem[0].local_dim)
        for b in reversed(mem[0].block_ids()):
            store.put(mem[0].get(b))
        store.assemble_batch(_scan_draws(mem[0].block_sizes(), seed=2))
        assert visits == sorted(mem[0].block_ids())


class TestLRUBlockCache:
    def test_hit_miss_counters(self):
        cache = LRUBlockCache()
        assert cache.get(0) is None
        cache.put(0, "x", weight=10)
        assert cache.get(0) == "x"
        assert cache.counters.misses == 1 and cache.counters.hits == 1

    def test_eviction_order_is_lru(self):
        cache = LRUBlockCache(budget_bytes=25)
        cache.put(0, "a", weight=10)
        cache.put(1, "b", weight=10)
        cache.get(0)  # refresh 0; 1 becomes LRU
        cache.put(2, "c", weight=10)
        assert 1 not in cache and 0 in cache and 2 in cache

    def test_mru_survives_even_over_budget(self):
        cache = LRUBlockCache(budget_bytes=5)
        cache.put(0, "big", weight=50)
        assert 0 in cache  # never evict the block being read

    def test_zero_budget_never_evicts(self):
        cache = LRUBlockCache(budget_bytes=0)
        for i in range(100):
            cache.put(i, i, weight=1000)
        assert len(cache) == 100
        assert cache.counters.evictions == 0


# ----------------------------------------------------------------------
# the facade: manifest validation, libsvm ingestion, reassembly
# ----------------------------------------------------------------------
class TestColumnShardStore:
    def test_exists_and_open(self, store):
        assert ColumnShardStore.exists(store.store_dir)
        reopened = ColumnShardStore.open(store.store_dir)
        assert reopened.manifest == store.manifest

    def test_open_missing_dir(self, tmp_path):
        assert not ColumnShardStore.exists(tmp_path / "nothing")
        with pytest.raises(DataError, match="manifest"):
            ColumnShardStore.open(tmp_path / "nothing")

    def test_materialize_round_trip(self, data, store):
        back = store.materialize_dataset()
        assert back.features == data.features
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_from_libsvm_matches_from_dataset(self, data, tmp_path):
        path = str(tmp_path / "data.libsvm")
        write_libsvm(data, path)
        store = ColumnShardStore.from_libsvm(
            path, tmp_path / "s", n_workers=WORKERS, block_size=BLOCK
        )
        back = store.materialize_dataset()
        assert back.features == data.features

    def test_from_gzipped_libsvm(self, data, tmp_path):
        path = str(tmp_path / "data.libsvm.gz")
        write_libsvm(data, path)
        store = ColumnShardStore.from_libsvm(
            path, tmp_path / "s", n_workers=WORKERS, block_size=BLOCK
        )
        assert store.manifest.n_rows == data.n_rows
        assert store.manifest.nnz == data.nnz

    def test_reuse_validates_worker_count(self, data, store):
        bad = SimulatedCluster(CLUSTER1.with_workers(WORKERS + 1))
        with pytest.raises(ConfigurationError, match="worker"):
            store_backed_dispatch(
                data, bad, store.store_dir, block_size=BLOCK
            )

    def test_reuse_validates_block_size(self, data, store):
        with pytest.raises(ConfigurationError, match="block_size"):
            store_backed_dispatch(
                data, cluster(), store.store_dir, block_size=BLOCK * 2
            )

    def test_reuse_validates_shape(self, store):
        other = make_classification(500, 80, nnz_per_row=7, seed=4)
        with pytest.raises(ConfigurationError, match="does not match"):
            store_backed_dispatch(
                other, cluster(), store.store_dir, block_size=BLOCK
            )

    def test_dispatch_without_store_or_dataset(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no dataset"):
            store_backed_dispatch(
                None, cluster(), tmp_path / "missing", block_size=BLOCK
            )

    def test_load_cost_identical_to_dispatcher(self, data, store):
        assignment = make_assignment("round_robin", data.n_features, WORKERS)
        c_mem, c_store = cluster(), cluster()
        _, _, mem_report = dispatch_block_based(
            data, assignment, c_mem, block_size=BLOCK
        )
        store_report = store.store_model().charge_load(c_store)
        assert store_report.seconds == mem_report.seconds
        assert store_report.bytes_shuffled == mem_report.bytes_shuffled
        assert store_report.phase_seconds == mem_report.phase_seconds
        assert store_report.n_objects_shipped == mem_report.n_objects_shipped
        assert c_store.clock.now() == c_mem.clock.now()
        assert c_store.network.bytes_by_kind == c_mem.network.bytes_by_kind


# ----------------------------------------------------------------------
# driver integration (sim backend)
# ----------------------------------------------------------------------
def _driver(backend="sim", store_dir="", budget=0, **kw):
    cfg = ColumnSGDConfig(
        batch_size=100, iterations=10, eval_every=5, seed=5, block_size=128,
        backend=backend,
        local_processes=2 if backend == "local" else 0,
        store_dir=str(store_dir) if store_dir else "",
        memory_budget_bytes=budget,
        **kw,
    )
    return ColumnSGDDriver(
        make_model("lr"), make_optimizer("sgd", 0.1), cluster(), config=cfg
    )


class TestDriverIntegration:
    def test_config_rejects_naive_loader_with_store(self):
        with pytest.raises(ValueError, match="loader"):
            ColumnSGDConfig(store_dir="/tmp/x", loader="naive")

    def test_config_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ColumnSGDConfig(memory_budget_bytes=-1)

    def test_sim_run_bit_identical(self, tmp_path):
        ds = make_classification(2000, 400, nnz_per_row=10, seed=5)
        d_mem = _driver()
        d_mem.load(ds)
        r_mem = d_mem.fit()
        d_store = _driver(store_dir=tmp_path / "s", budget=128 * 1024)
        d_store.load(ds)
        r_store = d_store.fit()
        assert np.abs(d_mem.current_params() - d_store.current_params()).max() == 0.0
        assert [l for _, _, l in r_mem.losses()] == [
            l for _, _, l in r_store.losses()
        ]
        assert d_mem.load_report.seconds == d_store.load_report.seconds
        assert [rec.sim_time for rec in r_mem.records] == [
            rec.sim_time for rec in r_store.records
        ]

    def test_load_from_store_no_dataset(self, tmp_path):
        ds = make_classification(2000, 400, nnz_per_row=10, seed=5)
        seed_driver = _driver(store_dir=tmp_path / "s")
        seed_driver.load(ds)

        d = _driver(store_dir=tmp_path / "s")
        d.load_from_store()
        r = d.fit()
        assert r.dataset == ds.name
        d_mem = _driver()
        d_mem.load(ds)
        d_mem.fit()
        assert np.abs(d.current_params() - d_mem.current_params()).max() == 0.0
        # eval_every forced lazy reassembly from the shards
        assert [l for _, _, l in r.losses()]


# ----------------------------------------------------------------------
# THE acceptance test: out-of-core training on the local backend
# ----------------------------------------------------------------------
class TestOutOfCoreAcceptance:
    def test_local_out_of_core_run(self, tmp_path):
        ds = make_classification(2000, 400, nnz_per_row=10, seed=5)
        dataset_bytes = csr_matrix_bytes(ds.n_rows, ds.nnz, with_labels=True)
        budget = 128 * 1024
        assert budget < dataset_bytes  # genuinely out-of-core

        # (a) shuffle under the budget: tracked buffer peak stays below it
        writer = ShuffleWriter(
            tmp_path / "s", n_features=ds.n_features, n_workers=WORKERS,
            block_size=128, memory_budget_bytes=budget,
        )
        for i in range(ds.n_rows):
            row = ds.features.row(i)
            writer.add_row(ds.labels[i], row.indices, row.values)
        store = ColumnShardStore.finish(writer)
        assert writer.meter.peak <= budget, (
            "shuffle peak {} exceeded the {} byte budget".format(
                writer.meter.peak, budget
            )
        )
        # budget high enough that no early flush changed the block layout
        assert store.manifest.n_blocks == (ds.n_rows + 127) // 128

        # (b) train out-of-core on real processes; exact same model as
        # the in-memory simulator run
        d_ref = _driver()
        d_ref.load(ds)
        d_ref.fit()
        d_local = _driver("local", store_dir=tmp_path / "s", budget=budget)
        d_local.load(ds)
        d_local.fit()
        diff = np.abs(d_ref.current_params() - d_local.current_params()).max()
        assert diff == 0.0

        # (c) per-partition cache counters, pulled out of the worker
        # processes, reconcile with the shard/sidecar record lengths
        assert sorted(d_local.store_read_stats) == list(range(WORKERS))
        n = store.manifest.n_blocks
        for w, per_pid in d_local.store_read_stats.items():
            for pid, stats in per_pid.items():
                cold = sum(
                    store.shard_indexes[pid].length(b)
                    + store.sidecar_index.length(b)
                    for b in range(n)
                )
                assert stats["misses"] >= 1
                if stats["evictions"] == 0:
                    # every block fetched exactly once -> bytes_read is
                    # the whole shard's record bytes
                    assert stats["misses"] == n
                    assert stats["bytes_read"] == cold
                else:
                    assert stats["bytes_read"] >= cold
                assert stats["hits"] + stats["misses"] >= n

    def test_in_memory_local_run_reports_zero_stats(self):
        ds = make_classification(800, 100, nnz_per_row=6, seed=7)
        d = _driver("local")
        d.load(ds)
        d.fit()
        for per_pid in d.store_read_stats.values():
            for stats in per_pid.values():
                assert stats["misses"] == 0
                assert stats["bytes_read"] == 0
