"""Worksets: the unit of column-partitioned storage on each worker.

A :class:`Workset` is what one dispatch message carries (Fig 5, Step 3):
the column-projection of one block's rows for one destination worker,
in CSR with local column ids, plus the rows' labels and the originating
block id.  A :class:`WorksetStore` is the per-worker "hash map of
received worksets" (Algorithm 4, line 7) that the two-phase index
samples from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple, Union

import numpy as np

from repro.errors import PartitionError
from repro.linalg import CSRMatrix
from repro.linalg.csr import concat_ranges
from repro.linalg.counters import OP_COUNTERS
from repro.partition.indexing import Draws
from repro.storage.serialization import workset_bytes


@dataclass
class Workset:
    """Column shard of one block: local-id CSR + labels + provenance."""

    block_id: int
    features: CSRMatrix  # n_cols == owner's local dim
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 1 or self.labels.size != self.features.n_rows:
            raise PartitionError(
                "workset labels ({}) do not match rows ({})".format(
                    self.labels.size, self.features.n_rows
                )
            )

    @property
    def n_rows(self) -> int:
        """Rows in the originating block."""
        return self.features.n_rows

    def serialized_bytes(self) -> int:
        """Wire size of this workset (CSR-compressed, one object)."""
        return workset_bytes(self.features.n_rows, self.features.nnz)


class WorksetStore:
    """Per-worker map ``block_id -> Workset`` with batch assembly.

    ``local_dim`` pins the column dimension every stored workset must
    share (the worker's model partition width).
    """

    def __init__(self, worker_id: int, local_dim: int):
        self.worker_id = int(worker_id)
        self.local_dim = int(local_dim)
        self._worksets: Dict[int, Workset] = {}

    def put(self, workset: Workset) -> None:
        """Insert a received workset; block ids must be unique."""
        if workset.features.n_cols != self.local_dim:
            raise PartitionError(
                "workset has {} columns but worker {} owns {}".format(
                    workset.features.n_cols, self.worker_id, self.local_dim
                )
            )
        if workset.block_id in self._worksets:
            raise PartitionError(
                "duplicate workset for block {} on worker {}".format(
                    workset.block_id, self.worker_id
                )
            )
        self._worksets[workset.block_id] = workset

    def get(self, block_id: int) -> Workset:
        """Look up one workset by block id."""
        if block_id not in self._worksets:
            raise PartitionError(
                "worker {} has no workset for block {}".format(self.worker_id, block_id)
            )
        return self._worksets[block_id]

    def resident(self, block_id: int) -> bool:
        """Whether :meth:`get` serves ``block_id`` without a read.

        Always true in memory; the shard-backed store answers from its
        block cache, which lets :meth:`assemble_batch` fetch cache hits
        before misses.
        """
        return True

    def block_ids(self) -> list:
        """Sorted block ids present in the store."""
        return sorted(self._worksets)

    def block_sizes(self) -> Dict[int, int]:
        """Rows per stored block (two-phase index input)."""
        return {bid: ws.n_rows for bid, ws in self._worksets.items()}

    @property
    def n_rows(self) -> int:
        """Total logical rows across all worksets."""
        return sum(ws.n_rows for ws in self._worksets.values())

    @property
    def nnz(self) -> int:
        """Total stored non-zeros in this shard."""
        return sum(ws.features.nnz for ws in self._worksets.values())

    def stored_bytes(self) -> int:
        """Memory footprint of the shard (CSR + labels)."""
        return sum(ws.serialized_bytes() for ws in self._worksets.values())

    def cache_stats(self) -> Dict[str, int]:
        """Block-cache counters; an in-memory store never misses.

        The shard-backed store (:class:`repro.store.ShardWorksetStore`)
        overrides this with real hit/miss/eviction/bytes-read tallies —
        the shared shape lets accounting code treat both uniformly.
        """
        return {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "bytes_read": 0,
            "bytes_evicted": 0,
            "resident_bytes": self.stored_bytes(),
        }

    def assemble_batch(
        self, draws: Union[Draws, Iterable[Tuple[int, int]]]
    ) -> Tuple[CSRMatrix, np.ndarray]:
        """Gather the rows named by ``(block_id, offset)`` draws.

        Returns a local-dimension CSR batch plus the labels, in draw
        order.  Every worker calling this with the same draws gets
        row-aligned shards of the same logical mini-batch — the point of
        the two-phase index.  Each block is fetched once, resident blocks
        first (see :meth:`resident`), and each sampled entry is copied
        once, straight to its row's place in draw order.
        """
        draws = Draws.of(draws)
        n = len(draws)
        if not n:
            return CSRMatrix.empty(0, self.local_dim), np.empty(0, dtype=np.float64)
        # One stable sort groups the draws by block; [cuts[i], cuts[i+1])
        # is the i-th block's run in sorted order.
        order = np.argsort(draws.block_ids, kind="stable")
        blocks = draws.block_ids[order]
        offsets = draws.offsets[order]
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(blocks)) + 1, [n]))
        heads = blocks[cuts[:-1]].tolist()
        cuts = cuts.tolist()
        # Fetch order only matters to a block cache.  A batch visits nearly
        # every block, a cyclic scan that an LRU cache smaller than the
        # shard never hits unless the blocks still resident from the last
        # batch are fetched before the misses evict them.
        fetched = {b: self.get(b) for b in heads if self.resident(b)}
        fetched.update((b, self.get(b)) for b in heads if b not in fetched)
        worksets = [fetched[b] for b in heads]
        n_rows = np.array([workset.n_rows for workset in worksets])
        low = np.minimum.reduceat(offsets, cuts[:-1])
        high = np.maximum.reduceat(offsets, cuts[:-1])
        bad = np.flatnonzero((low < 0) | (high >= n_rows))
        if bad.size:
            workset = worksets[bad[0]]
            raise PartitionError(
                "offset out of range for block {} ({} rows)".format(
                    workset.block_id, workset.n_rows
                )
            )
        # Source row starts and ends, and labels, in sorted order.  The
        # offsets are in range, so mode="clip" clips nothing; it lets take
        # write straight into out instead of through a hidden copy.
        starts = np.empty(n, dtype=np.int64)
        ends = np.empty(n, dtype=np.int64)
        sorted_labels = np.empty(n, dtype=np.float64)
        after = offsets + 1
        for workset, lo, hi in zip(worksets, cuts[:-1], cuts[1:]):
            row_ptr = workset.features.indptr
            row_ptr.take(offsets[lo:hi], out=starts[lo:hi], mode="clip")
            row_ptr.take(after[lo:hi], out=ends[lo:hi], mode="clip")
            workset.labels.take(offsets[lo:hi], out=sorted_labels[lo:hi], mode="clip")
        lengths = ends - starts
        labels = np.empty(n, dtype=np.float64)
        labels[order] = sorted_labels
        # Output rows are sized in draw order; src/dst map every entry,
        # in sorted order, from its block to its place in the batch.
        draw_lengths = np.empty(n, dtype=np.int64)
        draw_lengths[order] = lengths
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(draw_lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        bounds = np.concatenate(([0], np.cumsum(lengths)))[cuts].tolist()
        widest = max(b - a for a, b in zip(bounds[:-1], bounds[1:]))
        # indices + data, src + dst, and one block's gather buffers
        OP_COUNTERS.add_alloc(4 * nnz + 2 * widest)
        src = concat_ranges(starts, lengths)
        dst = concat_ranges(indptr[order], lengths)
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        index_buf = np.empty(widest, dtype=np.int64)
        value_buf = np.empty(widest, dtype=np.float64)
        for workset, a, b in zip(worksets, bounds[:-1], bounds[1:]):
            # src is in range by construction
            features = workset.features
            features.indices.take(src[a:b], out=index_buf[:b - a], mode="clip")
            features.data.take(src[a:b], out=value_buf[:b - a], mode="clip")
            indices[dst[a:b]] = index_buf[:b - a]
            data[dst[a:b]] = value_buf[:b - a]
        return CSRMatrix(indptr, indices, data, self.local_dim), labels

    def clear(self) -> None:
        """Drop all worksets (worker failure simulation)."""
        self._worksets.clear()
