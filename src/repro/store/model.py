"""Sim-side cost model of loading from a column-shard store.

A store-backed ``driver.load`` must charge the cluster *exactly* what
the in-memory dispatcher charges — same WORKSET messages, same phase
seconds, same clock advance — or store-backed sim runs would diverge
from the golden trajectories and the ProtocolChecker's Table-I audit.
Everything :func:`~repro.partition.dispatch.dispatch_block_based`
charges is a function of per-(block, destination) ``(n_rows, nnz)``
pairs, all of which the shard footers record, so :class:`StoreModel`
feeds the footer tables to the dispatcher's own accounting loop
(:func:`~repro.partition.dispatch.charge_block_dispatch`) — no record
data is read, and the floating-point accumulation order is identical
by construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.partition.dispatch import LoadCostModel, LoadReport, charge_block_dispatch
from repro.sim.cluster import SimulatedCluster


class StoreModel:
    """Block-dispatch load accounting from shard footers.

    Parameters
    ----------
    block_rows:
        ``(n_blocks,)`` rows per block (the sidecar footer).
    nnz_by_worker:
        ``(K, n_blocks)`` stored non-zeros per (destination, block)
        (the shard footers).  Column sums recover each block's total
        nnz because the column assignment partitions all features.
    """

    def __init__(self, block_rows: np.ndarray, nnz_by_worker: np.ndarray):
        self.block_rows = block_rows
        self.nnz_by_worker = nnz_by_worker
        if nnz_by_worker.ndim != 2 or nnz_by_worker.shape[1] != block_rows.shape[0]:
            raise ConfigurationError(
                "nnz table shape {} does not match {} block(s)".format(
                    nnz_by_worker.shape, block_rows.shape[0]
                )
            )

    @property
    def n_workers(self) -> int:
        return int(self.nnz_by_worker.shape[0])

    def charge_load(
        self,
        cluster: SimulatedCluster,
        costs: Optional[LoadCostModel] = None,
    ) -> LoadReport:
        """Charge the cluster one block-based dispatch, footer-driven —
        the same accounting loop
        :func:`~repro.partition.dispatch.dispatch_block_based` runs, so
        a store-backed sim run is bit-identical to an in-memory one."""
        if cluster.n_workers != self.n_workers:
            raise ConfigurationError(
                "store was sharded for {} worker(s) but the cluster has {}".format(
                    self.n_workers, cluster.n_workers
                )
            )
        return charge_block_dispatch(
            cluster, self.block_rows, self.nnz_by_worker, costs or LoadCostModel()
        )
