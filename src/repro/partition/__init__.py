"""Data and model partitioning.

The paper's Section IV: column assignment schemes shared by data and
model (so they stay collocated), the block-based row-to-column
dispatcher (Algorithm 4 / Fig 5) and its naive row-by-row strawman, the
per-worker workset store, and the two-phase (block id, offset) sampling
index.  Row partitioning for the RowSGD baselines lives here too.
"""

from repro.partition.column import (
    ColumnAssignment,
    RoundRobinAssignment,
    RangeAssignment,
    HashAssignment,
    make_assignment,
)
from repro.partition.workset import Workset, WorksetStore
from repro.partition.row import RowPartitioner
from repro.partition.indexing import Draws, TwoPhaseIndex
from repro.partition.dispatch import (
    LoadReport,
    dispatch_block_based,
    dispatch_naive,
    load_row_partitioned,
)

__all__ = [
    "ColumnAssignment",
    "RoundRobinAssignment",
    "RangeAssignment",
    "HashAssignment",
    "make_assignment",
    "Workset",
    "WorksetStore",
    "RowPartitioner",
    "Draws",
    "TwoPhaseIndex",
    "LoadReport",
    "dispatch_block_based",
    "dispatch_naive",
    "load_row_partitioned",
]
