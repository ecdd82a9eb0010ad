"""Op-counter semantics and the sparse-kernel edge cases they exposed.

The counters (:mod:`repro.linalg.counters`) are the dynamic check of
the R015/R016 primitive-cost axioms: disabled they must cost nothing
and count nothing; enabled they must accumulate across kernel calls
and never perturb numeric results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import CSRMatrix, OP_COUNTERS, OpCounters, SparseVector
from repro.sim.cost import WORK_LEDGER


@pytest.fixture(autouse=True)
def _quiesce_counters():
    """Leave the process-wide singletons disabled and zeroed."""
    OP_COUNTERS.reset()
    OP_COUNTERS.disable()
    WORK_LEDGER.reset()
    WORK_LEDGER.disable()
    yield
    OP_COUNTERS.reset()
    OP_COUNTERS.disable()
    WORK_LEDGER.reset()
    WORK_LEDGER.disable()


# ----------------------------------------------------------------------
# counter semantics
# ----------------------------------------------------------------------
def test_disabled_counters_stay_zero():
    counters = OpCounters()
    counters.add_flops(10)
    counters.add_alloc(5)
    counters.add_densify(7)
    assert counters.snapshot() == {
        "flops": 0,
        "alloc_elements": 0,
        "densify_events": 0,
        "peak_alloc_elements": 0,
    }


def test_enabled_counters_accumulate():
    counters = OpCounters()
    counters.enable()
    counters.add_flops(10)
    counters.add_flops(3)
    counters.add_alloc(5)
    counters.add_densify(100)
    snap = counters.snapshot()
    assert snap["flops"] == 13
    assert snap["alloc_elements"] == 105  # densify bytes count as allocs
    assert snap["densify_events"] == 1
    assert snap["peak_alloc_elements"] == 100


def test_reset_zeroes_but_preserves_enabled_state():
    counters = OpCounters()
    counters.enable()
    counters.add_flops(4)
    counters.reset()
    assert counters.snapshot()["flops"] == 0
    counters.add_flops(2)
    assert counters.snapshot()["flops"] == 2  # still enabled after reset


def test_singleton_records_kernel_work():
    OP_COUNTERS.enable()
    v = SparseVector(np.array([1, 5]), np.array([2.0, 3.0]), dim=10)
    dense = np.ones(10)
    v.dot(dense)
    snap = OP_COUNTERS.snapshot()
    assert snap["flops"] >= 2 * v.nnz
    assert snap["densify_events"] == 0


def test_to_dense_counts_a_densify_event():
    OP_COUNTERS.enable()
    v = SparseVector(np.array([0]), np.array([1.0]), dim=1000)
    v.to_dense()
    snap = OP_COUNTERS.snapshot()
    assert snap["densify_events"] == 1
    assert snap["peak_alloc_elements"] >= 1000


def test_counters_never_change_numerics():
    v = SparseVector(np.array([2, 7]), np.array([1.5, -2.0]), dim=12)
    dense = np.arange(12, dtype=np.float64)
    quiet = v.dot(dense)
    OP_COUNTERS.enable()
    counted = v.dot(dense)
    assert counted == quiet


def test_work_ledger_records_and_resets():
    WORK_LEDGER.enable()
    WORK_LEDGER.record_sparse(100)
    WORK_LEDGER.record_dense(40)
    snap = WORK_LEDGER.snapshot()
    assert snap["sparse_units"] == 100
    assert snap["dense_units"] == 40
    WORK_LEDGER.reset()
    assert WORK_LEDGER.snapshot()["sparse_units"] == 0
    WORK_LEDGER.disable()
    WORK_LEDGER.record_sparse(5)
    assert WORK_LEDGER.snapshot()["sparse_units"] == 0


# ----------------------------------------------------------------------
# sparse-kernel edge cases
# ----------------------------------------------------------------------
def test_sparse_vector_dim_zero():
    v = SparseVector.empty(0)
    assert v.dim == 0
    assert v.nnz == 0
    assert v.to_dense().shape == (0,)
    assert v.dot(np.zeros(0)) == 0.0


def test_sparse_vector_all_zero_construction():
    v = SparseVector.from_dense(np.zeros(8))
    assert v.nnz == 0
    assert v.norm_sq() == 0.0
    assert np.array_equal(v.to_dense(), np.zeros(8))


def test_sparse_vector_to_dense_round_trip():
    dense = np.zeros(16)
    dense[[3, 9, 15]] = [1.0, -2.5, 4.0]
    v = SparseVector.from_dense(dense)
    assert np.array_equal(v.to_dense(), dense)
    again = SparseVector.from_dense(v.to_dense())
    assert again == v


def test_csr_zero_column_matrix():
    m = CSRMatrix.empty(3, 0)
    assert m.shape == (3, 0)
    assert m.nnz == 0
    assert m.to_dense().shape == (3, 0)


def test_csr_all_zero_rows_round_trip():
    rows = [SparseVector.empty(5) for _ in range(4)]
    m = CSRMatrix.from_rows(rows, n_cols=5)
    assert m.nnz == 0
    assert np.array_equal(m.to_dense(), np.zeros((4, 5)))
    assert CSRMatrix.from_dense(m.to_dense()) == m


def test_csr_to_dense_round_trip_counts_once_per_call():
    dense = np.zeros((2, 6))
    dense[0, 1] = 3.0
    dense[1, 4] = -1.0
    m = CSRMatrix.from_dense(dense)
    OP_COUNTERS.enable()
    assert np.array_equal(m.to_dense(), dense)
    assert np.array_equal(m.to_dense(), dense)
    assert OP_COUNTERS.snapshot()["densify_events"] == 2


# ----------------------------------------------------------------------
# pinned allocation counts of the batch gathers
# ----------------------------------------------------------------------
def test_take_rows_alloc_count_is_pinned():
    matrix = CSRMatrix.from_dense(
        np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 5.0]])
    )
    OP_COUNTERS.enable()
    taken = matrix.take_rows([2, 0, 2, 1])
    assert taken.nnz == 8
    # indices + data + the source index
    assert OP_COUNTERS.alloc_elements == 3 * 8


def test_assemble_batch_alloc_count_is_pinned():
    from repro.partition import Workset, WorksetStore

    store = WorksetStore(worker_id=0, local_dim=3)
    store.put(Workset(0, CSRMatrix.from_dense(
        np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 5.0]])
    ), np.ones(3)))
    store.put(Workset(1, CSRMatrix.from_dense(
        np.array([[0.0, 6.0, 0.0], [7.0, 0.0, 8.0]])
    ), -np.ones(2)))
    OP_COUNTERS.enable()
    features, _ = store.assemble_batch([(0, 2), (1, 1), (0, 0), (1, 0), (0, 1)])
    # block 0 gives 3 + 2 + 0 entries, block 1 gives 2 + 1
    assert features.nnz == 8
    # indices + data, the src and dst indexes (4 x nnz), and the two
    # gather buffers sized to the widest block (2 x 5).  The three-copy
    # assembly (take_rows per block, vstack, take_rows back to draw
    # order) allocated 6 x nnz = 48.
    assert OP_COUNTERS.alloc_elements == 4 * 8 + 2 * 5
