"""Unit tests for Workset and WorksetStore."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import PartitionError
from repro.linalg import CSRMatrix
from repro.partition import Draws, Workset, WorksetStore


def make_workset(block_id, n_rows=4, n_cols=6, seed=0):
    rng = np.random.default_rng(seed + block_id)
    dense = rng.normal(size=(n_rows, n_cols))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    return Workset(block_id, CSRMatrix.from_dense(dense), rng.choice([-1.0, 1.0], n_rows))


class TestWorkset:
    def test_label_length_checked(self):
        with pytest.raises(PartitionError):
            Workset(0, CSRMatrix.empty(3, 2), np.zeros(2))

    def test_serialized_bytes_positive(self):
        ws = make_workset(0)
        assert ws.serialized_bytes() > 0
        assert ws.n_rows == 4


class TestWorksetStore:
    @pytest.fixture
    def store(self):
        store = WorksetStore(worker_id=1, local_dim=6)
        for b in range(3):
            store.put(make_workset(b))
        return store

    def test_put_rejects_wrong_dim(self):
        store = WorksetStore(0, local_dim=4)
        with pytest.raises(PartitionError, match="columns"):
            store.put(make_workset(0, n_cols=6))

    def test_put_rejects_duplicates(self, store):
        with pytest.raises(PartitionError, match="duplicate"):
            store.put(make_workset(1))

    def test_get_missing(self, store):
        with pytest.raises(PartitionError, match="no workset"):
            store.get(99)

    def test_block_bookkeeping(self, store):
        assert store.block_ids() == [0, 1, 2]
        assert store.block_sizes() == {0: 4, 1: 4, 2: 4}
        assert store.n_rows == 12
        assert store.nnz > 0
        assert store.stored_bytes() > 0

    def test_assemble_batch_order(self, store):
        draws = [(2, 1), (0, 3), (2, 0), (0, 3)]
        features, labels = store.assemble_batch(draws)
        assert features.shape == (4, 6)
        expected = [
            store.get(2).labels[1],
            store.get(0).labels[3],
            store.get(2).labels[0],
            store.get(0).labels[3],
        ]
        assert labels.tolist() == expected
        assert np.array_equal(
            features.to_dense()[0], store.get(2).features.to_dense()[1]
        )

    def test_assemble_empty(self, store):
        features, labels = store.assemble_batch([])
        assert features.shape == (0, 6)
        assert labels.size == 0

    def test_assemble_bad_offset(self, store):
        with pytest.raises(PartitionError, match="offset"):
            store.assemble_batch([(0, 10)])

    def test_clear(self, store):
        store.clear()
        assert store.n_rows == 0
        assert store.block_ids() == []

    def test_assemble_unknown_block(self, store):
        with pytest.raises(PartitionError, match="no workset for block 7"):
            store.assemble_batch([(0, 1), (7, 0)])

    def test_assemble_negative_offset(self, store):
        with pytest.raises(PartitionError, match="offset"):
            store.assemble_batch([(1, 0), (1, -1)])

    @pytest.mark.parametrize(
        "bad", [[(0, 1), (2,)], [(0, 1, 2)], [(0, 0.5)], [("x", 0)]]
    )
    def test_assemble_malformed_draws(self, store, bad):
        with pytest.raises(PartitionError):
            store.assemble_batch(bad)

    def test_assemble_accepts_draws(self, store):
        draws = [(2, 1), (0, 3), (2, 0), (0, 3)]
        from_pairs = store.assemble_batch(draws)
        from_draws = store.assemble_batch(Draws.of(draws))
        assert from_draws[0] == from_pairs[0]
        assert np.array_equal(from_draws[1], from_pairs[1])


def per_draw_reference(store, draws):
    """The batch as one single-row slice per draw, stacked in draw order."""
    rows = [store.get(b).features.slice_rows(o, o + 1) for b, o in draws]
    labels = np.array([store.get(b).labels[o] for b, o in draws], dtype=np.float64)
    return CSRMatrix.vstack(rows), labels


@st.composite
def stores_with_draws(draw):
    """A store over random, unsorted block ids, plus draws with repeats."""
    n_cols = draw(st.integers(1, 8))
    block_ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True))
    store = WorksetStore(worker_id=0, local_dim=n_cols)
    sizes = {}
    for block_id in block_ids:  # insertion order is not id order
        n_rows = draw(st.integers(1, 6))
        dense = draw(
            arrays(
                np.float64,
                (n_rows, n_cols),
                elements=st.sampled_from([0.0, 0.0, 1.5, -2.25, 3.0e-7]),
            )
        )
        labels = draw(arrays(np.float64, n_rows, elements=st.sampled_from([-1.0, 1.0])))
        store.put(Workset(block_id, CSRMatrix.from_dense(dense), labels))
        sizes[block_id] = n_rows
    pairs = draw(
        st.lists(
            st.sampled_from(block_ids).flatmap(
                lambda b: st.tuples(st.just(b), st.integers(0, sizes[b] - 1))
            ),
            max_size=25,
        )
    )
    return store, pairs


class TestAssembleBatchProperties:
    @given(stores_with_draws())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_draw_reference_bit_for_bit(self, case):
        store, pairs = case
        features, labels = store.assemble_batch(pairs)
        expected_features, expected_labels = (
            per_draw_reference(store, pairs)
            if pairs
            else (CSRMatrix.empty(0, store.local_dim), np.empty(0))
        )
        assert np.array_equal(features.indptr, expected_features.indptr)
        assert np.array_equal(features.indices, expected_features.indices)
        assert np.array_equal(features.data, expected_features.data)
        assert features.shape == expected_features.shape
        assert np.array_equal(labels, expected_labels)

    @given(stores_with_draws(), st.integers(0, 24), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bad_offset_raises(self, case, at, below):
        store, pairs = case
        assume(pairs)
        block_id, _ = pairs[at % len(pairs)]
        bad = -1 if below else store.get(block_id).n_rows
        pairs = list(pairs)
        pairs[at % len(pairs)] = (block_id, bad)
        with pytest.raises(PartitionError, match="offset"):
            store.assemble_batch(pairs)

    @given(stores_with_draws(), st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_unknown_block_raises(self, case, at):
        store, pairs = case
        pairs = list(pairs)
        pairs.insert(at % (len(pairs) + 1), (61, 0))  # ids are drawn from 0..60
        with pytest.raises(PartitionError, match="no workset"):
            store.assemble_batch(pairs)
