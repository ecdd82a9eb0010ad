"""Property tests for ``CSRMatrix.take_rows``, the row-gather primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg import CSRMatrix
from repro.linalg.csr import concat_ranges


def per_row_reference(matrix, row_ids):
    """The gather as one copy loop per row (the definition)."""
    indptr = [0]
    indices, data = [], []
    for i in row_ids:
        start, stop = matrix.indptr[i], matrix.indptr[i + 1]
        indices.extend(matrix.indices[start:stop].tolist())
        data.extend(matrix.data[start:stop].tolist())
        indptr.append(len(indices))
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(data, dtype=np.float64),
    )


@st.composite
def matrices_with_ids(draw):
    """A sparse matrix with empty rows likely, and row ids with repeats."""
    n_rows = draw(st.integers(1, 9))
    n_cols = draw(st.integers(1, 9))
    dense = draw(
        arrays(
            np.float64,
            (n_rows, n_cols),
            elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, -0.5, 7.25e-9]),
        )
    )
    ids = draw(st.lists(st.integers(0, n_rows - 1), max_size=20))
    return CSRMatrix.from_dense(dense), ids


class TestTakeRowsProperties:
    @given(matrices_with_ids())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_reference(self, case):
        matrix, ids = case
        taken = matrix.take_rows(ids)
        indptr, indices, data = per_row_reference(matrix, ids)
        assert taken.shape == (len(ids), matrix.n_cols)
        assert np.array_equal(taken.indptr, indptr)
        assert np.array_equal(taken.indices, indices)
        assert np.array_equal(taken.data, data)

    @given(matrices_with_ids(), st.integers(1, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_out_of_range_ids_raise_index_error(self, case, past, below):
        matrix, ids = case
        bad = -past if below else matrix.n_rows - 1 + past
        with pytest.raises(IndexError):
            matrix.take_rows(ids + [bad])

    def test_repeated_and_empty_rows(self):
        matrix = CSRMatrix.from_dense(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        )
        taken = matrix.take_rows([0, 1, 1, 2, 0])
        assert taken.indptr.tolist() == [0, 0, 2, 4, 4, 4]
        assert taken.indices.tolist() == [0, 2, 0, 2]
        assert taken.data.tolist() == [1.0, 2.0, 1.0, 2.0]

    def test_empty_id_list(self):
        matrix = CSRMatrix.from_dense(np.eye(3))
        taken = matrix.take_rows([])
        assert taken.shape == (0, 3)
        assert taken.nnz == 0
        assert taken.indptr.tolist() == [0]

    def test_result_owns_its_arrays(self):
        matrix = CSRMatrix.from_dense(np.eye(3))
        taken = matrix.take_rows([1])
        taken.data[0] = 5.0
        assert matrix.data.tolist() == [1.0, 1.0, 1.0]


class TestConcatRanges:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_equals_concatenated_aranges(self, pairs):
        starts = np.array([s for s, _ in pairs], dtype=np.int64)
        lengths = np.array([n for _, n in pairs], dtype=np.int64)
        expected = [v for s, n in pairs for v in range(s, s + n)]
        got = concat_ranges(starts, lengths)
        assert got.dtype == np.int64
        assert got.tolist() == expected

    def test_backward_jumps_and_empty_ranges(self):
        got = concat_ranges(np.array([5, 9, 0, 2]), np.array([2, 0, 3, 1]))
        assert got.tolist() == [5, 6, 0, 1, 2, 2]
