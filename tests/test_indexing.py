"""Unit tests for the two-phase sampling index."""

import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition import Draws, TwoPhaseIndex
from repro.utils.rng import iteration_seed, rng_from_seed


class TestTwoPhaseIndex:
    @pytest.fixture
    def index(self):
        return TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=7)

    def test_row_count(self, index):
        assert index.n_rows == 25
        assert index.n_blocks == 3

    def test_deterministic_across_callers(self, index):
        other = TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=7)
        assert index.sample(3, 20) == other.sample(3, 20)

    def test_different_iterations_differ(self, index):
        assert index.sample(0, 20) != index.sample(1, 20)

    def test_different_seeds_differ(self, index):
        other = TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=8)
        assert index.sample(0, 20) != other.sample(0, 20)

    def test_draws_in_range(self, index):
        sizes = {0: 10, 1: 10, 2: 5}
        for block_id, offset in index.sample(0, 200):
            assert block_id in sizes
            assert 0 <= offset < sizes[block_id]

    def test_rows_approximately_uniform(self):
        index = TwoPhaseIndex({0: 50, 1: 50}, base_seed=1)
        counts = np.zeros(100)
        for t in range(60):
            rows = index.to_global_rows(index.sample(t, 100))
            np.add.at(counts, rows, 1)
        # 6000 draws over 100 rows: each row ~60 expected
        assert counts.min() > 20
        assert counts.max() < 120

    def test_block_weighting_by_size(self):
        index = TwoPhaseIndex({0: 90, 1: 10}, base_seed=2)
        draws = index.sample(0, 2000)
        share_big = sum(1 for b, _ in draws if b == 0) / len(draws)
        assert 0.85 < share_big < 0.95

    def test_to_global_rows(self, index):
        assert index.to_global_rows([(0, 3)]).tolist() == [3]
        assert index.to_global_rows([(1, 0)]).tolist() == [10]
        assert index.to_global_rows([(2, 4)]).tolist() == [24]

    def test_to_global_rows_validation(self, index):
        with pytest.raises(PartitionError, match="unknown block"):
            index.to_global_rows([(9, 0)])
        with pytest.raises(PartitionError, match="offset"):
            index.to_global_rows([(2, 5)])

    def test_empty_layout_rejected(self):
        with pytest.raises(PartitionError):
            TwoPhaseIndex({})

    def test_zero_size_block_rejected(self):
        with pytest.raises(PartitionError):
            TwoPhaseIndex({0: 0})

    def test_batch_size_positive(self, index):
        with pytest.raises(ValueError):
            index.sample(0, 0)

    def test_repeat_call_returns_the_same_draws_object(self, index):
        """Co-hosted workers sample the same iteration one after another;
        the second call hands back the first call's immutable Draws."""
        first = index.sample(4, 30)
        assert index.sample(4, 30) is first

    def test_new_arguments_draw_again(self, index):
        first = index.sample(4, 30)
        later = index.sample(5, 30)
        assert later is not first
        assert index.sample(5, 20) is not later
        assert index.sample(4, 30) is not first  # the memo holds one entry
        assert index.sample(4, 30) == first

    def test_memoised_draws_are_bit_equal_to_a_fresh_index(self, index):
        fresh = TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=7)
        for t in (0, 0, 1, 1, 1, 0, 7, 7):
            got, expected = index.sample(t, 25), fresh.sample(t, 25)
            np.testing.assert_array_equal(got.block_ids, expected.block_ids)
            np.testing.assert_array_equal(got.offsets, expected.offsets)
            fresh = TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=7)

    def test_memo_is_left_out_of_pickled_state(self, index):
        unsampled = pickle.dumps(index)
        draws = index.sample(2, 50)
        assert pickle.dumps(index) == unsampled
        assert pickle.loads(unsampled).sample(2, 50) == draws

    @given(
        sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=40),
        seed=st.integers(0, 2**63 - 1),
        iteration=st.integers(0, 10_000),
        batch=st.integers(1, 3000),
    )
    @settings(max_examples=100, deadline=None)
    def test_sample_matches_the_per_draw_reference(self, sizes, seed, iteration, batch):
        """Array-backed draws equal the old per-draw tuples from
        ``Generator.choice`` + ``Generator.integers``, bit for bit."""
        layout = dict(enumerate(sizes))
        rng = rng_from_seed(iteration_seed(seed, iteration))
        sizes = np.asarray(sizes)
        block_pos = rng.choice(sizes.size, size=batch, p=sizes / sizes.sum())
        offsets = rng.integers(0, sizes[block_pos])
        expected = [(int(b), int(o)) for b, o in zip(block_pos, offsets)]
        draws = TwoPhaseIndex(layout, base_seed=seed).sample(iteration, batch)
        assert list(draws) == expected

    def test_to_global_rows_accepts_draws_and_pairs(self, index):
        draws = index.sample(2, 40)
        expected = [index.to_global_rows([pair])[0] for pair in draws]
        assert index.to_global_rows(draws).tolist() == expected
        assert index.to_global_rows(list(draws)).tolist() == expected
        assert index.to_global_rows([]).tolist() == []

    def test_to_global_rows_rejects_negative_offsets(self, index):
        with pytest.raises(PartitionError, match="offset -1"):
            index.to_global_rows([(0, 0), (1, -1)])


class TestDraws:
    def test_len_and_iteration_yield_python_int_pairs(self):
        draws = Draws([3, 1, 3], [0, 2, 0])
        assert len(draws) == 3
        pairs = list(draws)
        assert pairs == [(3, 0), (1, 2), (3, 0)]
        assert all(type(v) is int for pair in pairs for v in pair)

    def test_equality(self):
        draws = Draws([3, 1], [0, 2])
        assert draws == Draws(np.array([3, 1]), np.array([0, 2]))
        assert draws != Draws([3, 1], [0, 1])
        assert draws != Draws([1, 3], [0, 2])
        assert draws != Draws([3], [0])
        assert draws != [(3, 0), (1, 2)]  # only a Draws equals a Draws

    def test_arrays_are_read_only_int64_copies(self):
        block_ids = np.array([0, 1], dtype=np.int32)
        draws = Draws(block_ids, [5, 6])
        assert draws.block_ids.dtype == np.int64
        assert draws.offsets.dtype == np.int64
        with pytest.raises(ValueError):
            draws.block_ids[0] = 9
        with pytest.raises(ValueError):
            draws.offsets[0] = 9
        block_ids[0] = 7  # the caller's array stays its own
        assert draws.block_ids.tolist() == [0, 1]

    def test_fields_cannot_be_rebound(self):
        draws = Draws([0], [0])
        with pytest.raises(FrozenInstanceError):
            draws.offsets = np.array([1])

    def test_sampled_draws_are_read_only(self):
        draws = TwoPhaseIndex({0: 4, 1: 4}, base_seed=1).sample(0, 8)
        assert isinstance(draws, Draws)
        assert not draws.block_ids.flags.writeable
        assert not draws.offsets.flags.writeable

    def test_of_empty_list(self):
        draws = Draws.of([])
        assert len(draws) == 0
        assert list(draws) == []
        assert draws.block_ids.dtype == np.int64

    def test_of_pairs(self):
        draws = Draws.of([(2, 1), (0, 3), (np.int64(2), np.int32(0))])
        assert draws == Draws([2, 0, 2], [1, 3, 0])
        assert Draws.of(iter([(1, 1)])) == Draws([1], [1])

    def test_of_returns_draws_unchanged(self):
        draws = Draws([1], [2])
        assert Draws.of(draws) is draws

    @pytest.mark.parametrize(
        "bad",
        [
            [(0, 1), (2,)],  # ragged
            [(0, 1, 2)],  # 3-tuple
            [(0,)],
            [0, 1],  # not pairs at all
            [(0, 1.5)],  # non-integer offset
            [(0.0, 1.0)],
            [("a", 1)],
            [(0, 2**70)],  # beyond int64
        ],
    )
    def test_malformed_pairs_raise_partition_error(self, bad):
        with pytest.raises(PartitionError):
            Draws.of(bad)

    def test_mismatched_columns_raise_partition_error(self):
        with pytest.raises(PartitionError, match="block ids"):
            Draws([0, 1], [0])
        with pytest.raises(PartitionError, match="1-D"):
            Draws([[0, 1]], [[0, 1]])
        with pytest.raises(PartitionError, match="integers"):
            Draws([0.5], [1])
