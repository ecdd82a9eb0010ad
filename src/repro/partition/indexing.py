"""Two-phase mini-batch sampling index (Section IV-A2).

Sampling a row happens in two draws sharing a deterministic per-iteration
seed: first a block id (weighted by block size so rows stay uniform),
then an ordinal offset inside that block.  Because the seed is a pure
function of (base seed, iteration), every worker — and the master —
materialises the identical draw sequence without any communication,
which is what lets column shards of the same logical row line up across
the cluster.  A batch's draws travel as one :class:`Draws` value: two
read-only int64 arrays, so batch assembly gathers rows without a Python
loop per draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import PartitionError
from repro.utils.rng import iteration_seed, rng_from_seed
from repro.utils.validation import check_positive


def _draw_column(values, name: str) -> np.ndarray:
    """A fresh read-only int64 copy of one draw column."""
    column = np.array(values)
    if column.ndim != 1:
        raise PartitionError(
            "draw {} must be 1-D, got shape {}".format(name, column.shape)
        )
    if column.size and column.dtype.kind not in "iu":
        raise PartitionError(
            "draw {} must be integers, got dtype {}".format(name, column.dtype)
        )
    column = column.astype(np.int64)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Draws:
    """The ``(block_id, offset)`` draws of one mini-batch, in draw order.

    Holds two read-only int64 arrays of equal length.  Iterating yields
    ``(int, int)`` pairs, so code written against a list of tuples keeps
    working; :meth:`of` turns such a list back into a ``Draws``.
    """

    block_ids: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        block_ids = _draw_column(self.block_ids, "block_ids")
        offsets = _draw_column(self.offsets, "offsets")
        if block_ids.size != offsets.size:
            raise PartitionError(
                "draws have {} block ids but {} offsets".format(
                    block_ids.size, offsets.size
                )
            )
        object.__setattr__(self, "block_ids", block_ids)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def of(cls, draws: Union["Draws", Iterable[Tuple[int, int]]]) -> "Draws":
        """``draws`` itself, or a list of ``(block_id, offset)`` pairs as Draws."""
        if isinstance(draws, Draws):
            return draws
        pairs = list(draws)
        if not pairs:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        try:
            table = np.array(pairs)
        except (ValueError, TypeError, OverflowError) as exc:
            raise PartitionError(
                "draws must be (block_id, offset) pairs: {}".format(exc)
            ) from exc
        if table.ndim != 2 or table.shape[1] != 2:
            raise PartitionError(
                "draws must be (block_id, offset) pairs, got shape {}".format(
                    table.shape
                )
            )
        return cls(table[:, 0], table[:, 1])

    def __len__(self) -> int:
        return int(self.block_ids.size)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.block_ids.tolist(), self.offsets.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Draws):
            return NotImplemented
        return np.array_equal(self.block_ids, other.block_ids) and np.array_equal(
            self.offsets, other.offsets
        )


class TwoPhaseIndex:
    """Deterministic (block id, offset) sampler over a block layout.

    Parameters
    ----------
    block_sizes:
        ``{block_id: n_rows}`` — must agree across all workers (they all
        received worksets of the same blocks).
    base_seed:
        Job-level seed; combined with the iteration number via SplitMix64.
    """

    def __init__(self, block_sizes: Dict[int, int], base_seed: int = 0):
        if not block_sizes:
            raise PartitionError("cannot index an empty block layout")
        self._block_ids = np.asarray(sorted(block_sizes), dtype=np.int64)
        self._sizes = np.asarray(
            [block_sizes[int(b)] for b in self._block_ids], dtype=np.int64
        )
        if np.any(self._sizes <= 0):
            raise PartitionError("all blocks must have at least one row")
        weights = self._sizes / self._sizes.sum()
        # Generator.choice(n, p=weights) draws searchsorted(cdf, random(),
        # side="right") over this normalised cdf; precomputing it skips
        # choice's per-call validation of p, with identical draws.
        self._cdf = weights.cumsum()
        self._cdf /= self._cdf[-1]
        self._cum_sizes = np.concatenate([[0], np.cumsum(self._sizes)])
        self.base_seed = int(base_seed)
        #: last ``(iteration, batch_size)`` sampled and its draws
        self._memo: Optional[Tuple[Tuple[int, int], Draws]] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_memo"] = None  # a cache, not state: never ship it
        return state

    @property
    def n_rows(self) -> int:
        """Total rows across all blocks."""
        return int(self._sizes.sum())

    @property
    def n_blocks(self) -> int:
        """Number of indexed blocks."""
        return int(self._block_ids.size)

    def sample(self, iteration: int, batch_size: int) -> Draws:
        """Draw ``batch_size`` (block id, offset) pairs for ``iteration``.

        Deterministic: the same (base_seed, iteration) yields the same
        draws on every caller.  Rows are sampled with replacement,
        uniformly over the logical dataset.  The last call's draws are
        kept, so co-hosted workers asking for the same iteration share
        one immutable :class:`Draws` instead of drawing it again.
        """
        key = (iteration, batch_size)
        if self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        check_positive(batch_size, "batch_size")
        rng = rng_from_seed(iteration_seed(self.base_seed, iteration))
        block_pos = self._cdf.searchsorted(rng.random(batch_size), side="right")
        offsets = rng.integers(0, self._sizes[block_pos])
        draws = Draws(self._block_ids[block_pos], offsets)
        self._memo = (key, draws)
        return draws

    def to_global_rows(
        self, draws: Union[Draws, Iterable[Tuple[int, int]]]
    ) -> np.ndarray:
        """Convert draws into global row ids (blocks laid out in id order).

        Only valid when block ids map to contiguous ranges of the source
        dataset in ascending order — true for the dispatcher's layout.
        Used by equivalence tests and by the driver's loss evaluation.
        """
        draws = Draws.of(draws)
        pos = np.searchsorted(self._block_ids, draws.block_ids)
        pos = np.minimum(pos, self._block_ids.size - 1)
        unknown = self._block_ids[pos] != draws.block_ids
        if unknown.any():
            raise PartitionError(
                "unknown block id {}".format(draws.block_ids[unknown.argmax()])
            )
        bad = (draws.offsets < 0) | (draws.offsets >= self._sizes[pos])
        if bad.any():
            i = bad.argmax()
            raise PartitionError(
                "offset {} out of range for block {}".format(
                    draws.offsets[i], draws.block_ids[i]
                )
            )
        return self._cum_sizes[pos] + draws.offsets
