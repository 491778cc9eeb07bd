"""Seed pool: the survivors that fuel the next fuzzing iteration.

Alg. 1, Line 14: "Continue fuzzing using only the fittest seeds" —
"during the mutation process, only the top-N fittest seeds can survive
(in our experiments, N = 3)".  :class:`SeedPool` holds the current
survivors with their fitness scores and performs that top-N selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generic, Iterator, Sequence, TypeVar

import numpy as np

from repro.errors import FuzzingError
from repro.utils.validation import check_positive_int

__all__ = ["Seed", "SeedPool", "SeedPoolBatch"]

T = TypeVar("T")


@dataclass(frozen=True)
class Seed(Generic[T]):
    """One candidate input with its fitness and lineage depth.

    Attributes
    ----------
    data:
        The input in its domain's internal array form (pixel grid,
        alphabet-code row, feature record).
    fitness:
        Score assigned by the fitness function (higher survives).
    generation:
        Fuzzing iteration at which this seed was created (0 = the
        original input).
    accumulator:
        Optional integer encoder accumulator of this seed, carried so
        the seed's children can be delta-encoded from it (mirrors
        :class:`SeedPoolBatch`'s side arrays).  Ensemble targets store
        one accumulator row per member, ``(K, D)``.
    levels:
        Optional quantised levels of this seed, idem.
    """

    data: T
    fitness: float
    generation: int = 0
    accumulator: Any = None
    levels: Any = None


class SeedPool(Generic[T]):
    """Keeps the top-N fittest seeds across fuzzing iterations.

    Parameters
    ----------
    top_n:
        Pool capacity (the paper's N = 3).
    """

    def __init__(self, top_n: int = 3) -> None:
        self._top_n = check_positive_int(top_n, "top_n")
        self._seeds: list[Seed[T]] = []

    @property
    def top_n(self) -> int:
        """Pool capacity."""
        return self._top_n

    @property
    def seeds(self) -> list[Seed[T]]:
        """Current survivors, fittest first (copy)."""
        return list(self._seeds)

    def __len__(self) -> int:
        return len(self._seeds)

    def __iter__(self) -> Iterator[Seed[T]]:
        return iter(self._seeds)

    def reset(
        self,
        original: T,
        *,
        accumulator=None,
        levels=None,
    ) -> None:
        """Restart the pool from the original input (generation 0).

        The original gets fitness -inf so any scored child displaces it.
        *accumulator*/*levels* seed the incremental-encoding side data
        (see :class:`Seed`).
        """
        self._seeds = [Seed(original, float("-inf"), 0, accumulator, levels)]

    def update(
        self,
        candidates: Sequence[T],
        fitnesses: Sequence[float],
        *,
        generation: int,
        accumulators=None,
        levels=None,
    ) -> None:
        """Replace pool contents with the top-N of *candidates*.

        Matches Alg. 1: survivors are chosen among the new children (the
        pool is not mixed with previous generations — each iteration's
        children fully replace their parents).  *accumulators*/*levels*
        are optional per-candidate side rows kept with each survivor so
        it can parent delta encodes next iteration.
        """
        scores = np.asarray(fitnesses, dtype=np.float64)
        if len(candidates) != scores.shape[0]:
            raise FuzzingError(
                f"{len(candidates)} candidates but {scores.shape[0]} fitness scores"
            )
        if len(candidates) == 0:
            # Nothing survived the constraint this round; keep current
            # seeds so the next iteration can try different mutations.
            return
        order = np.argsort(-scores, kind="stable")[: self._top_n]
        self._seeds = [
            Seed(
                candidates[int(i)],
                float(scores[int(i)]),
                generation,
                None if accumulators is None else accumulators[int(i)],
                None if levels is None else levels[int(i)],
            )
            for i in order
        ]

    def best(self) -> Seed[T]:
        """The fittest current seed."""
        if not self._seeds:
            raise FuzzingError("seed pool is empty — call reset() first")
        return self._seeds[0]


class SeedPoolBatch:
    """Per-input top-N seed pools held as stacked arrays.

    The batched engine (:class:`repro.fuzz.batch.BatchedHDTest`) runs
    Alg. 1 in lock-step over many inputs; this is the array-of-pools it
    iterates.  Semantically each row *i* behaves exactly like a
    :class:`SeedPool` — survivors are the top-N fittest children of the
    latest generation, fittest first, selected with the same stable
    sort — but storage is one ``(n_inputs, top_n, …)`` block per field
    instead of *n* object pools, and each seed can carry *side arrays*
    (its integer accumulator and quantised levels) that the incremental
    encoder reuses when the seed becomes a parent.

    Parameters
    ----------
    originals:
        ``(n_inputs, …)`` stacked original inputs (generation 0).
    top_n:
        Pool capacity per input (the paper's N = 3).
    accumulators:
        Optional ``(n_inputs, D)`` integer accumulators of the
        originals, kept per surviving seed for delta encoding.
        Ensemble targets stack one accumulator per member —
        ``(n_inputs, K, D)`` — so each member delta-encodes a seed's
        children from its *own* parent accumulator; any trailing shape
        after the input axis is carried through selection untouched.
    levels:
        Optional ``(n_inputs, P)`` (or per-member ``(n_inputs, K, P)``)
        quantised levels of the originals, idem.
    allocator:
        Optional ``(shape, dtype) -> ndarray`` factory for the stacked
        seed-data block (and side blocks).  The member-sharded executor
        passes a :meth:`repro.utils.shm.ShmArena.allocator` here so the
        pool's arrays live in shared memory — survivors are then
        readable by worker processes without any per-iteration pickling.
    """

    def __init__(
        self,
        originals: np.ndarray,
        top_n: int = 3,
        *,
        accumulators: np.ndarray | None = None,
        levels: np.ndarray | None = None,
        allocator=None,
    ) -> None:
        self._top_n = check_positive_int(top_n, "top_n")
        self._allocate = allocator if allocator is not None else np.zeros
        originals = np.asarray(originals)
        if originals.ndim < 2:
            raise FuzzingError(
                f"originals must be a stacked (n_inputs, …) batch, got {originals.shape}"
            )
        n = originals.shape[0]
        self._data = self._allocate(
            (n, self._top_n) + originals.shape[1:], originals.dtype
        )
        self._data[:, 0] = originals
        self._fitness = np.full((n, self._top_n), -np.inf)
        self._generations = np.zeros((n, self._top_n), dtype=np.int64)
        self._counts = np.ones(n, dtype=np.int64)
        self._accs = self._side_block(accumulators, n, "accumulators")
        self._levels = self._side_block(levels, n, "levels")

    def _side_block(self, values, n: int, name: str) -> np.ndarray | None:
        if values is None:
            return None
        values = np.asarray(values)
        if values.ndim < 2 or values.shape[0] != n:
            raise FuzzingError(
                f"{name} must be (n_inputs, …) with one row per input, "
                f"got {values.shape}"
            )
        block = self._allocate((n, self._top_n) + values.shape[1:], values.dtype)
        block[:, 0] = values
        return block

    # -- introspection ---------------------------------------------------
    @property
    def n_inputs(self) -> int:
        """Number of pooled inputs (rows)."""
        return int(self._data.shape[0])

    @property
    def top_n(self) -> int:
        """Pool capacity per input."""
        return self._top_n

    def count(self, i: int) -> int:
        """Number of live seeds for input *i*."""
        return int(self._counts[i])

    def seeds(self, i: int) -> np.ndarray:
        """Live seed data of input *i*, fittest first (array view)."""
        return self._data[i, : self._counts[i]]

    def fitness(self, i: int) -> np.ndarray:
        """Fitness of input *i*'s live seeds, fittest first."""
        return self._fitness[i, : self._counts[i]]

    def generations(self, i: int) -> np.ndarray:
        """Creation generation of input *i*'s live seeds."""
        return self._generations[i, : self._counts[i]]

    def accumulators(self, i: int) -> np.ndarray:
        """Stored accumulators of input *i*'s live seeds."""
        if self._accs is None:
            raise FuzzingError("pool was built without accumulator side arrays")
        return self._accs[i, : self._counts[i]]

    def levels(self, i: int) -> np.ndarray:
        """Stored quantised levels of input *i*'s live seeds."""
        if self._levels is None:
            raise FuzzingError("pool was built without level side arrays")
        return self._levels[i, : self._counts[i]]

    # -- Alg. 1 survival -------------------------------------------------
    def update(
        self,
        i: int,
        children: np.ndarray,
        scores: np.ndarray,
        *,
        generation: int,
        accumulators: np.ndarray | None = None,
        levels: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Replace input *i*'s pool with the top-N of *children*.

        Selection matches :meth:`SeedPool.update` exactly (stable
        descending sort, children fully replace parents); an empty
        candidate set keeps the current seeds, mirroring the sequential
        loop's "nothing survived the constraint" path.

        Returns the survivor selection — child indices, fittest first —
        or ``None`` when the pool was left untouched.  Member-sharded
        workers replay this order against their own per-member side
        arrays, so selection is computed once (parent-side, from the
        fitness scores) and survives identically in every process.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if len(children) != scores.shape[0]:
            raise FuzzingError(
                f"{len(children)} candidates but {scores.shape[0]} fitness scores"
            )
        if len(children) == 0:
            return None
        order = np.argsort(-scores, kind="stable")[: self._top_n]
        k = order.shape[0]
        self._data[i, :k] = children[order]
        self._fitness[i, :k] = scores[order]
        self._generations[i, :k] = generation
        self._counts[i] = k
        if self._accs is not None:
            if accumulators is None:
                raise FuzzingError("pool stores accumulators; update must supply them")
            self._accs[i, :k] = accumulators[order]
        if self._levels is not None:
            if levels is None:
                raise FuzzingError("pool stores levels; update must supply them")
            self._levels[i, :k] = levels[order]
        return order

    def __repr__(self) -> str:
        return (
            f"SeedPoolBatch(n_inputs={self.n_inputs}, top_n={self._top_n}, "
            f"delta={'on' if self._accs is not None else 'off'})"
        )
