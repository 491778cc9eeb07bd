"""Batched campaigns: many inputs per call of the lock-step engine.

:class:`BatchedHDTest` is :class:`~repro.fuzz.fuzzer.HDTest` with one
difference, in :meth:`BatchedHDTest.fuzz`: the whole input list goes
through :meth:`~repro.fuzz.fuzzer.HDTest.fuzz_outcomes` at once, each
input with its own child generator spawned from the root (the *shared
RNG discipline* of the batched and process executors), instead of one
input at a time with one threaded generator.  The Alg. 1 loop, the
fused encode paths and the dedupe caches are all the inherited engine's
(see :mod:`repro.fuzz.fuzzer`), so per-input outcomes equal
:meth:`~repro.fuzz.fuzzer.HDTest.fuzz_one` calls under the same
spawned generators.

Fuzzing a K-member :class:`~repro.fuzz.targets.ModelEnsembleTarget`
this way runs all K models lock-step over the same child blocks — K
fused encodes and K fused AM queries per iteration — which is what
makes cross-model differential campaigns cost ≈ K single-model
campaigns (``benchmarks/bench_ensemble_fuzzing.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.fuzz.fuzzer import HDTest, _CachePool  # noqa: F401 - also exported here
from repro.fuzz.results import CampaignResult
from repro.utils.rng import RngLike

__all__ = ["BatchedHDTest"]


class BatchedHDTest(HDTest):
    """Lock-step batched variant of :class:`~repro.fuzz.fuzzer.HDTest`.

    Accepts the same constructor arguments, including ``domain``.  Any
    registered modality batches: inputs are converted to the domain's
    internal array representation (strings become uint8 code rows) and
    must share one shape/length per call.

    Examples
    --------
    >>> from repro.datasets import load_digits
    >>> from repro.hdc import PixelEncoder, HDCClassifier
    >>> from repro.fuzz import BatchedHDTest
    >>> train, test = load_digits(n_train=300, n_test=20, seed=3)
    >>> model = HDCClassifier(PixelEncoder(dimension=2048, rng=3), 10)
    >>> _ = model.fit(train.images, train.labels)
    >>> result = BatchedHDTest(model, "gauss", rng=0).fuzz(test.images[:5])
    >>> result.n_inputs
    5
    """

    def fuzz(self, inputs: Sequence[Any], *, rng: RngLike = None) -> CampaignResult:
        """Fuzz every input in lock-step; aggregated :class:`CampaignResult`.

        Note the RNG discipline differs from the sequential
        :meth:`HDTest.fuzz` (which threads one generator through inputs
        sequentially): here each input gets an independent child
        generator spawned from *rng*, so outcomes match per-input
        :meth:`HDTest.fuzz_one` calls under the same spawning.
        """
        return self._campaign(
            lambda: self.fuzz_outcomes(inputs, rng=rng), executor="batched"
        )
