"""The HDTest fuzzing engine (Sec. IV, Alg. 1) — domain- and target-generic.

For each unlabeled input ``t`` (an image, a string, a feature
record — any registered :mod:`fuzzing domain <repro.fuzz.domains>`):

1. ``y = HDC(t)`` — the target's prediction on the unmutated input
   becomes the *reference* (differential testing: no manual labeling).
2. Repeat up to ``iter_times``:
   a. mutate every surviving seed into ``children_per_seed`` children;
   b. clip children into the valid input space and discard those whose
      perturbation (relative to the *original* ``t``) exceeds the
      distance budget;
   c. encode the survivors once, predict, and check the differential
      oracle: a discrepancy is a successful adversarial input —
      record it and stop;
   d. otherwise score children with the fitness function and keep the
      top-N fittest as next iteration's seeds.

:meth:`HDTest.fuzz_outcomes` is the one implementation of this loop.
It runs a whole batch of inputs in lock-step: each iteration mutates
every active input's seeds, then issues **one fused encode and one
fused predict per target member** over all of their children, and an
input retires the moment its oracle flips, so per-input iteration
counts are those of the paper's per-input loop.  Every schedule is
this loop:

* :meth:`HDTest.fuzz_one` / :meth:`HDTest.fuzz` — batch size 1, with
  one generator threaded through the inputs in order (the serial
  executor and the CLI default);
* :class:`~repro.fuzz.batch.BatchedHDTest` — many inputs per call,
  one spawned generator per input (the batched and process executors);
* :class:`~repro.fuzz.member_sharded.MemberShardedHDTest` — the same
  loop with the per-member encode + query step run by one worker
  process per ensemble member (it overrides the loop's three seams:
  the reference pass, the per-iteration evaluation, and the survivor
  commit).

Because every input owns its generator, an input's outcome does not
depend on which other inputs share its batch::

    generators = spawn(seed, len(inputs))
    HDTest(model, "gauss").fuzz_outcomes(inputs, generators=generators)
    ==  [HDTest(model, "gauss").fuzz_one(x, rng=g)
         for x, g in zip(inputs, generators)]

(property-tested in ``tests/fuzz/test_batch.py`` for images and
``tests/fuzz/test_cross_modality.py`` for text and records).

The *system under test* is a
:class:`~repro.fuzz.targets.PredictionTarget` — either one classifier
(:class:`~repro.fuzz.targets.SingleModelTarget`, the paper's
self-differential setting: the reference is the model's own label, a
discrepancy is any flip away from it, and the guided fitness is
``1 − Cosim(AM[y], HDC(seed))``) or a K-member
:class:`~repro.fuzz.targets.ModelEnsembleTarget` (the HDXplore
setting: the reference is the members' vote on the original, a
discrepancy is cross-model disagreement — or a majority flip, with
:class:`~repro.fuzz.oracle.MajorityOracle` — and the guided fitness is
the ensemble's
:class:`~repro.fuzz.fitness.AgreementMarginFitness`).  Inputs the
members already disagree on are *seed discrepancies*, reported as
iteration-0 successes.  A bare model wraps into a
``SingleModelTarget``, bit-identically to the pre-target engines.

Everything modality-specific is delegated to the engine's
:class:`~repro.fuzz.domains.FuzzDomain`: raw inputs are converted to
the domain's *internal array representation* once at entry (strings
become uint8 alphabet-code rows; images and records stay float64), the
loop runs entirely on those arrays, and adversarial payloads are
converted back at exit.  The domain also supplies the default
perturbation constraint and decides whether the model's encoder
supports incremental encoding.

Two encode paths are used, picked automatically:

* **incremental (delta)** — when the encoder exposes
  :data:`~repro.fuzz.domains.DELTA_ENCODER_API`, each surviving seed
  carries its integer accumulator and quantised levels through the
  :class:`~repro.fuzz.seeds.SeedPoolBatch`, and a child's accumulator
  is computed from its parent's over only the changed components
  (pixels, n-grams, features).  The integer algebra is exact, so
  hypervectors are bit-identical to a full encode at a fraction of the
  work.
* **direct** — any other encoder: the iteration's cache-missing
  children of every input are stacked into a single ``encode_batch``
  call.

Both paths hoist every per-child step to the iteration's concatenated
child block: quantisation, cache-key hashing (one ``tobytes`` sliced
per row), one ragged ``accumulate_delta`` (or ``encode_batch``) over
the cache misses of *all* inputs, and one ``hvs_from_accumulators``.
Inside the encoders, the delta kernels in
:mod:`repro.hdc.encoders._blocked` scatter all children's changed
components as one flat block with segment sums, so an iteration issues
O(1) kernel calls per member however many inputs, seeds or children
are in flight.

Both paths dedupe through per-input bounded LRU caches keyed by child
bytes — each input gets a share of ``HDTestConfig.cache_max_entries``
(floored at 32 entries) so the aggregate memory bound is independent of
how many inputs are in flight.  This is what makes discrete strategies
such as ``shift`` nearly free.  The caches are keyed by the *content*
of the original input and live on the engine instance, so an input
that returns — a later :meth:`HDTest.fuzz_one` call, a campaign wave of
:func:`~repro.fuzz.campaign.generate_adversarial_set`, an executor
chunk — finds its working set already warm.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.constraints import Constraint
from repro.fuzz.domains.base import DELTA_ENCODER_API, FuzzDomain, resolve_domain
from repro.fuzz.fitness import (
    AgreementMarginFitness,
    DistanceGuidedFitness,
    FitnessFunction,
    RandomFitness,
    packed_bipolar_dimension,
)
from repro.fuzz.mutations import MutationStrategy, create_strategy
from repro.fuzz.oracle import DifferentialOracle, EnsembleOracle
from repro.fuzz.results import AdversarialExample, CampaignResult, InputOutcome
from repro.fuzz.seeds import SeedPoolBatch
from repro.fuzz.targets import (
    PredictionTarget,
    TargetPredictions,
    TargetReference,
    resolve_target,
    vote_counts,
)
from repro.hdc.model import HDCClassifier
from repro.obs.recorder import NULL_TELEMETRY, CampaignTelemetry, Stopwatch
from repro.utils.cache import LRUCache
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import check_positive_int

__all__ = ["HDTestConfig", "HDTest", "DELTA_ENCODER_API"]


@dataclass(frozen=True)
class HDTestConfig:
    """Tunable knobs of the fuzzing loop.

    Attributes
    ----------
    iter_times:
        Maximum fuzzing iterations per input (Alg. 1's budget).
    top_n:
        Seed-pool capacity — "only the top-N fittest seeds can survive
        (in our experiments, N = 3)".
    children_per_seed:
        Mutants generated from each surviving seed per iteration.
    guided:
        Distance-guided survival (True, the paper's HDTest) or the
        unguided random-survival baseline (False).
    dedupe:
        Encode each *distinct* child once per input (cached across
        iterations).  A pure optimisation — results are identical — but
        a large one for discrete strategies: ``shift`` children collapse
        onto a handful of net translations that recur across
        iterations, which is what makes shift the cheapest strategy per
        generated image (Table II's "only changes the pixel locations,
        or more exactly, indices" remark).
    cache_max_entries:
        Capacity of the dedupe cache (least-recently-used eviction).
        Continuous strategies such as ``gauss`` produce children that
        essentially never repeat, so an unbounded cache would hold every
        child of the run — thousands of D-dimensional vectors per input.
        The default (512) comfortably covers the working sets that
        actually hit (discrete strategies collapse onto a few dozen
        distinct children) while capping memory at a few megabytes.
    """

    iter_times: int = 50
    top_n: int = 3
    children_per_seed: int = 8
    guided: bool = True
    dedupe: bool = True
    cache_max_entries: int = 512

    def __post_init__(self) -> None:
        check_positive_int(self.iter_times, "iter_times")
        check_positive_int(self.top_n, "top_n")
        check_positive_int(self.children_per_seed, "children_per_seed")
        check_positive_int(self.cache_max_entries, "cache_max_entries")


def _cache_share(config: HDTestConfig, n_inputs: int) -> int:
    """Per-input dedupe-cache capacity when *n_inputs* run at once.

    Each input gets a share of ``config.cache_max_entries``, floored at
    32 entries (plenty for the discrete working sets that actually
    hit), so the aggregate bound is independent of the batch size; a
    single input gets the whole budget.
    """
    return min(
        config.cache_max_entries, max(32, config.cache_max_entries // n_inputs)
    )


class _CachePool:
    """Per-input dedupe caches keyed by input content, budget-bounded.

    Values are the familiar child-bytes → encode-result LRU caches; the
    pool evicts whole per-input caches least-recently-fuzzed first, so
    a long-lived engine cycling through an unbounded stream of distinct
    inputs cannot grow without bound.  The bound is an *aggregate entry
    budget* (sum of live cache capacities), not a cache count — so a
    stream of single-input calls (each claiming the full per-call
    capacity) retains a couple of warm caches, not hundreds.  Callers
    :meth:`reserve` the current batch's footprint before an iteration,
    which both sizes the budget (with 2× headroom for wave recycling)
    and guarantees active inputs never evict each other mid-run; each
    :meth:`get` re-applies the *current* per-input capacity share, so a
    surviving cache from a small-batch call shrinks (LRU-evicting) when
    many inputs later split the same budget.
    """

    __slots__ = ("entry_budget", "_caches", "_total_capacity")

    def __init__(self) -> None:
        self.entry_budget = 0
        self._caches: OrderedDict[bytes, LRUCache[bytes, Any]] = OrderedDict()
        self._total_capacity = 0

    def reserve(self, n_inputs: int, capacity: int) -> None:
        """Ensure *n_inputs* caches of *capacity* fit, with 2× headroom."""
        self.entry_budget = max(self.entry_budget, 2 * n_inputs * capacity)

    def get(self, key: bytes, capacity: int) -> LRUCache[bytes, Any]:
        cache = self._caches.get(key)
        if cache is None:
            cache = self._caches[key] = LRUCache(capacity)
            self._total_capacity += capacity
            while self._total_capacity > self.entry_budget and len(self._caches) > 1:
                _, evicted = self._caches.popitem(last=False)
                self._total_capacity -= evicted.max_entries
        else:
            if cache.max_entries != capacity:
                self._total_capacity += capacity - cache.max_entries
                cache.resize(capacity)
            self._caches.move_to_end(key)
        return cache


class _ActiveInput:
    """Book-keeping for one not-yet-retired input of the lock-step batch."""

    __slots__ = ("index", "original", "reference", "generator", "cache_key")

    def __init__(self, index, original, reference, generator, cache_key):
        self.index = index
        self.original = original
        self.reference = reference  # TargetReference (label, votes, fitness_hv)
        self.generator = generator
        self.cache_key = cache_key


def _child_keys(children: np.ndarray) -> list[bytes]:
    """Dedupe-cache keys of a whole child block, hashed in one pass.

    One ``tobytes`` over the contiguous block, sliced per row — each
    key is the raw bytes of one child's internal form.
    """
    block = np.ascontiguousarray(children)
    blob = block.tobytes()
    row_nbytes = block[0].nbytes
    return [
        blob[j * row_nbytes : (j + 1) * row_nbytes]
        for j in range(len(block))
    ]


def _delta_encode_plans(
    surface, plans, pool, caches, capacity, *, dedupe: bool, count_encodes
):
    """Incremental path: children encoded from parent accumulators.

    *plans* are ``(state, children, parent_ids)`` triples; ``state.index``
    selects the parents in *pool* and ``state.cache_key`` the input's
    cache in *caches*.  Returns ``(bundle, accumulators, levels)`` per
    plan.  The engine and each member-sharded worker encode through here.

    Cache entries hold compact integer accumulators (they are
    exact — the hypervector is a deterministic function of them),
    so a hit skips even the delta work.

    Every per-child step is hoisted to the iteration's concatenated
    child block: quantisation, cache-key hashing (one ``tobytes``
    sliced per row), the ragged delta scatter, and the final
    accumulator → hypervector conversion each run **once** per
    iteration, regardless of how many inputs are active.  Lookups
    and insertions stay in each input's own LRU cache (the
    :func:`repro.utils.cache.resolve_with_cache` pinning discipline,
    spread across cache domains; duplicate inputs sharing a cache
    also share the pinned working dict, preserving their cross-plan
    dedupe).  With an ensemble target the accumulator rows carry a
    leading member axis: each member delta-encodes every child from
    *its own* parent accumulator, still one vectorised call per
    member per iteration.
    """
    bounds = np.concatenate(
        ([0], np.cumsum([len(children) for _, children, _ in plans]))
    )
    all_children = np.concatenate([children for _, children, _ in plans])
    all_levels = surface.child_levels(all_children)

    def fused_delta(positions_by_plan) -> np.ndarray:
        """One ``accumulate_delta`` over every plan's listed rows."""
        rows = [
            bounds[p] + np.asarray(pos, dtype=np.int64)
            for p, pos in enumerate(positions_by_plan)
            if len(pos)
        ]
        global_rows = np.concatenate(rows)
        count_encodes(len(global_rows))
        parent_levels, parent_accs = [], []
        for p, pos in enumerate(positions_by_plan):
            if not len(pos):
                continue
            state, _, parent_ids = plans[p]
            parents = parent_ids[np.asarray(pos, dtype=np.int64)]
            parent_levels.append(pool.levels(state.index)[parents])
            parent_accs.append(pool.accumulators(state.index)[parents])
        return surface.accumulate_delta(
            all_levels[global_rows],
            np.concatenate(parent_levels),
            np.concatenate(parent_accs),
        )

    if dedupe:
        all_keys = _child_keys(all_children)
        pinned: dict[int, dict[bytes, Any]] = {}  # shared per cache object
        plan_ctx = []  # (keys, local) per plan
        miss_by_plan: list[list[int]] = []
        miss_slots: list[tuple[dict, Any, bytes]] = []
        for p, (state, children, _) in enumerate(plans):
            cache = caches.get(state.cache_key, capacity)
            local = pinned.setdefault(id(cache), {})
            keys = all_keys[int(bounds[p]) : int(bounds[p + 1])]
            misses: list[int] = []
            for j, key in enumerate(keys):
                if key not in local:
                    local[key] = cache.get(key)
                    if local[key] is None:
                        misses.append(j)
                        miss_slots.append((local, cache, key))
            plan_ctx.append((keys, local))
            miss_by_plan.append(misses)
        if miss_slots:
            fresh = fused_delta(miss_by_plan)
            for row, (local, cache, key) in zip(fresh, miss_slots):
                local[key] = row
                cache.put(key, row)
        if len(miss_slots) == len(all_keys):
            # Every child missed and no key repeated, so ``fresh``
            # already holds the rows in global order — skip the
            # per-row re-assembly stack (the common case early in a
            # campaign, when the caches are cold).
            all_accs = fresh
        else:
            all_accs = np.stack(
                [local[key] for keys, local in plan_ctx for key in keys]
            )
    else:
        all_accs = fused_delta(
            [range(len(children)) for _, children, _ in plans]
        )
    all_bundle = surface.hvs_from_accumulators(all_accs)
    encoded = []
    for p in range(len(plans)):
        s, e = int(bounds[p]), int(bounds[p + 1])
        encoded.append((
            tuple(block[s:e] for block in all_bundle),
            all_accs[s:e],
            all_levels[s:e],
        ))
    return encoded


def _direct_encode_plans(
    plans, caches, capacity, *, encode_batch, n_blocks: int, dedupe: bool,
    count_encodes,
):
    """Fallback path: one fused *encode_batch* for all cache misses.

    *plans* are as for :func:`_delta_encode_plans`; *encode_batch*
    maps a child block to a tuple of *n_blocks* hypervector blocks.
    Returns one ``(bundle, None, None)`` per plan.

    Misses from every plan are flattened into one stack so the whole
    iteration still costs a single model call *per member*, while
    lookups and insertions stay in each input's own cache (the same
    pinning discipline as :func:`repro.utils.cache.resolve_with_cache`,
    spread across cache domains).  Cache entries hold one row per
    encode block, so mixed-width ensembles share the machinery and
    shared-codebook ensembles cache a single row.
    """
    bounds = np.concatenate(
        ([0], np.cumsum([len(children) for _, children, _ in plans]))
    )
    all_children = np.concatenate([children for _, children, _ in plans])
    if not dedupe:
        count_encodes(len(all_children))
        stacked = encode_batch(all_children)
    else:
        all_keys = _child_keys(all_children)
        resolved = []  # (keys, local) per plan
        miss_rows: list[int] = []
        slots: list[tuple[dict, Any, bytes]] = []  # (local, cache, key) per miss
        for p, (state, children, _) in enumerate(plans):
            cache = caches.get(state.cache_key, capacity)
            keys = all_keys[int(bounds[p]) : int(bounds[p + 1])]
            local: dict[bytes, Optional[tuple]] = {}
            for j, key in enumerate(keys):
                if key not in local:
                    local[key] = cache.get(key)
                    if local[key] is None:
                        miss_rows.append(int(bounds[p]) + j)
                        slots.append((local, cache, key))
            resolved.append((keys, local))
        if miss_rows:
            count_encodes(len(miss_rows))
            fresh = encode_batch(all_children[np.asarray(miss_rows, dtype=np.int64)])
            for j, (local, cache, key) in enumerate(slots):
                row = tuple(block[j] for block in fresh)
                local[key] = row
                cache.put(key, row)
        # One stack per encode block over every plan's rows, sliced
        # back per plan — not one stack per plan.
        rows = [local[key] for keys, local in resolved for key in keys]
        stacked = tuple(
            np.stack([row[m] for row in rows]) for m in range(n_blocks)
        )
    return [
        (tuple(block[bounds[p] : bounds[p + 1]] for block in stacked), None, None)
        for p in range(len(plans))
    ]


class HDTest:
    """Differential fuzz tester for HDC classifiers.

    Parameters
    ----------
    model:
        The grey-box system under test: a trained
        :class:`~repro.hdc.model.HDCClassifier` (or any model exposing
        the Sec. IV grey-box API), or a
        :class:`~repro.fuzz.targets.PredictionTarget` — in particular a
        :class:`~repro.fuzz.targets.ModelEnsembleTarget` for HDXplore's
        cross-model differential setting.
    strategy:
        A :class:`~repro.fuzz.mutations.MutationStrategy` instance or a
        registered name (``"gauss"``, ``"char_sub"``, ``"record_rand"``, …).
    domain:
        The input modality — a registered name (``"image"``, ``"text"``,
        ``"record"``/``"voice"``), a
        :class:`~repro.fuzz.domains.FuzzDomain` instance, or ``None``
        to derive it from the strategy's namespace tag.  The domain
        owns input validation, the internal array representation, and
        the default constraint.
    config:
        Loop parameters; defaults to :class:`HDTestConfig`.
    constraint:
        Perturbation budget.  Defaults to the domain's budget — the
        paper's ``L2 < 1`` for images, the character-Hamming budget for
        text, the record budget for records — except for metric-free
        strategies (``shift``, ``record_shift``), which default to
        :class:`~repro.fuzz.constraints.NullConstraint` (Table II's
        footnote: distance metrics are not meaningful for shift).
    fitness:
        Override the fitness function.  Defaults to the paper's
        :class:`~repro.fuzz.fitness.DistanceGuidedFitness` for single
        models and the discrepancy-guided
        :class:`~repro.fuzz.fitness.AgreementMarginFitness` for
        ensembles, or :class:`~repro.fuzz.fitness.RandomFitness` when
        ``config.guided`` is False.
    oracle:
        Discrepancy check; defaults to the untargeted
        :class:`~repro.fuzz.oracle.DifferentialOracle` for single
        models and :class:`~repro.fuzz.oracle.CrossModelOracle` for
        ensembles.
    rng:
        Root seed/generator for mutation randomness.
    telemetry:
        Optional :class:`~repro.obs.recorder.CampaignTelemetry` the
        engine records counters and phase timings into.  ``None`` (the
        default) installs the no-op :data:`~repro.obs.recorder.NULL_TELEMETRY`;
        telemetry never touches the RNG, so enabling it cannot change
        campaign outcomes.

    Examples
    --------
    >>> from repro.datasets import load_digits
    >>> from repro.hdc import PixelEncoder, HDCClassifier
    >>> from repro.fuzz import HDTest
    >>> train, test = load_digits(n_train=300, n_test=20, seed=3)
    >>> model = HDCClassifier(PixelEncoder(dimension=2048, rng=3), 10)
    >>> _ = model.fit(train.images, train.labels)
    >>> result = HDTest(model, "gauss", rng=0).fuzz(test.images[:5])
    >>> result.n_inputs
    5
    """

    def __init__(
        self,
        model: HDCClassifier,
        strategy: Union[str, MutationStrategy],
        *,
        domain: Union[None, str, FuzzDomain] = None,
        config: Optional[HDTestConfig] = None,
        constraint: Optional[Constraint] = None,
        fitness: Optional[FitnessFunction] = None,
        oracle: Optional[DifferentialOracle] = None,
        rng: RngLike = None,
        telemetry: Optional[CampaignTelemetry] = None,
    ) -> None:
        self._obs = telemetry if telemetry is not None else NULL_TELEMETRY
        # Duck-typed grey-box check (Sec. IV): the fuzzer needs
        # predictions for the oracle plus query/reference HVs for the
        # fitness — any model exposing those is fuzzable, including the
        # dense-binary family in repro.hdc.binary_model.  A
        # PredictionTarget (single model or K-member ensemble) passes
        # through; a bare model wraps into a SingleModelTarget, whose
        # engine behaviour is bit-identical to the pre-target engines.
        self._target = resolve_target(model)
        # Content-keyed per-input dedupe caches, persistent across calls
        # so recycled inputs re-enter with a warm working set.
        self._cache_pool = _CachePool()
        self._model = self._target.primary
        self._strategy = (
            create_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        if not isinstance(self._strategy, MutationStrategy):
            raise ConfigurationError(
                f"strategy must be a name or MutationStrategy, got "
                f"{type(self._strategy).__name__}"
            )
        self._config = config if config is not None else HDTestConfig()
        self._rng = ensure_rng(rng)
        self._domain = resolve_domain(
            domain, strategy=self._strategy, model=self._model
        )
        if self._domain.name != self._strategy.domain:
            raise ConfigurationError(
                f"strategy {self._strategy.name!r} belongs to the "
                f"{self._strategy.domain!r} domain, not {self._domain.name!r}"
            )
        self._domain.validate_strategy(self._strategy)
        if constraint is None:
            constraint = self._domain.default_constraint(self._strategy)
        self._constraint = constraint
        if self._target.n_members == 1:
            self._fitness = self._resolve_single_fitness(fitness)
            self._oracle = oracle if oracle is not None else DifferentialOracle()
            if isinstance(self._oracle, EnsembleOracle):
                raise ConfigurationError(
                    f"{type(self._oracle).__name__} compares models against "
                    "each other; fuzz a ModelEnsembleTarget with >= 2 members"
                )
        else:
            self._fitness = self._resolve_ensemble_fitness(fitness)
            self._oracle = oracle
            if self._oracle is None:
                from repro.fuzz.oracle import CrossModelOracle

                self._oracle = CrossModelOracle()
            elif (
                type(self._oracle).discrepancies_ensemble
                is DifferentialOracle.discrepancies_ensemble
            ):
                raise ConfigurationError(
                    f"{type(self._oracle).__name__} has no cross-model "
                    "discrepancy rule; use CrossModelOracle or MajorityOracle "
                    "with model ensembles"
                )

    def _resolve_single_fitness(self, fitness):
        """Default/validate the fitness for a single-model target."""
        bipolar_dim = packed_bipolar_dimension(self._model)
        if fitness is None:
            # The default guided fitness must know when the model's
            # grey-box HVs are packed *bipolar* sign words (uint64, like
            # packed binary words) so it scores with the sign-bit cosine.
            return (
                DistanceGuidedFitness(bipolar_dimension=bipolar_dim)
                if self._config.guided
                else RandomFitness(rng=self._rng)
            )
        if bipolar_dim is not None and (
            getattr(fitness, "_bipolar_dimension", bipolar_dim) != bipolar_dim
        ):
            # A cosine fitness built without bipolar_dimension would
            # silently score sign words with the *binary* popcount
            # cosine, and one built for a different dimension would
            # mis-scale them — valid floats, wrong ranking, either way.
            # Fail loudly instead.  (Fitnesses without the attribute —
            # RandomFitness, custom ones — pass through untouched.)
            raise ConfigurationError(
                f"{type(fitness).__name__} was constructed with "
                f"bipolar_dimension="
                f"{getattr(fitness, '_bipolar_dimension')!r} but "
                f"{type(self._model).__name__} emits packed bipolar sign "
                f"words of dimension {bipolar_dim}; pass "
                f"bipolar_dimension={bipolar_dim} "
                "(see repro.fuzz.fitness.packed_bipolar_dimension)"
            )
        return fitness

    def _resolve_ensemble_fitness(self, fitness):
        """Default/validate the fitness for a K > 1 ensemble target."""
        if fitness is None:
            # HDXplore's guidance: minimise the ensemble's vote margin.
            return (
                AgreementMarginFitness()
                if self._config.guided
                else RandomFitness(rng=self._rng)
            )
        if (
            type(fitness).scores_ensemble is FitnessFunction.scores_ensemble
        ):
            raise ConfigurationError(
                f"{type(fitness).__name__} cannot score ensemble predictions; "
                "use an ensemble-aware fitness (AgreementMarginFitness, "
                "RandomFitness) or fuzz a single model"
            )
        return fitness

    # -- introspection ---------------------------------------------------
    @property
    def model(self) -> HDCClassifier:
        """The (primary) model under test."""
        return self._model

    @property
    def target(self) -> PredictionTarget:
        """The full prediction target (single model or K-member ensemble)."""
        return self._target

    @property
    def strategy(self) -> MutationStrategy:
        """Active mutation strategy."""
        return self._strategy

    @property
    def config(self) -> HDTestConfig:
        """Loop parameters."""
        return self._config

    @property
    def constraint(self) -> Constraint:
        """Active perturbation budget."""
        return self._constraint

    @property
    def domain(self) -> FuzzDomain:
        """The engine's input modality."""
        return self._domain

    @property
    def telemetry(self) -> Any:
        """The active recorder (:data:`NULL_TELEMETRY` when disabled)."""
        return self._obs

    # -- campaign entry points ---------------------------------------------
    def fuzz_one(self, original: Any, *, rng: RngLike = None) -> InputOutcome:
        """Run Alg. 1 on one input; returns its :class:`InputOutcome`.

        The lock-step engine at batch size 1: *rng* (default: the
        engine's own generator) drives this input's mutations and, for
        the unguided baseline, its random survival.
        """
        generator = ensure_rng(rng) if rng is not None else self._rng
        return self.fuzz_outcomes([original], generators=[generator])[0]

    def fuzz(self, inputs: Sequence[Any], *, rng: RngLike = None) -> CampaignResult:
        """Fuzz every input; returns the aggregated :class:`CampaignResult`.

        Inputs run one at a time with *one* generator threaded through
        them in order, so each input continues the stream the previous
        one left behind — the serial schedule's historical streams
        (:class:`~repro.fuzz.batch.BatchedHDTest` spawns one generator
        per input instead).
        """
        generator = ensure_rng(rng) if rng is not None else self._rng
        return self._campaign(
            lambda: [self.fuzz_one(x, rng=generator) for x in inputs]
        )

    def _campaign(self, run, **labels: Any) -> CampaignResult:
        """Time ``run()``'s outcomes into a :class:`CampaignResult`."""
        mark = self._obs.marker()
        with Stopwatch() as sw:
            outcomes = run()
        return CampaignResult(
            strategy=self._strategy.name,
            outcomes=outcomes,
            elapsed_seconds=sw.elapsed,
            guided=self._fitness.guided,
            n_members=self._target.n_members,
            telemetry=self._obs.since(mark),
            **labels,
        )

    def fuzz_outcomes(
        self,
        inputs: Sequence[Any],
        *,
        rng: RngLike = None,
        generators: Optional[Sequence[np.random.Generator]] = None,
    ) -> list[InputOutcome]:
        """Run Alg. 1 on all inputs in lock-step; one outcome per input.

        Parameters
        ----------
        inputs:
            Raw inputs of the engine's domain, identical shape/length.
        rng:
            Root randomness; per-input child generators are spawned from
            it (ignored when *generators* is given).
        generators:
            Explicit per-input child generators — the executors use this
            to keep outcomes invariant to chunking, and :meth:`fuzz_one`
            to thread one generator through a serial campaign.
        """
        n = len(inputs)
        if n == 0:
            return []
        if generators is None:
            root = ensure_rng(rng) if rng is not None else self._rng
            generators = spawn(root, n)
        elif len(generators) != n:
            raise ConfigurationError(
                f"{len(generators)} generators for {n} inputs"
            )
        originals = self._domain.stack(inputs)
        cfg = self._config
        obs = self._obs
        obs.count("inputs", n)
        ref_predictions, pool, surface = self._reference_pass(originals)

        active: list[_ActiveInput] = []
        outcomes: list[Optional[InputOutcome]] = [None] * n
        for i in range(n):
            reference = self._target.reference(ref_predictions, i)
            if self._oracle.reference_discrepancy(reference.votes):
                # HDXplore-style seed discrepancy: the members disagree
                # before any mutation — report it without spending budget.
                example = self._seed_discrepancy_example(originals[i], reference)
                obs.record_success(0, example.disagreed_members)
                outcomes[i] = InputOutcome(
                    success=True,
                    iterations=0,
                    reference_label=reference.label,
                    example=example,
                )
                continue
            active.append(
                _ActiveInput(
                    i, originals[i], reference, generators[i],
                    originals[i].tobytes(),
                )
            )

        for iteration in range(1, cfg.iter_times + 1):
            if not active:
                break
            obs.count("iterations", len(active))
            obs.heartbeat()
            with obs.phase("mutate"):
                plans = self._mutation_plans(active, pool)
            if not plans:
                continue
            obs.count(
                "encode_requests", sum(len(children) for _, children, _ in plans)
            )
            all_predictions, encoded = self._evaluate(plans, pool, surface)
            retired: set[int] = set()
            orders: list[tuple[int, np.ndarray]] = []
            offset = 0
            for (state, children, _), (bundle, accs, levels) in zip(plans, encoded):
                predictions = all_predictions.slice(offset, offset + len(children))
                offset += len(children)
                flips = self._discrepancies(state.reference, predictions)
                if flips.any():
                    example = self._pick_success(
                        state.original, children, predictions.labels, flips,
                        state.reference, iteration,
                    )
                    obs.record_success(iteration, example.disagreed_members)
                    outcomes[state.index] = InputOutcome(
                        success=True,
                        iterations=iteration,
                        reference_label=state.reference.label,
                        example=example,
                    )
                    retired.add(state.index)
                    continue
                scores = self._score_children(
                    state.reference, predictions, bundle, state.generator
                )
                order = pool.update(
                    state.index, children, scores,
                    generation=iteration, accumulators=accs, levels=levels,
                )
                if order is not None:
                    orders.append((state.index, order))
            self._commit_survivors(orders)
            if retired:
                active = [s for s in active if s.index not in retired]

        if active:
            obs.count("exhausted", len(active))
        for state in active:
            outcomes[state.index] = InputOutcome(
                success=False,
                iterations=cfg.iter_times,
                reference_label=state.reference.label,
            )
        return outcomes  # type: ignore[return-value]

    # -- the loop's seams (the member-sharded engine overrides these) -------
    def _reference_pass(self, originals: np.ndarray):
        """Alg. 1 line 1, ``y = HDC(t)``, for every original at once.

        One fused encode + predict per member; with a delta-capable
        target the same encode seeds the pool's side data.  Returns the
        reference predictions, the seed pool, and the delta surface the
        run encodes children through (``None``: scratch encoding).
        """
        n = originals.shape[0]
        cfg = self._config
        obs = self._obs
        surface = self._target.delta_surface(self._delta_encoder())
        with obs.phase("encode"):
            if surface is not None:
                ref_accs, ref_levels = surface.seed_side_data(originals)
                ref_bundle = surface.hvs_from_accumulators(ref_accs)
                pool = SeedPoolBatch(
                    originals, cfg.top_n, accumulators=ref_accs, levels=ref_levels
                )
            else:
                ref_bundle = self._target.encode_batch(originals)
                pool = SeedPoolBatch(originals, cfg.top_n)
        obs.count("seed_encodes", n)
        with obs.phase("query"):
            ref_predictions = self._target.predict_hvs(ref_bundle)
        obs.count("am_queries", n * self._target.n_members)
        self._cache_pool.reserve(n, _cache_share(cfg, n))
        return ref_predictions, pool, surface

    def _evaluate(self, plans, pool: SeedPoolBatch, surface):
        """Encode + predict one iteration's children across every plan.

        Returns the fused :class:`TargetPredictions` over all plans'
        children (concatenated in plan order) and, per plan, the
        ``(bundle, accumulators, levels)`` that fitness scoring and the
        seed pool's side arrays consume.
        """
        capacity = _cache_share(self._config, pool.n_inputs)
        with self._obs.phase("encode"):
            if surface is not None:
                encoded = self._encode_plans_delta(
                    surface, plans, pool, self._cache_pool, capacity
                )
            else:
                encoded = _direct_encode_plans(
                    plans, self._cache_pool, capacity,
                    encode_batch=self._target.encode_batch,
                    n_blocks=self._target.n_encode_blocks,
                    dedupe=self._config.dedupe,
                    count_encodes=self._count_encodes,
                )
        # One fused prediction per encode block over every input's
        # children — the K-model lock-step step (a shared-codebook
        # ensemble emits a single block).
        predictions = self._predict_children(
            tuple(
                np.concatenate([e[0][m] for e in encoded], axis=0)
                for m in range(self._target.n_encode_blocks)
            )
        )
        return predictions, encoded

    def _commit_survivors(self, orders: list[tuple[int, np.ndarray]]) -> None:
        """Hook for the iteration's survivor orders (input index, order).

        In-process the pool's side arrays already moved with
        :meth:`SeedPoolBatch.update`; member-sharded workers replay the
        orders against their own per-member side arrays.
        """

    # -- target dispatch ---------------------------------------------------
    def _predict_children(self, bundle) -> TargetPredictions:
        """Lock-step member predictions over one child bundle.

        Instrumenting here covers the ``query`` phase and AM-query
        counting for every in-process schedule.
        """
        self._obs.count("am_queries", len(bundle[0]) * self._target.n_members)
        with self._obs.phase("query"):
            return self._target.predict_hvs(
                bundle,
                with_similarities=(
                    self._target.n_members > 1 and self._fitness.needs_similarities
                ),
            )

    def _discrepancies(self, ref: TargetReference, predictions: TargetPredictions):
        """The oracle's flip mask, in single or cross-model form."""
        with self._obs.phase("oracle"):
            if self._target.n_members == 1:
                return self._oracle.discrepancies(ref.label, predictions.labels[0])
            return self._oracle.discrepancies_ensemble(ref.votes, predictions.labels)

    def _score_children(self, ref, predictions, bundle, generator) -> np.ndarray:
        """Fitness of the iteration's children (Alg. 1's survival scores)."""
        with self._obs.phase("fitness"):
            if self._target.n_members == 1:
                return self._fitness.scores(ref.fitness_hv, bundle[0], rng=generator)
            return self._fitness.scores_ensemble(predictions, rng=generator)

    # -- mutation + encoding -----------------------------------------------
    def _mutation_plans(self, active, pool: SeedPoolBatch):
        """Mutate + clip + budget-filter each active input's seeds.

        Returns ``(state, children, parent_ids)`` triples for inputs
        with at least one in-budget child; inputs whose children all
        blew the budget simply sit the iteration out (their seeds are
        retained and the iteration still counts).
        """
        cfg = self._config
        plans = []
        for state in active:
            batches = [
                self._strategy.mutate(seed, cfg.children_per_seed, rng=state.generator)
                for seed in pool.seeds(state.index)
            ]
            if not isinstance(batches[0], np.ndarray):
                raise FuzzingError(
                    f"strategy {self._strategy.name!r} returned "
                    f"{type(batches[0]).__name__} children for an array seed; "
                    "strategies must stay in the domain's internal representation"
                )
            children = np.concatenate(batches, axis=0)
            self._obs.count("children", len(children))
            self._obs.count_strategy(self._strategy.name, len(children))
            children = self._constraint.clip(children)
            keep = self._constraint.accept(state.original, children)
            self._obs.count("children_in_budget", int(keep.sum()))
            if not keep.any():
                continue
            # Derived from actual batch lengths, not children_per_seed,
            # so a strategy returning an off-count batch cannot silently
            # pair children with the wrong parent.
            parent_ids = np.repeat(
                np.arange(len(batches)), [len(batch) for batch in batches]
            )[keep]
            plans.append((state, children[keep], parent_ids))
        return plans

    def _count_encodes(self, n_children: int) -> None:
        """Count *n_children* actually-encoded rows (cache misses)."""
        self._obs.count("encoded_children", n_children)
        self._obs.count("encodes", n_children * self._target.n_encode_blocks)

    def _delta_encoder(self):
        """The target's delta-capable encoder handle, or ``None``.

        Thin hook over :meth:`PredictionTarget.delta_encoder` (for a
        single model: the model's encoder when it exposes
        :data:`~repro.fuzz.domains.DELTA_ENCODER_API`) — tests and
        benchmarks override it per instance to force the scratch path.
        """
        return self._target.delta_encoder(self._domain)

    def _encode_plans_delta(self, surface, plans, pool: SeedPoolBatch, caches, capacity):
        """:func:`_delta_encode_plans` with this engine's settings (a bench hook)."""
        return _delta_encode_plans(
            surface, plans, pool, caches, capacity,
            dedupe=self._config.dedupe, count_encodes=self._count_encodes,
        )

    # -- reporting ---------------------------------------------------------
    def _pick_success(
        self,
        original: np.ndarray,
        children,
        member_labels: np.ndarray,
        flips: np.ndarray,
        ref: TargetReference,
        iteration: int,
    ) -> AdversarialExample:
        """Among flipped children, keep the least-perturbed one.

        *original* and *children* arrive in the domain's internal
        representation; the reported example converts both back to the
        user-facing form (array copy for images/records, string for
        text).  *member_labels* is the ``(K, n)`` prediction block —
        one row for a single model.
        """
        indices = np.nonzero(flips)[0]
        best_idx = int(indices[0])
        best_key = float("inf")
        for i in indices:
            child = children[int(i)]
            metrics = self._constraint.measure(original, child)
            # Rank by L2 when available, else edits, else first wins.
            key = metrics.get("l2", metrics.get("edits", 0.0))
            if key < best_key:
                best_key = key
                best_idx = int(i)
        chosen = children[best_idx]
        adversarial_label, disagreed = self._example_labels(
            ref, member_labels[:, best_idx]
        )
        return AdversarialExample(
            original=self._domain.to_external(original),
            adversarial=self._domain.to_external(chosen),
            reference_label=ref.label,
            adversarial_label=adversarial_label,
            iterations=iteration,
            metrics=self._constraint.measure(original, chosen),
            strategy=self._strategy.name,
            disagreed_members=disagreed,
        )

    def _example_labels(
        self, ref: TargetReference, labels_column: np.ndarray
    ) -> tuple[int, Optional[tuple[int, ...]]]:
        """Reported labels of one flipped child.

        Single model: the flipped prediction, no member bookkeeping.
        Ensemble: the adversarial label is the most common member label
        other than the reference (ties → lowest), and
        ``disagreed_members`` lists the members that left the reference
        label — the debugging loop's retraining signal.
        """
        if self._target.n_members == 1:
            return int(labels_column[0]), None
        counts = vote_counts(labels_column[:, None], self._target.n_classes)[0]
        counts[ref.label] = -1  # never report the reference as the flip
        adversarial_label = int(np.argmax(counts))
        disagreed = tuple(int(m) for m in np.nonzero(labels_column != ref.label)[0])
        return adversarial_label, disagreed

    def _seed_discrepancy_example(
        self, internal: np.ndarray, ref: TargetReference
    ) -> AdversarialExample:
        """An iteration-0 example for inputs the members already split on."""
        external = self._domain.to_external(internal)
        adversarial_label, disagreed = self._example_labels(ref, ref.votes)
        return AdversarialExample(
            original=external,
            adversarial=self._domain.to_external(internal),
            reference_label=ref.label,
            adversarial_label=adversarial_label,
            iterations=0,
            metrics=self._constraint.measure(internal, internal),
            strategy=self._strategy.name,
            disagreed_members=disagreed,
        )
