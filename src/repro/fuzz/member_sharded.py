"""Member-sharded ensemble execution: one persistent worker per member.

:class:`~repro.fuzz.executor.ProcessExecutor` shards campaigns by
*input*: every worker receives (and holds, and re-runs) all K ensemble
members, so per-worker memory and the one-off broadcast both scale with
K × workers.  This module shards by *member* instead — the ROADMAP's
"distributed differential testing" step 1, and the execution shape
FedDebug uses at federation scale: worker *m* owns exactly one
:class:`~repro.fuzz.targets.MemberShard` (the full member model for
independent-codebook ensembles; only the member's associative memory
for shared-codebook ones), the parent runs mutation / oracle / fitness /
pool survival, and each iteration exchanges one child block for K vote
rows.

Two execution modes, chosen by the target's shape:

* **Shared-codebook** (``n_encode_blocks == 1``) — the parent engine is
  the stock :class:`~repro.fuzz.batch.BatchedHDTest` running against a
  :class:`_VoteGatherTarget` proxy: encoding (delta or scratch, with
  the parent's dedupe caches) happens parent-side exactly as in
  lock-step, and only ``predict_hvs`` fans the encoded block out to the
  K AM-only workers.  Campaign outcomes are bit-identical to the
  in-process engines *by construction* — every decision runs the same
  code on the same arrays.
* **Independent codebooks** — :class:`MemberShardedHDTest` runs the
  same lock-step loop, overriding only its reference pass, its
  per-iteration evaluation and its survivor commit: it broadcasts raw
  child blocks; each worker delta- or scratch-encodes them through
  its own member's codebook — with the engine's fused encode functions,
  its own per-input dedupe caches and per-member survivor side arrays,
  replaying the parent's survivor order — and replies with its
  label/similarity rows.  Stacking the rows
  in member order reproduces the lock-step
  :class:`~repro.fuzz.targets.TargetPredictions` exactly, so the
  parent-side oracle / fitness / survival decisions — and therefore
  campaign outcomes — again match the lock-step engines bit for bit
  (property-tested in ``tests/fuzz/test_member_sharded.py``).

Broadcasts ride the :mod:`repro.utils.shm` arena by default: per
iteration the pipes carry a ~100-byte segment handle plus the vote
arrays, instead of K pickled copies of the child block
(``transport="pickle"`` keeps the copying behaviour for comparison —
``benchmarks/bench_member_sharding.py`` measures the gap).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
import traceback
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.batch import BatchedHDTest
from repro.fuzz.fuzzer import (
    _cache_share,
    _CachePool,
    _delta_encode_plans,
    _direct_encode_plans,
)
from repro.fuzz.seeds import SeedPoolBatch
from repro.fuzz.targets import (
    MemberShard,
    PredictionTarget,
    TargetPredictions,
    _SingleDeltaSurface,
)
from repro.utils.shm import (
    ShmArena,
    ShmRef,
    attach_array,
    detach_all,
    payload_nbytes,
)

__all__ = ["MemberWorkerGroup", "MemberShardedHDTest", "create_member_engine"]

#: Seconds between liveness checks while waiting on a worker reply.
_GATHER_POLL_SECONDS = 1.0


def _payload_array(payload) -> np.ndarray:
    """A message payload (shm ref or pickled array) as an ndarray view."""
    if isinstance(payload, ShmRef):
        return attach_array(payload)
    return np.asarray(payload)


class _MemberSidePool:
    """One member's survivor side arrays (accumulators + levels).

    The worker-process mirror of :class:`~repro.fuzz.seeds.SeedPoolBatch`'s
    side blocks: same shapes, same ``[i, :k] = staged[order]`` write the
    parent performs — except the *order* arrives from the parent (who
    computed it once from the fitness scores), so survivor selection is
    identical in every process without shipping scores around.
    """

    __slots__ = ("_accs", "_levels", "_counts")

    def __init__(self, accs0: np.ndarray, levels0: np.ndarray, top_n: int) -> None:
        n = accs0.shape[0]
        self._accs = np.zeros((n, top_n) + accs0.shape[1:], accs0.dtype)
        self._accs[:, 0] = accs0
        self._levels = np.zeros((n, top_n) + levels0.shape[1:], levels0.dtype)
        self._levels[:, 0] = levels0
        self._counts = np.ones(n, dtype=np.int64)

    def accumulators(self, i: int) -> np.ndarray:
        return self._accs[i, : self._counts[i]]

    def levels(self, i: int) -> np.ndarray:
        return self._levels[i, : self._counts[i]]

    def commit(self, i: int, order: np.ndarray, accs, levels) -> None:
        k = order.shape[0]
        self._accs[i, :k] = accs[order]
        self._levels[i, :k] = levels[order]
        self._counts[i] = k


class _WorkerPlan(NamedTuple):
    """The input a worker-side plan belongs to (the engine's plan state)."""

    index: int
    cache_key: bytes


class _WorkerRun:
    """One fuzz_outcomes call's worth of state inside a member worker."""

    def __init__(self, shard, handle, config, originals, delta_on, caches):
        # Copy: shm scratch slots are rewritten by the next broadcast,
        # and the reference encode below must outlive this message.
        originals = np.array(originals)
        self.shard = shard
        self.config = config
        self.caches = caches
        n = originals.shape[0]
        self.cache_keys = [row.tobytes() for row in originals]
        # The lock-step engine's per-input capacity share — identical
        # capacities mean identical LRU hit/miss/eviction sequences,
        # which keeps encode counters comparable.
        self.capacity = _cache_share(config, n)
        caches.reserve(n, self.capacity)
        self.surface = None
        self.side: Optional[_MemberSidePool] = None
        self.staged: dict[int, tuple] = {}
        self.n_encoded = 0
        t0 = time.perf_counter()
        if delta_on and handle is not None:
            self.surface = _SingleDeltaSurface(handle)
            accs0, levels0 = self.surface.seed_side_data(originals)
            self.side = _MemberSidePool(accs0, levels0, config.top_n)
            hv = self.surface.hvs_from_accumulators(accs0)[0]
        else:
            hv = shard.encode_block(originals)
        encode_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        labels, sims = shard.predict_block(hv)
        self.seed_reply = (labels, sims, n, encode_s, time.perf_counter() - t0)

    def predict(self, children, metas, with_sims) -> tuple:
        """Encode + query one iteration's child block → the reply tail.

        The block is encoded through the in-process engine's fused
        encode paths, with this member's surface, side arrays and
        caches standing in for the engine's.
        """
        self.n_encoded = 0
        t0 = time.perf_counter()
        plans = []
        offset = 0
        for index, parent_ids, count in metas:
            plans.append((
                _WorkerPlan(index, self.cache_keys[index]),
                children[offset : offset + count],
                np.asarray(parent_ids),
            ))
            offset += count
        if self.surface is not None:
            encoded = _delta_encode_plans(
                self.surface, plans, self.side, self.caches, self.capacity,
                dedupe=self.config.dedupe, count_encodes=self._count_encodes,
            )
            # Survivor commits replay the parent's orders against these.
            self.staged = {
                state.index: (accs, levels)
                for (state, _, _), (_, accs, levels) in zip(plans, encoded)
            }
        else:
            encoded = _direct_encode_plans(
                plans, self.caches, self.capacity,
                encode_batch=lambda block: (self.shard.encode_block(block),),
                n_blocks=1, dedupe=self.config.dedupe,
                count_encodes=self._count_encodes,
            )
        hvs = np.concatenate([bundle[0] for bundle, _, _ in encoded], axis=0)
        encode_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        labels, sims = self.shard.predict_block(hvs, with_similarities=with_sims)
        return (labels, sims, self.n_encoded, encode_s, time.perf_counter() - t0)

    def _count_encodes(self, n_children: int) -> None:
        self.n_encoded += n_children

    def commit(self, orders) -> None:
        if self.side is None:
            return
        for index, order in orders:
            entry = self.staged.get(index)
            if entry is not None:
                self.side.commit(int(index), np.asarray(order), *entry)


def _member_worker_main(shard, domain, config, request_q, reply_q) -> None:
    """Worker process main loop: serve one member until told to stop.

    The worker owns its member's compute state for the whole group
    lifetime — across runs and waves — so its content-keyed dedupe
    caches stay warm exactly like a reused process-pool engine's.
    Exceptions are shipped back as ``("error", member, traceback)``
    replies instead of killing the process, so one failed request
    surfaces in the parent as a debuggable error.
    """
    handle = None
    if shard.encodes_locally and domain is not None:
        handle = domain.delta_encoder(shard.payload)
    caches = _CachePool()
    run: Optional[_WorkerRun] = None
    while True:
        msg = request_q.get()
        op = msg[0]
        if op == "stop":
            break
        try:
            if op == "seed":
                run = _WorkerRun(
                    shard, handle, config, _payload_array(msg[1]), bool(msg[2]), caches
                )
                reply_q.put(("seed", shard.member_index) + run.seed_reply)
            elif op == "predict":
                reply_q.put(
                    ("predict", shard.member_index)
                    + run.predict(_payload_array(msg[1]), msg[2], msg[3])
                )
            elif op == "predict_hv":
                t0 = time.perf_counter()
                labels, sims = shard.predict_block(
                    _payload_array(msg[1]), with_similarities=msg[2]
                )
                reply_q.put(
                    ("predict_hv", shard.member_index, labels, sims, 0, 0.0,
                     time.perf_counter() - t0)
                )
            elif op == "commit":
                if run is not None:
                    run.commit(msg[1])
            else:
                raise FuzzingError(f"unknown member-worker op {op!r}")
        except BaseException:
            reply_q.put(("error", shard.member_index, traceback.format_exc()))
    detach_all()


class MemberWorkerGroup:
    """K persistent member workers with per-worker request/reply queues.

    Unlike a :class:`multiprocessing.Pool`, requests must be *pinned*:
    worker *m* holds member *m*'s state (model, side arrays, caches), so
    the group keeps one request queue per worker and gathers replies in
    member order — workers compute concurrently, the parent just reads
    the results as they land.

    Parameters
    ----------
    shards:
        One :class:`~repro.fuzz.targets.MemberShard` per member, in
        member order (``target.member_shards()``).
    domain:
        The resolved :class:`~repro.fuzz.domains.FuzzDomain` (workers
        derive their member's delta encoder from it).
    config:
        The resolved :class:`~repro.fuzz.fuzzer.HDTestConfig` (workers
        size their dedupe caches and side pools from it).
    transport:
        ``"shm"`` (default) broadcasts arrays through a
        :class:`~repro.utils.shm.ShmArena`; ``"pickle"`` ships them
        through the queues.  Falls back to pickle automatically when
        shared memory is unavailable.
    """

    def __init__(
        self,
        shards: Sequence[MemberShard],
        domain: Any,
        config: Any,
        *,
        transport: str = "shm",
    ) -> None:
        if len(shards) < 2:
            raise ConfigurationError(
                "member sharding needs an ensemble of >= 2 members"
            )
        if transport not in ("shm", "pickle"):
            raise ConfigurationError(
                f"transport must be 'shm' or 'pickle', got {transport!r}"
            )
        self._shards = tuple(shards)
        self._arena: Optional[ShmArena] = None
        if transport == "shm":
            try:
                self._arena = ShmArena()
                self._arena.scratch_write("probe", np.zeros(8, dtype=np.uint8))
            except OSError:  # pragma: no cover - no /dev/shm on this host
                self._arena = None
                transport = "pickle"
        self.transport = transport
        ctx = mp.get_context()
        self._workers: list[tuple] = []
        for shard in self._shards:
            request_q: Any = ctx.Queue()
            reply_q: Any = ctx.Queue()
            process = ctx.Process(
                target=_member_worker_main,
                args=(shard, domain, config, request_q, reply_q),
                daemon=True,
            )
            process.start()
            self._workers.append((process, request_q, reply_q))
        self._closed = False
        self.reset_stats()

    # -- introspection -------------------------------------------------------
    @property
    def n_members(self) -> int:
        return len(self._workers)

    @property
    def encodes_locally(self) -> bool:
        return self._shards[0].encodes_locally

    @property
    def alive(self) -> bool:
        return not self._closed and all(w[0].is_alive() for w in self._workers)

    def worker_exitcodes(self) -> list[Optional[int]]:
        """Exit codes after :meth:`close` (all 0 ⇔ graceful shutdown)."""
        return [w[0].exitcode for w in self._workers]

    # -- broadcast side ------------------------------------------------------
    def _payload(self, key: str, array: np.ndarray):
        if self._arena is not None:
            return self._arena.scratch_write(key, array)
        return np.ascontiguousarray(array)

    def _send(self, msg: tuple) -> int:
        if self._closed:
            raise FuzzingError("member worker group is closed")
        nbytes = payload_nbytes(msg) * len(self._workers)
        for _, request_q, _ in self._workers:
            request_q.put(msg)
        self._stats["broadcast_bytes"] += nbytes
        return nbytes

    def seed(self, originals: np.ndarray, *, delta_on: bool) -> int:
        """Broadcast the run's stacked originals (reference encode)."""
        return self._send(("seed", self._payload("originals", originals), delta_on))

    def predict(self, children: np.ndarray, metas, *, with_sims: bool) -> int:
        """Broadcast one iteration's concatenated child block."""
        return self._send(
            ("predict", self._payload("children", children), tuple(metas), with_sims)
        )

    def predict_hv(self, hvs: np.ndarray, *, with_sims: bool) -> int:
        """Broadcast an encoded hypervector block (shared-codebook mode)."""
        return self._send(("predict_hv", self._payload("hvs", hvs), with_sims))

    def commit(self, orders) -> int:
        """Broadcast the survivor order of each updated input (no reply)."""
        return self._send(("commit", tuple(orders)))

    def pool_allocator(self):
        """Shm-backed allocator for the parent's seed pool, or ``None``.

        Each engine run gets a fresh allocator whose rotating ``pool.*``
        slots replace the previous run's segments, so per-chunk pool
        rebuilds never accumulate ``/dev/shm`` entries.
        """
        if self._arena is None:
            return None
        return self._arena.allocator("pool")

    # -- gather side ---------------------------------------------------------
    def _get_reply(self, worker: tuple):
        process, _, reply_q = worker
        while True:
            try:
                return reply_q.get(timeout=_GATHER_POLL_SECONDS)
            except queue_module.Empty:
                if not process.is_alive():
                    raise FuzzingError(
                        f"member worker pid={process.pid} died "
                        f"(exitcode {process.exitcode}) before replying"
                    ) from None

    def gather(self, expect_op: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Collect one reply per worker → stacked ``(labels, sims)``.

        Replies are read in member order; workers compute concurrently
        and each row lands as soon as its member finishes.  Worker
        compute seconds and encode counts accumulate into the group's
        stat block (see :meth:`drain_stats`).
        """
        labels_rows: list = [None] * self.n_members
        sims_rows: list = [None] * self.n_members
        for worker in self._workers:
            reply = self._get_reply(worker)
            if reply[0] == "error":
                raise FuzzingError(
                    f"member worker {reply[1]} failed:\n{reply[2]}"
                )
            op, member, labels, sims, n_encoded, encode_s, query_s = reply
            if op != expect_op:
                raise FuzzingError(
                    f"member worker {member} replied {op!r}, expected {expect_op!r}"
                )
            labels_rows[member] = labels
            sims_rows[member] = sims
            stats = self._stats
            stats["busy_seconds"] += encode_s + query_s
            stats["encode_seconds"] += encode_s
            stats["query_seconds"] += query_s
            if op == "predict":
                stats["member_encodes"] += n_encoded
                if member == 0:
                    stats["encoded_children"] += n_encoded
        labels = np.stack(labels_rows)
        sims = None if sims_rows[0] is None else np.stack(sims_rows)
        return labels, sims

    # -- telemetry -----------------------------------------------------------
    def reset_stats(self) -> None:
        self._stats = {
            "broadcast_bytes": 0,
            "busy_seconds": 0.0,
            "encode_seconds": 0.0,
            "query_seconds": 0.0,
            "member_encodes": 0,
            "encoded_children": 0,
        }

    def drain_stats(self) -> dict:
        """The accumulated worker-side stats since the last drain."""
        stats = self._stats
        self.reset_stats()
        return stats

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: stop + join every worker, then the arena.

        Falls back to ``terminate()`` only for workers that fail to
        drain their queue in time, so a healthy group always exits 0.
        """
        if self._closed:
            return
        self._closed = True
        for _, request_q, _ in self._workers:
            try:
                request_q.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for process, request_q, reply_q in self._workers:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join()
            request_q.close()
            reply_q.close()
        if self._arena is not None:
            self._arena.close()

    def __enter__(self) -> "MemberWorkerGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"MemberWorkerGroup(n_members={self.n_members}, "
            f"transport={self.transport!r}, alive={self.alive})"
        )


class _VoteGatherTarget(PredictionTarget):
    """Shared-codebook proxy: parent-side encode, worker-side AM queries.

    Wraps a :class:`~repro.fuzz.targets.SharedCodebookEnsembleTarget`
    so the stock batched engine runs unchanged — every surface except
    ``predict_hvs`` delegates to the wrapped target (encode, delta,
    reference, member bookkeeping all happen in the parent on the same
    arrays as lock-step), and ``predict_hvs`` broadcasts the encoded
    block to the K AM-only workers and stacks their vote rows.  The
    broadcast/gather wall-time lands in the recorder's IPC phases (they
    are sub-phases of the engine's ``query`` phase here).
    """

    def __init__(self, inner: PredictionTarget, group: MemberWorkerGroup, obs) -> None:
        self._inner = inner
        self._group = group
        self._obs = obs

    @property
    def members(self) -> tuple[Any, ...]:
        return self._inner.members

    @property
    def n_encode_blocks(self) -> int:
        return 1

    def member_shards(self):
        return self._inner.member_shards()

    def encode_batch(self, children: np.ndarray) -> tuple[np.ndarray, ...]:
        return self._inner.encode_batch(children)

    def predict_hvs(self, bundle, *, with_similarities: bool = False):
        if len(bundle) != 1:
            raise ConfigurationError(
                f"{len(bundle)} hypervector blocks for a shared-codebook "
                "ensemble (expected 1)"
            )
        obs = self._obs
        with obs.phase("broadcast"):
            nbytes = self._group.predict_hv(
                np.ascontiguousarray(bundle[0]), with_sims=with_similarities
            )
        obs.count("broadcast_bytes", nbytes)
        with obs.phase("gather"):
            labels, sims = self._group.gather("predict_hv")
        return TargetPredictions(labels, sims)

    def reference(self, predictions: TargetPredictions, index: int = 0):
        return self._inner.reference(predictions, index)

    def delta_encoder(self, domain: Any) -> Any:
        return self._inner.delta_encoder(domain)

    def delta_surface(self, encoder_handle: Any):
        return self._inner.delta_surface(encoder_handle)


class MemberShardedHDTest(BatchedHDTest):
    """The independent-codebook member-sharded engine.

    Runs the inherited lock-step loop
    (:meth:`~repro.fuzz.fuzzer.HDTest.fuzz_outcomes`) unchanged and
    overrides only its three seams, displacing the per-member encode +
    query step into the member workers: the reference pass and each
    iteration's evaluation broadcast raw blocks and assemble the
    gathered vote rows into the same
    :class:`~repro.fuzz.targets.TargetPredictions` the in-process path
    builds, so the parent's oracle / fitness / survival phases run the
    same code.  The survivor commit ships each input's selection back as
    an index order (:meth:`~repro.fuzz.seeds.SeedPoolBatch.update`'s
    return value), so every worker's per-member parent accumulators
    track the parent's pool without any score traffic.
    """

    def __init__(self, *args, group: MemberWorkerGroup, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self._target.n_members < 2:
            raise ConfigurationError(
                "member sharding needs an ensemble of >= 2 members; "
                "use the batched/process executors for single models"
            )
        if self._target.n_members != group.n_members:
            raise ConfigurationError(
                f"worker group holds {group.n_members} members but the "
                f"target has {self._target.n_members}"
            )
        self._group = group

    def _member_delta_allowed(self) -> bool:
        """Whether workers may delta-encode (their encoders permitting).

        Overridable test hook, like ``_delta_encoder`` for the
        in-process engines.  Per-member delta is decided worker-side, so
        mixed-width ensembles — which force the lock-step engine to
        scratch-encode (one shared accumulator width) — still get
        incremental encoding here, member by member.
        """
        return True

    # -- the shared loop's seams ---------------------------------------------
    def _reference_pass(self, originals: np.ndarray):
        """Workers encode + query the originals through their own member.

        The parent only assembles the vote rows; its seed pool carries
        no delta side data (each worker keeps its member's), and lives
        in the group's shared memory when the transport allows.
        """
        obs = self._obs
        group = self._group
        with obs.phase("broadcast"):
            nbytes = group.seed(originals, delta_on=self._member_delta_allowed())
        obs.count("broadcast_bytes", nbytes)
        with obs.phase("gather"):
            labels, _ = group.gather("seed")
        self._fold_worker_stats()
        n = originals.shape[0]
        obs.count("seed_encodes", n)
        obs.count("am_queries", n * self._target.n_members)
        pool = SeedPoolBatch(
            originals, self._config.top_n, allocator=group.pool_allocator()
        )
        return TargetPredictions(labels), pool, None

    def _evaluate(self, plans, pool, surface):
        """Broadcast the raw child block; every worker encodes + queries it.

        Stacking the workers' rows in member order reproduces the
        in-process :class:`~repro.fuzz.targets.TargetPredictions`
        exactly.  No per-plan bundle comes back: ensemble fitness scores
        the predictions alone.
        """
        obs = self._obs
        all_children = np.concatenate([children for _, children, _ in plans], axis=0)
        metas = [
            (state.index, parent_ids, len(children))
            for state, children, parent_ids in plans
        ]
        with obs.phase("broadcast"):
            nbytes = self._group.predict(
                all_children, metas, with_sims=self._fitness.needs_similarities
            )
        obs.count("broadcast_bytes", nbytes)
        with obs.phase("gather"):
            labels, sims = self._group.gather("predict")
        self._fold_worker_stats()
        obs.count("am_queries", len(all_children) * self._target.n_members)
        return TargetPredictions(labels, sims), [(None, None, None)] * len(plans)

    def _commit_survivors(self, orders) -> None:
        """Workers replay the parent's survivor orders on their side arrays.

        Delta path only: scratch-encoding workers keep no survivor state.
        """
        if orders and self._member_delta_allowed():
            with self._obs.phase("broadcast"):
                nbytes = self._group.commit(orders)
            self._obs.count("broadcast_bytes", nbytes)

    def _fold_worker_stats(self) -> None:
        """Fold the workers' compute time + encode counts into the recorder.

        Encode / query phase seconds sum across workers (like the
        process pool's shard deltas), and member 0's encode count stands
        for ``encoded_children`` (identical caches make every member's
        count equal — the lock-step engine encodes each missing child
        once per member too).
        """
        if not self._obs.enabled:
            return
        stats = self._group.drain_stats()
        self._obs.merge({
            "counters": {
                "encoded_children": stats["encoded_children"],
                "encodes": stats["member_encodes"],
            },
            "phase_seconds": {
                "encode": stats["encode_seconds"],
                "query": stats["query_seconds"],
            },
            "busy_seconds": stats["busy_seconds"],
        })


def create_member_engine(
    group: MemberWorkerGroup,
    model: Any,
    strategy: Any,
    *,
    telemetry=None,
    **engine_kwargs: Any,
) -> BatchedHDTest:
    """The right member-sharded engine for *model*'s target shape.

    Shared-codebook targets (one encode block) get the stock batched
    engine over a :class:`_VoteGatherTarget` proxy; independent
    ensembles get :class:`MemberShardedHDTest`.  Either way the parent
    runs mutation / oracle / fitness / survival and the workers answer
    member queries.
    """
    if not group.encodes_locally:
        from repro.fuzz.targets import resolve_target
        from repro.obs.recorder import NULL_TELEMETRY

        obs = telemetry if telemetry is not None else NULL_TELEMETRY
        proxy = _VoteGatherTarget(resolve_target(model), group, obs)
        return BatchedHDTest(proxy, strategy, telemetry=telemetry, **engine_kwargs)
    return MemberShardedHDTest(
        model, strategy, group=group, telemetry=telemetry, **engine_kwargs
    )
