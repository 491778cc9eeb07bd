"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps public methods of the ``repro`` modules (and the
stdlib process pool the executors use) with spans.  Each span belongs to
a *layer*, named after the module it times.  Spans are aggregated in
memory per ``(phase, layer)``:

* ``calls`` and layer-specific work counts (rows, children, lookups, …),
  taken from the outermost call of a layer only, so a layer calling
  itself (``predict`` → ``similarities``) is not counted twice;
* ``busy_s`` — wall time inside the layer's outermost spans;
* ``self_s`` — span duration minus the time its child spans cover.

The dedupe cache counts ``lookups`` and ``hits`` per child *request*:
through ``resolve_with_cache`` (the sequential engine), a request is a
hit when it needs no encode, in-iteration duplicates included; the
batched engine consults ``LRUCache.get`` directly, once per distinct
child, and those calls count instead.

Forked executor workers inherit the installed wrappers.  Each worker
sends the aggregate of every shard it ran back through a pipe created
before the pool forks, so worker-side spans are collected too.  When
the platform does not fork, only parent-side spans exist, and
:attr:`Tracer.worker_spans` says so.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.pool
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional

__all__ = ["Tracer", "merge_stats"]

Measure = Callable[[tuple, dict, Any], dict]


def _rows(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": len(args[0])}


def _result_rows(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": len(result)}


def _accepted(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"checked": len(result), "accepted": int(result.sum())}


def _pool_workers(args: tuple, kwargs: dict, result: Any) -> dict:
    processes = kwargs.get("processes", args[0] if args else None)
    return {"workers": int(processes or os.cpu_count() or 1)}


def _subclasses(root: type) -> list[type]:
    seen, stack = [], [root]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


def _layer_methods() -> list[tuple[type, str, str, Optional[Measure]]]:
    """``(class, method, layer, measure)`` for every traced boundary."""
    from repro.fuzz.constraints import Constraint
    from repro.fuzz.fitness import FitnessFunction
    from repro.fuzz.mutations import MutationStrategy
    from repro.fuzz.oracle import DifferentialOracle
    from repro.fuzz.seeds import SeedPool, SeedPoolBatch
    from repro.hdc.associative_memory import AssociativeMemory
    from repro.hdc.backends.bipolar import PackedBipolarAssociativeMemory
    from repro.hdc.encoders.base import Encoder

    per_class = [
        (Encoder, "accumulate_delta", "hdc.encoders.delta", _rows),
        (Encoder, "accumulate_batch", "hdc.encoders.scratch", _rows),
        (Encoder, "hvs_from_accumulators", "hdc.encoders.threshold", _rows),
        (MutationStrategy, "mutate", "fuzz.mutations", _result_rows),
        (Constraint, "clip", "fuzz.constraints", None),
        (Constraint, "accept", "fuzz.constraints", _accepted),
        (Constraint, "measure", "fuzz.constraints", None),
        (FitnessFunction, "scores", "fuzz.fitness", _result_rows),
        (FitnessFunction, "scores_ensemble", "fuzz.fitness", _result_rows),
        (DifferentialOracle, "discrepancies", "fuzz.oracle", None),
        (DifferentialOracle, "discrepancies_ensemble", "fuzz.oracle", None),
        (DifferentialOracle, "reference_discrepancy", "fuzz.oracle", None),
    ]
    methods = [
        (cls, name, layer, measure)
        for root, name, layer, measure in per_class
        for cls in _subclasses(root)
        if name in vars(cls)
    ]
    for memory in (AssociativeMemory, PackedBipolarAssociativeMemory):
        methods += [
            (memory, "add", "hdc.associative_memory.write", _rows),
            (memory, "subtract", "hdc.associative_memory.write", _rows),
            (memory, "similarities", "hdc.associative_memory.query", _rows),
            (memory, "predict", "hdc.associative_memory.query", _rows),
        ]
    methods += [
        (SeedPool, "update", "fuzz.seeds", None),
        (SeedPoolBatch, "update", "fuzz.seeds", None),
        (multiprocessing.pool.Pool, "__init__", "fuzz.executor.broadcast", _pool_workers),
        (multiprocessing.pool.Pool, "map", "fuzz.executor.gather", None),
    ]
    return methods


def _new_stats() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0}


def merge_stats(into: dict, other: dict) -> None:
    """Add the ``(phase, layer)`` aggregates of *other* into *into*."""
    for key, stats in other.items():
        target = into.setdefault(key, _new_stats())
        for name, value in stats.items():
            target[name] = target.get(name, 0) + value


class Tracer:
    """Span recorder over the program's public layer boundaries.

    Use :meth:`installed` around the code to trace; :meth:`phase` tags
    the spans recorded inside it (``"setup"`` or ``"fuzz"``).
    :attr:`stats` holds the parent's aggregates and
    :attr:`worker_stats` those sent back by forked executor workers.
    """

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], dict] = {}
        self.worker_stats: dict[tuple[str, str], dict] = {}
        self.worker_spans = multiprocessing.get_start_method() == "fork"
        self._phase = "setup"
        self._resolving = 0
        self._stack: list[list] = []  # [layer, start, child_seconds]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._queue = None

    # -- recording ------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Tag the spans recorded inside the block with phase *name*."""
        previous, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = previous

    @contextmanager
    def span(self, layer: str):
        """Record one span of *layer* around the block."""
        self._open(layer)
        try:
            yield
        finally:
            self._close(layer, None)

    def _open(self, layer: str) -> None:
        self._depth[layer] = self._depth.get(layer, 0) + 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _close(self, layer: str, counts: Optional[dict]) -> None:
        _, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        stats = self._stats(layer)
        stats["self_s"] += duration - child
        if depth == 0:
            stats["calls"] += 1
            stats["busy_s"] += duration
            self._count(layer, **(counts or {}))

    def _stats(self, layer: str) -> dict:
        stats = self.stats.get((self._phase, layer))
        if stats is None:
            stats = self.stats[(self._phase, layer)] = _new_stats()
        return stats

    def _count(self, layer: str, **counts: int) -> None:
        stats = self._stats(layer)
        for name, value in counts.items():
            stats[name] = stats.get(name, 0) + value

    def _wrapper(self, original: Callable, layer: str, measure: Optional[Measure]):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open(layer)
            counts = None
            try:
                result = original(*args, **kwargs)
                if measure is not None and self._depth[layer] == 1:
                    counts = measure(args[1:], kwargs, result)
                return result
            finally:
                self._close(layer, counts)

        return traced

    # -- installation ---------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _install(self) -> None:
        for cls, name, layer, measure in _layer_methods():
            self._patch(cls, name, self._wrapper(vars(cls)[name], layer, measure))
        from repro.utils import cache

        self._patch(cache.LRUCache, "get", self._wrapper(
            cache.LRUCache.get, "utils.cache", self._direct_lookup
        ))
        resolve = cache.resolve_with_cache
        counted = self._resolve_entry(resolve)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and vars(module).get("resolve_with_cache") is resolve
            ):
                self._patch(module, "resolve_with_cache", counted)
        if self.worker_spans:
            from repro.fuzz import executor

            self._queue = multiprocessing.get_context("fork").SimpleQueue()
            self._patch(
                executor, "_process_worker_run",
                self._worker_entry(executor._process_worker_run),
            )

    def _uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        if self._queue is not None:
            self.collect_workers()
            self._queue.close()
            self._queue = None

    def _direct_lookup(self, args: tuple, kwargs: dict, result: Any) -> dict:
        """Count an ``LRUCache.get`` made outside ``resolve_with_cache``."""
        if self._resolving:
            return {}
        return {"lookups": 1, "hits": int(result is not None)}

    def _resolve_entry(self, original: Callable) -> Callable:
        """``resolve_with_cache`` that counts requests and the ones encoded."""

        @functools.wraps(original)
        def counted(cache, keys, compute_missing):
            computed = 0

            def compute(positions):
                nonlocal computed
                computed += len(positions)
                return compute_missing(positions)

            self._resolving += 1
            try:
                return original(cache, keys, compute)
            finally:
                self._resolving -= 1
                self._count("utils.cache", lookups=len(keys), hits=len(keys) - computed)

        return counted

    def _worker_entry(self, original: Callable) -> Callable:
        """Worker-side shard entry point that ships the shard's spans home.

        Keeps the original's module and qualified name, so the pool
        still pickles it by reference.
        """

        @functools.wraps(original)
        def run_shard(shard):
            self.stats = {}
            try:
                return original(shard)
            finally:
                self._queue.put(self.stats)

        return run_shard

    def collect_workers(self) -> None:
        """Merge every worker aggregate sent so far into :attr:`worker_stats`.

        Call after the pool's ``map`` returned: each worker puts its
        shard's aggregate before returning the shard's result.
        """
        if self._queue is None:
            return
        while not self._queue.empty():
            merge_stats(self.worker_stats, self._queue.get())

    def combined(self) -> dict[tuple[str, str], dict]:
        """Parent and worker aggregates summed per ``(phase, layer)``."""
        total: dict[tuple[str, str], dict] = {}
        merge_stats(total, self.stats)
        merge_stats(total, self.worker_stats)
        return total
