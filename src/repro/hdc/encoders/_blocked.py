"""Fused cross-child encode kernels shared by the encoder families.

Every delta encoder used to loop over children in Python — one gather,
one multiply, one reduction *per child* — which PR-7 phase telemetry
showed was ~90 % of batched campaign wall time.  The helpers here turn
those loops into O(1) kernel calls per block:

* :func:`fused_delta_into` — the ragged-scatter correction kernel: the
  ``levels != parents`` mask over the whole ``(n, P)`` block becomes
  flat (child, pixel) COO indices, codebook rows are gathered once
  (deduped for rematerialized codebooks, so each touched row is
  generated once per block), and corrections are segment-summed into
  the ``(n, D)`` accumulator block with exact integer algebra.
* :func:`grouped_products` — the blocked scratch-encode kernel: the
  per-child ``Σ_p pos_p ⊛ val[level_p]`` einsum becomes a level-grouped
  identity ``Σ_l val_l ⊛ (Σ_{p: level_p=l} pos_p)`` — P×D multiply-adds
  turn into int8 segmented sums plus at most ``min(L, P)``×D
  multiplies per child, batched over children.
* :func:`level_histogram` — per-child level occupancy counts, the
  matmul half of the binary XOR identity.

All kernels are exact in integers, so results are elementwise equal to
the per-child loops they replace (property-tested at the int16
partial-sum boundaries in ``tests/hdc/test_fused_kernels.py``).
Blocks are internally chunked so peak temporary memory stays bounded
regardless of how many children are fused into one call.

Large blocks run their chunks on short-lived threads (numpy releases
the GIL in the gathers, ufuncs and reductions).  Every chunk covers
whole children and writes only their rows of the output, so the result
is bit-identical for any thread count.  The count is the process's CPU
affinity (``taskset`` limits it) and 1 inside ``multiprocessing``
workers, so worker processes do not oversubscribe the host.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np

from repro.hdc.item_memory import RematerializedItemMemory

__all__ = [
    "BLOCK_ELEMS",
    "bipolar_sign",
    "fused_delta_into",
    "gather_rows",
    "grouped_products",
    "level_histogram",
]


def bipolar_sign(accumulators: np.ndarray) -> np.ndarray:
    """Eq. 1 binarization ``acc >= 0 → +1 else −1`` as compact int8.

    Semantically ``np.where(accs >= 0, 1, -1).astype(np.int8)``, but
    without materializing the intermediate at the accumulator's (wide)
    dtype: the comparison writes straight into the int8 result through
    a bool view, and ``2x − 1`` maps {0, 1} onto {−1, +1} in place.
    On the engine's (n, 10 000) int64 blocks this is ~5× less memory
    traffic, and thresholding was the single largest item in the encode
    phase profile after the kernels were fused.
    """
    accs = np.asarray(accumulators)
    out = np.empty(accs.shape, dtype=np.int8)
    np.greater_equal(accs, 0, out=out.view(np.bool_))
    np.multiply(out, 2, out=out)
    np.subtract(out, 1, out=out)
    return out

#: Elements (int8) a fused kernel may materialize per chunk.  Sized so
#: a chunk's working set (three gathered row blocks, ~1 MB each) stays
#: L2-resident: larger chunks turn the gather→subtract→multiply→reduce
#: pipeline into repeated DRAM passes and measure up to ~2× slower on
#: dense delta blocks.  Chunks align to child boundaries, so a single
#: child larger than the budget still encodes (using exactly the memory
#: a per-child loop did).
BLOCK_ELEMS = 1 << 20


def gather_rows(memory, rows: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """``memory.take(rows)``, generating each distinct row once.

    Materialized codebooks fancy-index directly (a dedupe pass would
    only add a second copy); rematerialized codebooks regenerate rows
    from their PRF on every ``take``, so gathering the unique rows and
    fanning out with the inverse map makes each touched codebook row
    exist once per block instead of once per (child, pixel) occurrence.

    *out*, when given, receives the gathered rows (first ``len(rows)``
    rows of it) — the chunked kernels pass one reused buffer so each
    chunk does not page-fault a fresh multi-MB allocation.  The ``out=``
    takes use ``mode="clip"``: with the default ``"raise"`` numpy drops
    to a buffered bounds-checking path that measures ~3× slower, and
    every index here is valid by construction (levels come from
    ``quantize``, columns from ``nonzero`` of a level mask).
    """
    if isinstance(memory, RematerializedItemMemory):
        uniq, inv = np.unique(rows, return_inverse=True)
        generated = memory.take(uniq)
        if out is None:
            return generated[inv]
        np.take(generated, inv, axis=0, out=out[: rows.size], mode="clip")
        return out[: rows.size]
    if out is None:
        return memory.take(rows)
    np.take(memory.vectors, rows, axis=0, out=out[: rows.size], mode="clip")
    return out[: rows.size]


def _child_chunks(bounds: np.ndarray, n: int, max_rows: int):
    """Yield ``(lo, hi)`` child ranges whose flat entries fit *max_rows*."""
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and bounds[hi + 1] - bounds[lo] <= max_rows:
            hi += 1
        yield lo, hi
        lo = hi


def _segment_breaks(ids: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first entry of each run in *ids*."""
    breaks = np.empty(ids.size, dtype=bool)
    breaks[0] = True
    np.not_equal(ids[1:], ids[:-1], out=breaks[1:])
    return breaks


def segment_reduce(
    block: np.ndarray, starts: np.ndarray, sum_dtype
) -> np.ndarray:
    """Column sums of consecutive row segments of *block*.

    Semantically ``np.add.reduceat(block, starts, axis=0, dtype=...)``,
    but ``reduceat`` has no vectorised inner loop — it pays ~30× per
    element over ``np.add.reduce`` at these shapes — so each segment is
    reduced with one vectorised ``reduce`` instead.  The Python-level
    loop is per *segment* (per child), not per row, and measures
    10–40× faster than ``reduceat`` across the engine's workload shapes
    (a few long segments through thousands of short ones).
    """
    # (np.r_ would read nicer but costs ~30 µs per call — this helper
    # runs once per chunk on the hot path.)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = block.shape[0]
    out = np.empty((starts.size, block.shape[1]), dtype=sum_dtype)
    for i in range(starts.size):
        np.add.reduce(
            block[starts[i] : ends[i]], axis=0, dtype=sum_dtype, out=out[i]
        )
    return out


#: Fewest chunks a kernel call must plan before its chunk loop is split
#: across threads.  Below it the calling thread runs every chunk, as
#: an unthreaded kernel would.  The sparse delta encodes of the
#: sequential engine plan 1–9 chunks per call and stay there; the
#: dense delta blocks of a batched ``gauss`` campaign plan 16–264.
MIN_THREADED_CHUNKS = 16

_THREAD_COUNT: tuple[int, int] = (-1, 1)  # (pid, thread count)


def _thread_count() -> int:
    """Threads a large kernel call may use, computed once per process.

    The CPU affinity in the main process; 1 inside a ``multiprocessing``
    child, whose siblings already occupy the other cores.  Keyed by
    process ID so a forked child recomputes rather than inheriting.
    """
    global _THREAD_COUNT
    pid = os.getpid()
    if _THREAD_COUNT[0] != pid:
        if multiprocessing.parent_process() is not None:
            count = 1
        elif hasattr(os, "sched_getaffinity"):
            count = len(os.sched_getaffinity(0))
        else:
            count = os.cpu_count() or 1
        _THREAD_COUNT = (pid, count)
    return _THREAD_COUNT[1]


def _run_chunks(work, chunks) -> None:
    """Call ``work(slot, chunk)`` for every chunk, split across threads.

    Below :data:`MIN_THREADED_CHUNKS` the calling thread runs every
    chunk in order (slot 0).  Otherwise slot ``s`` of
    ``min(_thread_count(), len(chunks))`` runs ``chunks[s::slots]``:
    the calling thread runs slot 0 and the others run on threads that
    are joined before this returns, so no thread outlives a kernel call
    (a later ``fork`` stays safe).  The first exception any slot raises
    is re-raised.
    """
    slots = 1
    if len(chunks) >= MIN_THREADED_CHUNKS:
        slots = min(_thread_count(), len(chunks))
    if slots <= 1:
        for chunk in chunks:
            work(0, chunk)
        return
    errors = []

    def run(slot: int) -> None:
        try:
            for chunk in chunks[slot::slots]:
                work(slot, chunk)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(s,)) for s in range(1, slots)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


#: Reused int8 gather buffers, keyed by ``(dimension, slot)``.  A fused
#: call gathers into the same three buffers every chunk — and every
#: *call* reuses the process-wide set, because a fresh multi-MB
#: ``np.empty`` per call is mmap'd and page-faults on first touch,
#: which profiling showed dominating sparse engine iterations.  Each
#: thread slot of a split call owns one set (slots, not thread
#: identities, so short-lived threads add no entries), and kernel
#: threads are joined before a call returns, so no two threads ever
#: share a set and the cache holds one set per (dimension, slot).
_GATHER_BUFFERS: dict[tuple[int, int], list[np.ndarray]] = {}


def _chunk_buffers(n_rows: int, dimension: int, slot: int) -> list[np.ndarray]:
    bufs = _GATHER_BUFFERS.get((dimension, slot))
    if bufs is None or bufs[0].shape[0] < n_rows:
        bufs = [np.empty((n_rows, dimension), dtype=np.int8) for _ in range(3)]
        _GATHER_BUFFERS[(dimension, slot)] = bufs
    return bufs


def fused_delta_into(
    out: np.ndarray,
    pos_memory,
    val_memory,
    levels: np.ndarray,
    parents: np.ndarray,
    *,
    int16_safe: int,
    binary: bool = False,
) -> np.ndarray:
    """Scatter-add child-vs-parent corrections into *out*, one ragged block.

    *out* is the ``(n, D)`` int64 block already holding each child's
    parent accumulator; rows whose levels equal their parent's are left
    untouched.  Corrections are ``pos_p ⊛ (val[c_p] − val[s_p])`` for
    bipolar codebooks and ``(pos_p ⊕ val[c_p]) − (pos_p ⊕ val[s_p])``
    for binary ones — both exact in integers, so the result is
    elementwise equal to the per-child loop this replaces.

    Children are sorted by changed count and packed into rectangular
    ``(m, kmax, D)`` chunks (pad lanes zeroed before the reduction), so
    each chunk's per-child sums collapse into a single vectorised
    ``np.add.reduce`` over the middle axis — mutators that change a
    fixed number of components per child (``rand``, ``row_col_rand``)
    pad nothing at all, and near-uniform blocks pad a sliver.

    *int16_safe* is the family's partial-sum exactness bound (the
    largest per-child changed count whose correction sum provably fits
    int16); blocks staying under it use compact int16 segment sums,
    larger ones widen to int64 rather than silently wrapping.
    """
    mask = levels != parents
    counts = np.count_nonzero(mask, axis=1)
    if not counts.any():
        return out
    rows, cols = np.nonzero(mask)
    new_lv = levels[mask]
    old_lv = parents[mask]
    dimension = out.shape[1]
    sum_dtype = np.int16 if int(counts.max()) <= int16_safe else np.int64
    bounds = np.concatenate(([0], np.cumsum(counts)))
    active = np.flatnonzero(counts)
    order = active[np.argsort(counts[active], kind="stable")]
    budget = max(1, BLOCK_ELEMS // dimension)
    chunks = []  # (ids, kmax) rectangular chunk plans
    a = 0
    while a < order.size:
        b = a + 1
        # counts are sorted, so counts[order[b]] is the running max and
        # (b + 1 - a) * it bounds the padded chunk size.
        while b < order.size and (b + 1 - a) * int(counts[order[b]]) <= budget:
            b += 1
        chunks.append((order[a:b], int(counts[order[b - 1]])))
        a = b
    buf_rows = max(ids.size * kmax for ids, kmax in chunks)

    def encode_chunk(slot, plan):
        ids, kmax = plan
        pos_buf, new_buf, old_buf = _chunk_buffers(buf_rows, dimension, slot)
        m = ids.size
        k = counts[ids]
        # Flat COO positions of each child's changed entries, padded to
        # kmax per child; pad lanes repeat the child's last entry (any
        # valid index works — they are zeroed before the reduction).
        lane = np.arange(kmax, dtype=np.int64)
        src = bounds[ids][:, None] + np.minimum(lane[None, :], k[:, None] - 1)
        src = src.ravel()
        pos_rows = gather_rows(pos_memory, cols[src], out=pos_buf)
        corr = gather_rows(val_memory, new_lv[src], out=new_buf)
        old_rows = gather_rows(val_memory, old_lv[src], out=old_buf)
        if binary:
            # {0,1} rows: each correction component lands in {-1, 0, 1}.
            np.bitwise_xor(pos_rows, corr, out=corr)
            np.bitwise_xor(pos_rows, old_rows, out=old_rows)
            np.subtract(corr, old_rows, out=corr)
        else:
            # ±1 rows: differences are {-2, 0, 2} and so are the products.
            np.subtract(corr, old_rows, out=corr)
            np.multiply(pos_rows, corr, out=corr)
        corr = corr.reshape(m, kmax, dimension)
        pad = lane[None, :] >= k[:, None]
        if pad.any():
            corr[pad] = 0
        # Per-chunk partial-sum dtype: components are ±2-bounded, so a
        # chunk summing kmax lanes fits int8 whenever 2·kmax ≤ 127 —
        # sparse mutators (a handful of changed entries) halve the
        # reduce-output and scatter-read traffic this way.  The scatter
        # add itself upcasts to ``out``'s dtype, which is exact.
        chunk_dtype = np.int8 if 2 * kmax <= np.iinfo(np.int8).max else sum_dtype
        out[ids] += np.add.reduce(corr, axis=1, dtype=chunk_dtype)

    _run_chunks(encode_chunk, chunks)
    return out


def grouped_products(
    pos_vectors: np.ndarray, val_vectors: np.ndarray, levels_block: np.ndarray
) -> np.ndarray:
    """``Σ_p pos_p ⊛ val[levels[i, p]]`` for every child *i*, level-grouped.

    Sorting each child's pixels by level turns the P×D gather-multiply
    into pure int8 segmented sums of position rows followed by one
    multiply per distinct (child, level) segment — the blocked identity
    ``acc_i = Σ_l val_l ⊛ (Σ_{p: level_ip=l} pos_p)``.  Exact integer
    algebra throughout, so the result equals the einsum formulation
    elementwise.  Works for ±1 and {0, 1} codebooks alike (segment sums
    are bounded by the pixel count either way).
    """
    n, n_pixels = levels_block.shape
    dimension = pos_vectors.shape[1]
    out = np.empty((n, dimension), dtype=np.int64)
    if n == 0:
        return out
    sum_dtype = np.int16 if n_pixels <= np.iinfo(np.int16).max else np.int64
    chunk = max(1, BLOCK_ELEMS // (n_pixels * dimension))

    def encode_chunk(slot, lo):
        lv = levels_block[lo : lo + chunk]
        c = lv.shape[0]
        order = np.argsort(lv, axis=1, kind="stable")
        sorted_lv = np.take_along_axis(lv, order, axis=1).ravel()
        child_ids = np.repeat(np.arange(c), n_pixels)
        breaks = _segment_breaks(sorted_lv)
        breaks[1:] |= child_ids[1:] != child_ids[:-1]
        starts = np.flatnonzero(breaks)
        seg = segment_reduce(pos_vectors[order.ravel()], starts, sum_dtype)
        prod = seg * val_vectors[sorted_lv[starts]]
        child_starts = np.flatnonzero(_segment_breaks(child_ids[starts]))
        out[lo : lo + c] = segment_reduce(prod, child_starts, np.int64)

    _run_chunks(encode_chunk, range(0, n, chunk))
    return out


def level_histogram(levels_block: np.ndarray, n_levels: int) -> np.ndarray:
    """Per-child level occupancy counts ``(n, L)`` in one bincount."""
    n = levels_block.shape[0]
    offsets = levels_block + (np.arange(n, dtype=np.int64)[:, None] * n_levels)
    return np.bincount(offsets.ravel(), minlength=n * n_levels).reshape(n, n_levels)
