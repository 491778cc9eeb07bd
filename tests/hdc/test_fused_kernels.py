"""Property tests at the fused encode kernels' exactness boundaries.

The blocked kernels in :mod:`repro.hdc.encoders._blocked` (and the
encoder methods built on them) pick compact ``int16`` partial-sum
dtypes whenever the block-wide change count guarantees exactness, and
widen to ``int64`` otherwise.  These tests pin the contract that makes
that choice invisible: on *any* block — empty deltas, everything
changed, blocks straddling the int16 safety bound, randomized mutation
chains — the fused result is bit-identical to the pre-fusion
one-``accumulate_delta``-call-per-child loop and to scratch
``accumulate_batch`` encoding, for every delta family and both
codebook kinds.  The threaded chunk loop is pinned the same way: any
thread count gives the one-thread result bit for bit, and no kernel
thread or per-thread buffer outlives its call.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.hdc.binary_model import BinaryPixelEncoder
from repro.hdc.encoders import _blocked
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.encoders.ngram import NgramEncoder
from repro.hdc.encoders.record import RecordEncoder

DIM = 96
CODEBOOKS = ["materialized", "rematerialized"]

# Largest per-child change count with exact int16 partial sums:
# bipolar corrections are ±2-bounded, binary corrections ±1-bounded.
BIPOLAR_INT16_SAFE = np.iinfo(np.int16).max // 2  # 16383
BINARY_INT16_SAFE = np.iinfo(np.int16).max  # 32767

# Per-child change counts either side of each family's int16 bound.
BIPOLAR_KS = [
    [BIPOLAR_INT16_SAFE - 1, BIPOLAR_INT16_SAFE],  # stays int16
    [BIPOLAR_INT16_SAFE, BIPOLAR_INT16_SAFE + 1],  # widens to int64
]
BINARY_KS = [
    [1, BINARY_INT16_SAFE],  # stays int16
    [1, BINARY_INT16_SAFE + 1],  # widens to int64
]


def per_row_delta(encoder, levels, parents, accs):
    """The pre-fusion reference: one ``accumulate_delta`` call per child."""
    return np.concatenate(
        [
            encoder.accumulate_delta(
                levels[i : i + 1], parents[i : i + 1], accs[i : i + 1]
            )
            for i in range(levels.shape[0])
        ]
    )


def assert_delta_exact(encoder, levels, parents, parent_accs, scratch):
    fused = encoder.accumulate_delta(levels, parents, parent_accs)
    looped = per_row_delta(encoder, levels, parents, parent_accs)
    np.testing.assert_array_equal(fused, looped)
    np.testing.assert_array_equal(fused, scratch)
    return fused


# -- randomized mutation chains (engine-shaped workloads) -------------------
@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_image_families_fused_chain(family, codebook):
    cls = PixelEncoder if family == "pixel" else BinaryPixelEncoder
    enc = cls(shape=(9, 7), levels=16, dimension=DIM, rng=11, codebook=codebook)
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, (6, 9, 7)).astype(np.float64)
    accs = enc.accumulate_batch(images)
    for frac in (0.05, 0.4, 1.0):
        children = images.copy().reshape(6, -1)
        for i in range(6):
            k = max(1, int(frac * children.shape[1]))
            idx = rng.choice(children.shape[1], size=k, replace=False)
            children[i, idx] = rng.integers(0, 256, k)
        children = children.reshape(6, 9, 7)
        accs = assert_delta_exact(
            enc,
            enc.quantize(children).reshape(6, -1),
            enc.quantize(images).reshape(6, -1),
            accs,
            enc.accumulate_batch(children),
        )
        images = children


@pytest.mark.parametrize("codebook", CODEBOOKS)
def test_ngram_fused_chain(codebook):
    enc = NgramEncoder(
        3, alphabet="abcdefgh", dimension=DIM, rng=13, codebook=codebook
    )
    rng = np.random.default_rng(17)
    codes = rng.integers(0, 8, (5, 14))
    accs = enc.accumulate_batch(codes)
    for n_mut in (1, 4, 14):
        children = codes.copy()
        for i in range(5):
            idx = rng.choice(14, size=n_mut, replace=False)
            children[i, idx] = rng.integers(0, 8, n_mut)
        accs = assert_delta_exact(
            enc,
            enc.quantize(children),
            enc.quantize(codes),
            accs,
            enc.accumulate_batch(children),
        )
        codes = children


@pytest.mark.parametrize(
    "codebook,level_encoding",
    [("materialized", "linear"), ("rematerialized", "random")],
)
def test_record_fused_chain(codebook, level_encoding):
    enc = RecordEncoder(
        20,
        levels=12,
        level_encoding=level_encoding,
        dimension=DIM,
        rng=19,
        codebook=codebook,
    )
    rng = np.random.default_rng(23)
    records = rng.random((6, 20))
    accs = enc.accumulate_batch(records)
    for n_mut in (2, 20):
        children = records.copy()
        for i in range(6):
            idx = rng.choice(20, size=n_mut, replace=False)
            children[i, idx] = rng.random(n_mut)
        accs = assert_delta_exact(
            enc,
            enc.quantize(children),
            enc.quantize(records),
            accs,
            enc.accumulate_batch(children),
        )
        records = children


# -- degenerate blocks ------------------------------------------------------
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_empty_delta_block_returns_parent_accumulators(family):
    cls = PixelEncoder if family == "pixel" else BinaryPixelEncoder
    enc = cls(shape=(5, 5), levels=8, dimension=DIM, rng=3)
    rng = np.random.default_rng(29)
    images = rng.integers(0, 256, (4, 5, 5)).astype(np.float64)
    accs = enc.accumulate_batch(images)
    levels = enc.quantize(images).reshape(4, -1)
    fused = enc.accumulate_delta(levels, levels, accs)
    np.testing.assert_array_equal(fused, accs)
    assert fused is not accs  # fresh block, parents untouched


def test_mixed_empty_and_full_rows_in_one_block():
    enc = PixelEncoder(shape=(6, 6), levels=8, dimension=DIM, rng=7)
    rng = np.random.default_rng(31)
    images = rng.integers(0, 256, (3, 6, 6)).astype(np.float64)
    accs = enc.accumulate_batch(images)
    children = images.copy()
    # row 0: unchanged; row 1: one pixel; row 2: every pixel changed
    children[1, 2, 3] = (children[1, 2, 3] + 128.0) % 256.0
    children[2] = (children[2] + 64.0) % 256.0
    assert_delta_exact(
        enc,
        enc.quantize(children).reshape(3, -1),
        enc.quantize(images).reshape(3, -1),
        accs,
        enc.accumulate_batch(children),
    )


# -- int16 / int64 partial-sum crossover ------------------------------------
def _boundary_images(shape, ks):
    """All-zero parents plus children with exactly ``k`` changed pixels."""
    n_pixels = shape[0] * shape[1]
    parents = np.zeros((len(ks), n_pixels), dtype=np.float64)
    children = parents.copy()
    for i, k in enumerate(ks):
        children[i, :k] = 255.0
    return (
        parents.reshape(len(ks), *shape),
        children.reshape(len(ks), *shape),
    )


@pytest.mark.parametrize("ks", BIPOLAR_KS)
def test_bipolar_int16_crossover(ks):
    shape = (129, 128)  # 16512 pixels > int16-safe bound
    enc = PixelEncoder(shape=shape, levels=4, dimension=32, rng=41)
    parents, children = _boundary_images(shape, ks)
    assert_delta_exact(
        enc,
        enc.quantize(children).reshape(len(ks), -1),
        enc.quantize(parents).reshape(len(ks), -1),
        enc.accumulate_batch(parents),
        enc.accumulate_batch(children),
    )


@pytest.mark.parametrize("ks", BINARY_KS)
def test_binary_int16_crossover(ks):
    shape = (256, 129)  # 33024 pixels > int16-safe bound
    enc = BinaryPixelEncoder(shape=shape, levels=4, dimension=32, rng=43)
    parents, children = _boundary_images(shape, ks)
    assert_delta_exact(
        enc,
        enc.quantize(children).reshape(len(ks), -1),
        enc.quantize(parents).reshape(len(ks), -1),
        enc.accumulate_batch(parents),
        enc.accumulate_batch(children),
    )


# -- threaded chunk loop ----------------------------------------------------
@pytest.fixture(params=[1, 2, 3, 4])
def threads(request, monkeypatch):
    """Force the kernel thread count; tiny chunks and no gate, so every
    block in these tests splits into several chunks and threads."""
    monkeypatch.setattr(_blocked, "_thread_count", lambda: request.param)
    monkeypatch.setattr(_blocked, "MIN_THREADED_CHUNKS", 1)
    monkeypatch.setattr(_blocked, "BLOCK_ELEMS", 4 * DIM)
    return request.param


def one_thread(monkeypatch, kernel, *args, **kwargs):
    """*kernel*'s result on the calling thread alone."""
    with monkeypatch.context() as m:
        m.setattr(_blocked, "_thread_count", lambda: 1)
        return kernel(*args, **kwargs)


def _image_encoder(family, codebook, shape=(9, 7), dimension=DIM):
    cls = PixelEncoder if family == "pixel" else BinaryPixelEncoder
    return cls(shape=shape, levels=16, dimension=dimension, rng=47,
               codebook=codebook)


def assert_threads_exact(monkeypatch, enc, levels, parents, int16_safe):
    """Both kernels, threaded vs one thread, on one (levels, parents) block."""
    binary = isinstance(enc, BinaryPixelEncoder)
    pos, val = enc._position_memory, enc._value_memory
    base = np.arange(levels.shape[0] * enc.dimension, dtype=np.int64).reshape(
        levels.shape[0], enc.dimension
    )

    def delta():
        return _blocked.fused_delta_into(
            base.copy(), pos, val, levels, parents,
            int16_safe=int16_safe, binary=binary,
        )

    np.testing.assert_array_equal(delta(), one_thread(monkeypatch, delta))
    np.testing.assert_array_equal(
        _blocked.grouped_products(pos.vectors, val.vectors, levels),
        one_thread(
            monkeypatch, _blocked.grouped_products,
            pos.vectors, val.vectors, levels,
        ),
    )


@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_threaded_kernels_match_one_thread(threads, monkeypatch, family, codebook):
    enc = _image_encoder(family, codebook)
    rng = np.random.default_rng(53)
    n_pixels = 9 * 7
    parents = rng.integers(0, 16, (12, n_pixels))
    levels = parents.copy()
    # Ragged rows: nothing, one pixel, a few, half, everything changed.
    for i, k in enumerate([0, 1, 3, 0, 31, 63, 2, 0, 17, 63, 1, 5]):
        idx = rng.choice(n_pixels, size=k, replace=False)
        levels[i, idx] = (levels[i, idx] + 1 + rng.integers(0, 15, k)) % 16
    int16_safe = BINARY_INT16_SAFE if family == "binary" else BIPOLAR_INT16_SAFE
    assert_threads_exact(monkeypatch, enc, levels, parents, int16_safe)
    # An all-empty delta block returns its parents untouched.
    assert_threads_exact(monkeypatch, enc, parents, parents, int16_safe)


@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_threaded_fused_chain(threads, family, codebook):
    # The encoder surface too: per-child loop == fused == scratch.
    test_image_families_fused_chain(family, codebook)


@pytest.mark.parametrize("ks", BIPOLAR_KS)
def test_threaded_bipolar_int16_crossover(threads, monkeypatch, ks):
    shape = (129, 128)
    enc = PixelEncoder(shape=shape, levels=4, dimension=32, rng=41)
    parents, children = _boundary_images(shape, ks)
    assert_threads_exact(
        monkeypatch, enc,
        enc.quantize(children).reshape(len(ks), -1),
        enc.quantize(parents).reshape(len(ks), -1),
        BIPOLAR_INT16_SAFE,
    )


@pytest.mark.parametrize("ks", BINARY_KS)
def test_threaded_binary_int16_crossover(threads, monkeypatch, ks):
    shape = (256, 129)
    enc = BinaryPixelEncoder(shape=shape, levels=4, dimension=32, rng=43)
    parents, children = _boundary_images(shape, ks)
    assert_threads_exact(
        monkeypatch, enc,
        enc.quantize(children).reshape(len(ks), -1),
        enc.quantize(parents).reshape(len(ks), -1),
        BINARY_INT16_SAFE,
    )


def test_threaded_call_leaves_no_threads(threads, monkeypatch):
    enc = _image_encoder("pixel", "materialized")
    rng = np.random.default_rng(59)
    parents = rng.integers(0, 16, (8, 63))
    levels = (parents + 1) % 16
    used = []
    gather = _blocked.gather_rows

    def spy(*args, **kwargs):
        thread = threading.current_thread()  # idents can be recycled
        if thread not in used:
            used.append(thread)
        return gather(*args, **kwargs)

    monkeypatch.setattr(_blocked, "gather_rows", spy)
    before = threading.active_count()
    _blocked.fused_delta_into(
        np.zeros((8, DIM), dtype=np.int64), enc._position_memory,
        enc._value_memory, levels, parents, int16_safe=BIPOLAR_INT16_SAFE,
    )
    assert threading.active_count() == before
    assert len(used) == threads  # 8 single-child chunks over every slot


def test_threaded_call_reraises_worker_errors(monkeypatch):
    monkeypatch.setattr(_blocked, "_thread_count", lambda: 3)
    monkeypatch.setattr(_blocked, "MIN_THREADED_CHUNKS", 1)
    before = threading.active_count()

    def work(slot, chunk):
        if chunk == 4:
            raise ValueError("chunk 4")

    with pytest.raises(ValueError, match="chunk 4"):
        _blocked._run_chunks(work, range(6))
    assert threading.active_count() == before


def test_threaded_stress_more_threads_than_cores(monkeypatch):
    # Eight slots on any host, thread switches forced every microsecond:
    # a shared buffer or an overlapping row write would show up here.
    monkeypatch.setattr(_blocked, "MIN_THREADED_CHUNKS", 1)
    monkeypatch.setattr(_blocked, "BLOCK_ELEMS", 4 * DIM)
    enc = _image_encoder("binary", "rematerialized")
    rng = np.random.default_rng(67)
    parents = rng.integers(0, 16, (40, 63))
    levels = np.where(rng.random(parents.shape) < 0.3, (parents + 3) % 16, parents)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(_blocked, "_thread_count", lambda: 8)
        assert_threads_exact(monkeypatch, enc, levels, parents, BINARY_INT16_SAFE)
    finally:
        sys.setswitchinterval(interval)


def _report_thread_count(queue):
    queue.put(_blocked._thread_count())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_worker_uses_one_thread(monkeypatch):
    monkeypatch.setattr(_blocked, "_THREAD_COUNT", (-1, 1))
    monkeypatch.setattr(
        _blocked.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
    )
    assert _blocked._thread_count() == 4  # cached for this process ID
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_report_thread_count, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == 1
    finally:
        child.join(timeout=30)
    assert not child.is_alive()
    assert _blocked._thread_count() == 4


def test_gather_buffers_stay_bounded(monkeypatch):
    monkeypatch.setattr(_blocked, "_GATHER_BUFFERS", {})
    monkeypatch.setattr(_blocked, "MIN_THREADED_CHUNKS", 1)
    monkeypatch.setattr(_blocked, "BLOCK_ELEMS", 4 * 64)
    rng = np.random.default_rng(61)
    dimensions = (32, 64)
    encoders = {d: _image_encoder("pixel", "materialized", dimension=d)
                for d in dimensions}
    for call in range(100):
        n_threads = 1 + call % 4
        monkeypatch.setattr(_blocked, "_thread_count", lambda n=n_threads: n)
        enc = encoders[dimensions[call % 2]]
        parents = rng.integers(0, 16, (int(rng.integers(1, 12)), 63))
        levels = (parents + rng.integers(0, 2, parents.shape)) % 16
        _blocked.fused_delta_into(
            np.zeros((parents.shape[0], enc.dimension), dtype=np.int64),
            enc._position_memory, enc._value_memory, levels, parents,
            int16_safe=BIPOLAR_INT16_SAFE,
        )
    keys = set(_blocked._GATHER_BUFFERS)
    assert keys <= {(d, slot) for d in dimensions for slot in range(4)}
    assert len(keys) <= 4 * len(dimensions)
