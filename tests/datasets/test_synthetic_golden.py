"""Golden digests and a full-field reference for the synthetic digit generator.

Every trained model, fuzz pool and benchmark in this repository starts
from :func:`load_digits`, so its bytes are a contract: a change to the
renderer that moves one pixel changes every downstream result.  The
digests below are sha256 sums over the images and labels of the
``(n_train, n_test, seed)`` splits that the benchmark and the test
fixtures load, recorded before the renderer learned to crop its
distance field.

The property test compares the generator with a copy of that earlier
renderer, which builds the stroke skeletons per image and measures the
distance from *every* pixel to *every* segment.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_digits
from repro.datasets.synthetic_mnist import (
    DigitStyle,
    SyntheticDigitGenerator,
    glyph_strokes,
)
from repro.utils.rng import ensure_rng

#: sha256 over train images, train labels, test images, test labels.
GOLDEN = {
    (1500, 1, 2021):
        "6863bef12c201df465ba7e90e261985fb39edb53333e76875f25aef9d5529f77",
    (1, 160, 1):
        "3a6072c242283ab541f155559841515bc775ea385e592bb703ff995c12507a26",
    (1, 160, 2):
        "50b0e168b969a4a67dbb503004e9e414ece6ff43c5d8dc89a7e5b8c46614a179",
    (1, 160, 3):
        "00ce32422baff28e2dc5312877de51fe11fa5569318d4dd0a454046c0bd187ef",
    (400, 80, 7):
        "d6ee064dbc1e59b323b0454331df5be14e11ab14c95c54d350fa40353e4f3200",
    (800, 8, 17):
        "9f2f3bb7f728863dea53286cd75ed6bb335b23cc204250897bbe992d4e9f3622",
}


def _digest(n_train: int, n_test: int, seed: int) -> str:
    train, test = load_digits(n_train=n_train, n_test=n_test, seed=seed)
    sha = hashlib.sha256()
    for array in (train.images, train.labels, test.images, test.labels):
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_load_digits_matches_golden(key):
    assert _digest(*key) == GOLDEN[key]


# --------------------------------------------------------------------------
# The full-field reference renderer
# --------------------------------------------------------------------------


def _reference_segments(
    style: DigitStyle, digit: int, generator: np.random.Generator
) -> np.ndarray:
    strokes = glyph_strokes(digit)
    theta = np.radians(generator.uniform(-style.rotation_deg, style.rotation_deg))
    sx, sy = generator.uniform(*style.scale_range, size=2)
    shear = generator.uniform(-style.shear, style.shear)
    tx, ty = generator.uniform(-style.translation, style.translation, size=2)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    segments = []
    for stroke in strokes:
        pts = stroke + generator.normal(0.0, style.vertex_jitter, size=stroke.shape)
        centred = pts - 0.5
        x = centred[:, 0] * sx + centred[:, 1] * shear
        y = centred[:, 1] * sy
        xr = x * cos_t - y * sin_t + 0.5 + tx
        yr = x * sin_t + y * cos_t + 0.5 + ty
        pts = np.stack([xr, yr], axis=1)
        segments.append(np.stack([pts[:-1], pts[1:]], axis=1))
    return np.concatenate(segments, axis=0)


def _reference_rasterize(
    style: DigitStyle, segments: np.ndarray, generator: np.random.Generator
) -> np.ndarray:
    h, w = style.image_shape
    ys, xs = np.mgrid[0:h, 0:w]
    p = np.stack([(xs.ravel() + 0.5) / w, (ys.ravel() + 0.5) / h], axis=1)
    a = segments[:, 0]
    b = segments[:, 1]
    ab = b - a
    denom = np.einsum("sd,sd->s", ab, ab)
    denom[denom == 0.0] = 1e-12
    ap = p[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("psd,sd->ps", ap, ab) / denom, 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    dist = np.linalg.norm(p[:, None, :] - closest, axis=2).min(axis=1)
    thickness = generator.uniform(*style.thickness_range)
    ink = np.clip((thickness + style.falloff - dist) / style.falloff, 0.0, 1.0)
    return ink.reshape(h, w)


def reference_batch(
    gen: SyntheticDigitGenerator, labels: list[int], seed: int
) -> np.ndarray:
    """``gen.batch(labels, rng=seed)`` as the full-field renderer drew it."""
    generator = ensure_rng(seed)
    images = []
    for digit in labels:
        segments = _reference_segments(gen.style, digit, generator)
        ink = _reference_rasterize(gen.style, segments, generator)
        images.append(gen._postprocess(ink, generator))
    return np.stack(images)


def _assert_matches_reference(style: DigitStyle, labels, seed: int) -> np.ndarray:
    gen = SyntheticDigitGenerator(style)
    images = gen.batch(labels, rng=seed)
    np.testing.assert_array_equal(images, reference_batch(gen, labels, seed))
    return images


# --------------------------------------------------------------------------
# Property test
# --------------------------------------------------------------------------


@st.composite
def _range(draw, lo: float, hi: float) -> tuple[float, float]:
    a = draw(st.floats(lo, hi))
    b = draw(st.floats(lo, hi))
    return (min(a, b), max(a, b))


@st.composite
def styles(draw) -> DigitStyle:
    return DigitStyle(
        image_shape=(draw(st.integers(1, 40)), draw(st.integers(1, 40))),
        thickness_range=draw(_range(1e-3, 1.5)),
        falloff=draw(st.floats(1e-3, 0.5)),
        vertex_jitter=draw(st.floats(0.0, 0.1)),
        rotation_deg=draw(st.floats(0.0, 180.0)),
        scale_range=draw(_range(0.1, 2.0)),
        shear=draw(st.floats(0.0, 0.5)),
        translation=draw(st.floats(0.0, 2.0)),
        intensity_range=draw(_range(0.0, 1.0)),
        noise_sigma_range=draw(_range(0.0, 20.0)),
        black_point=draw(st.floats(0.0, 50.0)),
        speckle_prob=draw(st.sampled_from([0.0, 0.004, 0.3, 1.0])),
        speckle_range=draw(_range(0.0, 255.0)),
    )


@settings(max_examples=80, deadline=None)
@given(
    style=styles(),
    seed=st.integers(0, 2**32 - 1),
    labels=st.lists(st.integers(0, 9), min_size=1, max_size=4),
)
def test_matches_full_field_reference(style, seed, labels):
    _assert_matches_reference(style, labels, seed)


# --------------------------------------------------------------------------
# Edge cases
# --------------------------------------------------------------------------

DIGITS = list(range(10))


@pytest.mark.parametrize("seed", range(4))
def test_default_style_matches_reference(seed):
    _assert_matches_reference(DigitStyle(), DIGITS, seed)


def test_glyph_wholly_off_the_image():
    # With translations up to ±1.2 image widths about half the glyphs
    # land wholly outside the image: their crop is empty, the image blank.
    style = DigitStyle(translation=1.2, noise_sigma_range=(0.0, 0.0), speckle_prob=0.0)
    images = np.concatenate(
        [_assert_matches_reference(style, DIGITS, seed) for seed in range(3)]
    )
    blank = ~images.reshape(len(images), -1).any(axis=1)
    assert blank.any() and not blank.all()


@pytest.mark.parametrize("shape", [(20, 36), (36, 20), (1, 28), (28, 1)])
def test_non_square_image(shape):
    images = _assert_matches_reference(DigitStyle(image_shape=shape), DIGITS, 5)
    assert images.shape == (10, *shape)


def test_thickness_larger_than_the_image():
    style = DigitStyle(
        thickness_range=(1.2, 1.5), noise_sigma_range=(0.0, 0.0), speckle_prob=0.0
    )
    images = _assert_matches_reference(style, DIGITS, 6)
    assert (images > 0).all()


def test_no_pixel_noise():
    _assert_matches_reference(DigitStyle(noise_sigma_range=(0.0, 0.0)), DIGITS, 7)


@pytest.mark.parametrize("speckle_prob", [0.0, 1.0])
def test_speckle_extremes(speckle_prob):
    _assert_matches_reference(DigitStyle(speckle_prob=speckle_prob), DIGITS, 8)
