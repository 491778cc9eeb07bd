"""Tests for campaign-level model-backend dispatch."""

import importlib

import numpy as np
import pytest

import repro.hdc
import repro.hdc.backends
from repro.errors import ConfigurationError
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    HDCClassifier,
    NgramEncoder,
    PackedBinaryHDCClassifier,
    PackedBipolarEncoder,
    PackedBipolarHDCClassifier,
    PackedPixelEncoder,
    PixelEncoder,
    resolve_model_backend,
)
from repro.hdc.backends import (
    cosine_matrix_packed,
    hamming_counts,
    pack_bits,
    unpack_bits,
)
from repro.hdc.backends.dispatch import MODEL_BACKEND_CHOICES

SHAPE = (6, 6)


def _binary_model():
    images = np.random.default_rng(0).integers(0, 256, size=(6,) + SHAPE).astype(float)
    model = BinaryHDCClassifier(
        BinaryPixelEncoder(shape=SHAPE, levels=8, dimension=256, rng=1), 3
    )
    return model.fit(images, np.arange(6) % 3), images


class TestResolveModelBackend:
    def test_dense_passthrough(self):
        model, _ = _binary_model()
        assert resolve_model_backend(model, None) is model
        assert resolve_model_backend(model, "dense") is model

    def test_packed_converts_binary(self):
        model, images = _binary_model()
        packed = resolve_model_backend(model, "packed")
        assert isinstance(packed, PackedBinaryHDCClassifier)
        np.testing.assert_array_equal(packed.predict(images), model.predict(images))

    def test_packed_model_passes_through(self):
        model, _ = _binary_model()
        packed = resolve_model_backend(model, "packed")
        assert resolve_model_backend(packed, "packed") is packed

    def test_bipolar_rejected(self):
        model = HDCClassifier(PixelEncoder(shape=SHAPE, dimension=128, rng=0), 3)
        with pytest.raises(ConfigurationError, match="dense-binary"):
            resolve_model_backend(model, "packed")

    def test_unknown_backend_rejected(self):
        model, _ = _binary_model()
        with pytest.raises(ConfigurationError, match="unknown model backend"):
            resolve_model_backend(model, "gpu")

    def _bipolar_model(self):
        images = (
            np.random.default_rng(0).integers(0, 256, size=(6,) + SHAPE).astype(float)
        )
        model = HDCClassifier(PixelEncoder(shape=SHAPE, dimension=256, rng=1), 3)
        return model.fit(images, np.arange(6) % 3), images

    def test_packed_bipolar_converts_dense(self):
        model, images = self._bipolar_model()
        packed = resolve_model_backend(model, "packed-bipolar")
        assert isinstance(packed, PackedBipolarHDCClassifier)
        np.testing.assert_array_equal(packed.predict(images), model.predict(images))

    def test_packed_bipolar_model_passes_through(self):
        model, _ = self._bipolar_model()
        packed = resolve_model_backend(model, "packed-bipolar")
        assert resolve_model_backend(packed, "packed-bipolar") is packed

    def test_packed_bipolar_rejects_binary_family(self):
        model, _ = _binary_model()
        with pytest.raises(ConfigurationError, match="bipolar model"):
            resolve_model_backend(model, "packed-bipolar")

    def test_packed_bipolar_rejects_non_pixel_encoder(self):
        model = HDCClassifier(NgramEncoder(n=2, dimension=128, rng=0), 3)
        with pytest.raises(ConfigurationError, match="PixelEncoder"):
            resolve_model_backend(model, "packed-bipolar")

    def test_choices_are_the_three_families(self):
        assert MODEL_BACKEND_CHOICES == ("dense", "packed", "packed-bipolar")

    def test_torch_rejected(self):
        model, _ = _binary_model()
        with pytest.raises(ConfigurationError, match="unknown model backend"):
            resolve_model_backend(model, "torch")

    def test_packed_models_pass_through_dense(self):
        binary, _ = _binary_model()
        bipolar, _ = self._bipolar_model()
        for packed in (
            resolve_model_backend(binary, "packed"),
            resolve_model_backend(bipolar, "packed-bipolar"),
        ):
            assert resolve_model_backend(packed, None) is packed
            assert resolve_model_backend(packed, "dense") is packed

    def test_packed_binary_rejected_for_packed_bipolar(self):
        model, _ = _binary_model()
        packed = resolve_model_backend(model, "packed")
        with pytest.raises(ConfigurationError, match="bipolar model"):
            resolve_model_backend(packed, "packed-bipolar")

    def test_packed_bipolar_rejected_for_packed(self):
        model, _ = self._bipolar_model()
        packed = resolve_model_backend(model, "packed-bipolar")
        with pytest.raises(ConfigurationError, match="dense-binary"):
            resolve_model_backend(packed, "packed")

    def test_environment_does_not_select_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "torch")
        model, images = _binary_model()
        packed = resolve_model_backend(model, "packed")
        np.testing.assert_array_equal(packed.predict(images), model.predict(images))


class TestNoKernelKnob:
    """The packed families call repro.hdc.backends.packed directly."""

    def test_binary_family_takes_no_backend(self):
        model, _ = _binary_model()
        with pytest.raises(TypeError):
            PackedPixelEncoder(shape=SHAPE, dimension=128, rng=0, backend="numpy")
        with pytest.raises(TypeError):
            PackedBinaryHDCClassifier.from_binary(model, backend="numpy")

    def test_bipolar_family_takes_no_backend(self):
        model = HDCClassifier(PixelEncoder(shape=SHAPE, dimension=128, rng=0), 3)
        with pytest.raises(TypeError):
            PackedBipolarEncoder(shape=SHAPE, dimension=128, rng=0, backend="numpy")
        with pytest.raises(TypeError):
            PackedBipolarHDCClassifier.from_dense(model, backend="numpy")

    def test_bipolar_encoder_has_no_sparse_background_knob(self):
        with pytest.raises(TypeError):
            PackedBipolarEncoder(
                shape=SHAPE, dimension=128, rng=0, sparse_background=False
            )

    def test_packed_classifiers_have_no_backend_surface(self):
        model, _ = _binary_model()
        packed = resolve_model_backend(model, "packed")
        for attr in ("backend", "with_backend"):
            assert not hasattr(packed, attr)
            assert not hasattr(PackedBipolarHDCClassifier, attr)

    def test_namespaces_drop_the_kernel_backend(self):
        removed = ("KernelBackend", "NumpyKernelBackend", "backend_names", "get_backend")
        for namespace in (repro.hdc, repro.hdc.backends):
            for name in removed:
                assert not hasattr(namespace, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.hdc.backends.torch_backend")

    def test_kernel_functions_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(3, 100)).astype(np.int8)
        words = pack_bits(bits)
        np.testing.assert_array_equal(unpack_bits(words, 100), bits)
        counts = hamming_counts(words, words)
        assert counts.shape == (3, 3)
        assert (np.diag(counts) == 0).all()
        np.testing.assert_allclose(np.diag(cosine_matrix_packed(words, words)), 1.0)
