"""Perturbation distance metrics (Sec. V-A).

The paper evaluates adversarial images by *normalized* L1 and L2
distance between the mutated and original image.  Normalisation here
means grey values are scaled to [0, 1] (divide by 255) before taking
the vector norm over all pixels — the convention that makes the paper's
numbers self-consistent: the example perturbation budget
"L2 < 1", rand's L2 ≈ 0.09, and gauss's L1 ≈ 2.91 all fit this scale.

L0 (pixels touched) and L∞ (largest single-pixel change) are included
because Figs. 4–6 visualise "mutated pixels", which is the L0 support.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError

__all__ = [
    "normalized_l1",
    "normalized_l2",
    "normalized_linf",
    "l0_pixels",
    "perturbation_metrics",
    "GREY_SCALE",
]

#: Full grey-scale range used for normalisation.
GREY_SCALE = 255.0


def _delta(original: np.ndarray, mutated: np.ndarray) -> np.ndarray:
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(mutated, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"original and mutated shapes differ: {a.shape} vs {b.shape}"
        )
    return (b - a) / GREY_SCALE


def normalized_l1(original: np.ndarray, mutated: np.ndarray) -> float:
    """Sum of absolute per-pixel changes, grey values scaled to [0, 1]."""
    return float(np.abs(_delta(original, mutated)).sum())


def normalized_l2(original: np.ndarray, mutated: np.ndarray) -> float:
    """Euclidean norm of the per-pixel change, grey values in [0, 1]."""
    return float(np.linalg.norm(_delta(original, mutated).ravel()))


def normalized_linf(original: np.ndarray, mutated: np.ndarray) -> float:
    """Largest absolute single-pixel change, grey values in [0, 1]."""
    return float(np.abs(_delta(original, mutated)).max())


def l0_pixels(original: np.ndarray, mutated: np.ndarray, *, tol: float = 0.5) -> int:
    """Number of pixels changed by more than *tol* grey levels."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(mutated, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"original and mutated shapes differ: {a.shape} vs {b.shape}"
        )
    return int((np.abs(b - a) > tol).sum())


def perturbation_metrics(original: np.ndarray, mutated: np.ndarray) -> dict[str, float]:
    """All four perturbation metrics as one dict (keys l1/l2/linf/l0)."""
    return {
        "l1": normalized_l1(original, mutated),
        "l2": normalized_l2(original, mutated),
        "linf": normalized_linf(original, mutated),
        "l0": float(l0_pixels(original, mutated)),
    }
