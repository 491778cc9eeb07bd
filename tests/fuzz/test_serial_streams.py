"""Golden digests of the serial engine's threaded-generator streams.

:meth:`HDTest.fuzz` threads *one* generator through its inputs in
order: input 2's mutations continue the stream input 1 left behind.
The equivalence suites compare engines under spawned per-input
generators, so they cannot see a change to this stream; these digests
can.  Each is a sha256 over every input's success flag, iteration count
and adversarial bytes, recorded from the per-input sequential loop
before the serial engine became the lock-step engine at batch size 1.
A mismatch means ``hdtest fuzz --executor serial`` (the CLI default)
no longer reproduces historical campaigns.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import load_digits, make_language_dataset
from repro.fuzz import HDTest, HDTestConfig, ModelEnsembleTarget
from repro.hdc import HDCClassifier, NgramEncoder, PixelEncoder

CFG = HDTestConfig(iter_times=12)
UNGUIDED = HDTestConfig(iter_times=12, guided=False)

GOLDEN = {
    "image-rand-guided":
        "7f9feaac24a1c3bcaf6c5dbf906b53f4bc70335b999d2b974c760bbbf0c79754",
    "image-rand-unguided":
        "0ca2be8706b09c9941d51981c85875327daf80ba4498c7198056c0e4b60db07d",
    "image-shift-guided":
        "817b3918c1717431c6141be45e8d70bf267c8fec1e1fdb827f8b61812c95cb21",
    "image-shift-unguided":
        "2368309e2dbec4d6cd5b8640350d697ee6c7add031c7d3da15688947032fada7",
    "text-char_sub-guided":
        "7702c0c41df2a654e342a361aef207ac1aca6868cfb250da1b563dc84b19b5d2",
    "text-char_sub-unguided":
        "a7a4da8de3fd17f1693d1ca123c2ed71f597ab0a0248a6bdf4011bc7baadaec8",
    "ensemble3-rand-guided":
        "aca9c74a27e25d5b0f10b002a383c8d232ea0b00dab3557f09070a6996fa3857",
    "ensemble3-rand-unguided":
        "5922481e7262a3480193c3fb7f03bab1e29165ed6263fdcc0016d90dad758b92",
}


@pytest.fixture(scope="module")
def digits():
    return load_digits(n_train=800, n_test=8, seed=17)


@pytest.fixture(scope="module")
def image_model(digits):
    train, _ = digits
    return HDCClassifier(PixelEncoder(dimension=2048, rng=17), 10).fit(
        train.images, train.labels
    )


@pytest.fixture(scope="module")
def ensemble(digits):
    train, _ = digits
    return ModelEnsembleTarget(*[
        HDCClassifier(PixelEncoder(dimension=2048, rng=seed), 10).fit(
            train.images, train.labels
        )
        for seed in (21, 22, 23)
    ])


@pytest.fixture(scope="module")
def text_setup():
    data = make_language_dataset(n_per_class=30, n_languages=3, length=60, seed=17)
    train, test = data.split(0.8, rng=0)
    model = HDCClassifier(NgramEncoder(n=3, dimension=2048, rng=17), 3).fit(
        list(train.texts), train.labels
    )
    return model, list(test.texts)[:6]


def campaign_digest(result) -> str:
    """sha256 over (success, iterations, adversarial bytes) per input."""
    h = hashlib.sha256()
    for outcome in result.outcomes:
        h.update(f"{int(outcome.success)}:{outcome.iterations};".encode())
        if outcome.example is not None:
            adversarial = outcome.example.adversarial
            if isinstance(adversarial, str):
                h.update(adversarial.encode("utf-8"))
            else:
                h.update(np.ascontiguousarray(adversarial).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _campaign(case, digits, image_model, ensemble, text_setup):
    kind, strategy, guidance = case.split("-")
    config = CFG if guidance == "guided" else UNGUIDED
    if kind == "text":
        model, inputs = text_setup
    else:
        model = image_model if kind == "image" else ensemble
        inputs = list(digits[1].images.astype(np.float64))
    return HDTest(model, strategy, config=config).fuzz(inputs, rng=2021)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_threaded_stream_matches_golden(case, digits, image_model, ensemble,
                                        text_setup):
    result = _campaign(case, digits, image_model, ensemble, text_setup)
    assert campaign_digest(result) == GOLDEN[case]
