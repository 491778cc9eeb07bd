"""Correctness checks made from outside the fuzzing engines.

Every adversarial a campaign reports is re-verified through the target's
public ``predict`` and the campaign's constraint, and every campaign's
outcomes are reduced to a digest that must repeat exactly whenever the
same campaign runs again.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

import numpy as np

__all__ = ["outcome_digest", "verify_outcomes"]


def outcome_digest(results: Sequence[tuple[str, Sequence[Any]]]) -> str:
    """SHA-256 over each input's success, iterations and adversarial bytes.

    *results* holds ``(strategy, outcomes)`` pairs, one per strategy the
    campaign ran.
    """
    digest = hashlib.sha256()
    for strategy, outcomes in results:
        digest.update(strategy.encode())
        for outcome in outcomes:
            digest.update(b"\x01" if outcome.success else b"\x00")
            digest.update(int(outcome.iterations).to_bytes(4, "little"))
            if outcome.success:
                adversarial = np.asarray(outcome.example.adversarial, dtype=np.float64)
                digest.update(np.ascontiguousarray(adversarial).tobytes())
    return digest.hexdigest()


def verify_outcomes(
    target: Any,
    inputs: np.ndarray,
    outcomes: Sequence[Any],
    constraint: Any,
    *,
    n_members: int,
) -> list[tuple[int, str]]:
    """Re-verify one strategy's outcomes; ``(input, problem)`` per finding.

    * Every adversarial must carry the input it was fuzzed from.
    * A single model's reference label must be its own prediction on the
      input, and each adversarial must be predicted differently.
    * An ensemble's members must disagree on each adversarial.
    * The campaign's constraint must admit each adversarial, and its
      pixels must stay in the valid range.
    """
    if len(outcomes) != len(inputs):
        return [(-1, f"{len(outcomes)} outcomes for {len(inputs)} inputs")]
    problems: list[tuple[int, str]] = []
    if n_members == 1:
        references = target.predict(inputs)
        problems += [
            (i, "reference label is not the model's prediction")
            for i, outcome in enumerate(outcomes)
            if outcome.reference_label != references[i]
        ]
    found = [i for i, outcome in enumerate(outcomes) if outcome.success]
    if not found:
        return problems
    adversarials = np.stack(
        [np.asarray(outcomes[i].example.adversarial, dtype=np.float64) for i in found]
    )
    labels = np.asarray(target.predict(adversarials))
    for row, i in enumerate(found):
        adversarial = adversarials[row]
        if not np.array_equal(np.asarray(outcomes[i].example.original), inputs[i]):
            problems.append((i, "example does not carry its input"))
        if n_members == 1:
            if labels[row] == outcomes[i].reference_label:
                problems.append((i, "adversarial keeps the reference label"))
        elif np.all(labels[:, row] == labels[0, row]):
            problems.append((i, "ensemble members agree on the adversarial"))
        if not bool(constraint.accept(inputs[i], adversarial[None])[0]):
            problems.append((i, "constraint rejects the adversarial"))
        if adversarial.min() < 0.0 or adversarial.max() > 255.0:
            problems.append((i, "adversarial leaves the pixel range"))
    return problems
