"""JSON persistence for campaign results.

Image payloads belong in ``.npz`` bundles
(:func:`repro.analysis.figures.save_examples_npz`); what this module
persists is the *evaluation record* — per-input outcomes, per-success
metrics, and the Table II aggregates — as plain JSON so experiment runs
can be archived, diffed, and re-rendered into reports without re-running
the fuzzer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.results import CampaignResult
from repro.utils.io import atomic_write

__all__ = ["campaign_to_dict", "save_campaigns_json", "load_campaigns_json"]

#: Version 2 added ensemble campaigns: a top-level ``n_members`` count
#: and per-example ``disagreed_members`` (which ensemble members left
#: the reference label; ``null`` for single-model campaigns).  Version 3
#: added the optional top-level ``telemetry`` snapshot (counters, phase
#: timings, retirement log — see :mod:`repro.obs.recorder`) from
#: instrumented campaigns; ``null`` for uninstrumented runs.  Version-1
#: and -2 records load unchanged — the new keys are simply absent.
_SCHEMA_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)


def campaign_to_dict(result: CampaignResult) -> dict:
    """Serialisable record of one campaign (no image payloads)."""
    outcomes = []
    for outcome in result.outcomes:
        record: dict = {
            "success": outcome.success,
            "iterations": outcome.iterations,
            "reference_label": outcome.reference_label,
        }
        if outcome.example is not None:
            example = outcome.example
            record["example"] = {
                "reference_label": example.reference_label,
                "adversarial_label": example.adversarial_label,
                "iterations": example.iterations,
                "metrics": {k: float(v) for k, v in example.metrics.items()},
                "strategy": example.strategy,
                "true_label": example.true_label,
                "disagreed_members": (
                    None
                    if example.disagreed_members is None
                    else [int(m) for m in example.disagreed_members]
                ),
            }
        outcomes.append(record)
    return {
        "schema_version": _SCHEMA_VERSION,
        "strategy": result.strategy,
        "guided": result.guided,
        "n_members": result.n_members,
        "telemetry": result.telemetry,
        "elapsed_seconds": result.elapsed_seconds,
        "summary": {
            k: (None if isinstance(v, float) and np.isnan(v) else v)
            for k, v in result.summary().items()
        },
        "outcomes": outcomes,
    }


def save_campaigns_json(
    path: Union[str, Path], results: Mapping[str, CampaignResult]
) -> None:
    """Write ``{strategy: campaign_record}`` to *path* as JSON."""
    if not results:
        raise ConfigurationError("results is empty")
    payload = {name: campaign_to_dict(result) for name, result in results.items()}
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def load_campaigns_json(path: Union[str, Path]) -> dict[str, dict]:
    """Read back what :func:`save_campaigns_json` wrote (plain dicts).

    Returns the raw records rather than reconstructing
    :class:`CampaignResult` objects — the original inputs/images are
    not stored, so a lossless round-trip is impossible by design; the
    record carries everything reporting needs.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no campaign file at {path}")
    payload = json.loads(path.read_text())
    for name, record in payload.items():
        version = record.get("schema_version")
        if version not in _READABLE_VERSIONS:
            raise ConfigurationError(
                f"campaign {name!r} has schema version {version}, "
                f"expected one of {_READABLE_VERSIONS}"
            )
    return payload
