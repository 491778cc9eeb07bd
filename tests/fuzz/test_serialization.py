"""Tests for campaign JSON persistence."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fuzz.results import AdversarialExample, CampaignResult, InputOutcome
from repro.fuzz.serialization import (
    campaign_to_dict,
    load_campaigns_json,
    save_campaigns_json,
)


def _campaign():
    img = np.zeros((4, 4))
    ex = AdversarialExample(
        original=img, adversarial=img + 1, reference_label=2,
        adversarial_label=5, iterations=3,
        metrics={"l1": 1.0, "l2": 0.2, "linf": 0.1, "l0": 4.0},
        strategy="gauss", true_label=2,
    )
    outcomes = [
        InputOutcome(True, 3, 2, ex),
        InputOutcome(False, 30, 7),
    ]
    return CampaignResult("gauss", outcomes, elapsed_seconds=2.5)


class TestCampaignToDict:
    def test_structure(self):
        record = campaign_to_dict(_campaign())
        assert record["strategy"] == "gauss"
        assert record["elapsed_seconds"] == 2.5
        assert len(record["outcomes"]) == 2

    def test_success_outcome_carries_example(self):
        record = campaign_to_dict(_campaign())
        example = record["outcomes"][0]["example"]
        assert example["adversarial_label"] == 5
        assert example["metrics"]["l2"] == pytest.approx(0.2)
        assert example["true_label"] == 2

    def test_failure_outcome_has_no_example(self):
        record = campaign_to_dict(_campaign())
        assert "example" not in record["outcomes"][1]

    def test_no_image_payloads(self):
        record = campaign_to_dict(_campaign())
        assert "original" not in json.dumps(record)

    def test_nan_summary_values_become_null(self):
        empty = CampaignResult("rand", [], elapsed_seconds=0.0)
        record = campaign_to_dict(empty)
        assert record["summary"]["avg_l1"] is None

    def test_json_serializable(self):
        json.dumps(campaign_to_dict(_campaign()))


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "campaigns.json"
        save_campaigns_json(path, {"gauss": _campaign()})
        loaded = load_campaigns_json(path)
        assert set(loaded) == {"gauss"}
        assert loaded["gauss"]["summary"]["n_success"] == 1

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_campaigns_json(tmp_path / "x.json", {})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_campaigns_json(tmp_path / "nope.json")

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"gauss": {"schema_version": 99}}))
        with pytest.raises(ConfigurationError, match="schema"):
            load_campaigns_json(path)


class TestEnsembleRecords:
    """Schema v2: ensemble member counts and disagreement provenance."""

    def test_v1_records_still_load(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"gauss": {"schema_version": 1, "outcomes": []}}))
        loaded = load_campaigns_json(path)
        assert loaded["gauss"]["schema_version"] == 1

    def test_ensemble_fields_round_trip(self, tmp_path):
        example = AdversarialExample(
            original=None,
            adversarial=None,
            reference_label=2,
            adversarial_label=7,
            iterations=0,
            metrics={"l2": 0.0},
            strategy="gauss",
            disagreed_members=(0, 2),
        )
        result = CampaignResult(
            strategy="gauss",
            outcomes=[
                InputOutcome(
                    success=True, iterations=0, reference_label=2, example=example
                )
            ],
            elapsed_seconds=0.5,
            n_members=3,
        )
        path = tmp_path / "ensemble.json"
        save_campaigns_json(path, {"gauss": result})
        record = load_campaigns_json(path)["gauss"]
        assert record["schema_version"] == 3
        assert record["n_members"] == 3
        assert record["summary"]["n_members"] == 3
        stored = record["outcomes"][0]["example"]
        assert stored["disagreed_members"] == [0, 2]
        assert stored["iterations"] == 0

    def test_single_model_records_mark_no_members(self, trained_model, test_images, tmp_path):
        from repro.fuzz import HDTest, HDTestConfig

        result = HDTest(trained_model, "gauss", config=HDTestConfig(iter_times=5),
                        rng=0).fuzz(list(test_images[:3]))
        path = tmp_path / "single.json"
        save_campaigns_json(path, {"gauss": result})
        record = load_campaigns_json(path)["gauss"]
        assert record["n_members"] == 1
        for outcome in record["outcomes"]:
            if "example" in outcome:
                assert outcome["example"]["disagreed_members"] is None


class TestAtomicSave:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "campaigns.json"
        save_campaigns_json(path, {"gauss": _campaign()})
        before = path.read_bytes()
        broken = _campaign()
        # Sorted keys put "telemetry" after the outcomes, so json.dump
        # has already streamed part of the record when it hits this.
        broken.telemetry = {"counters": object()}
        with pytest.raises(TypeError):
            save_campaigns_json(path, {"gauss": broken})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["campaigns.json"]

    def test_output_matches_plain_json_dump(self, tmp_path):
        path = tmp_path / "campaigns.json"
        save_campaigns_json(path, {"gauss": _campaign()})
        expected = json.dumps(
            {"gauss": campaign_to_dict(_campaign())}, indent=2, sort_keys=True
        )
        assert path.read_text() == expected
