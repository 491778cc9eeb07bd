#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Shrinks every workload to a few small inputs and checks that

* ``BENCHMARK.json`` keeps to its contract's shape;
* both ``--trace`` modes emit every metric it names, with its unit;
* a corrupted outcome digest and a non-adversarial "adversarial" both
  fail the correctness check.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = run.ROOT / "perfbench" / "results" / "selftest"


def check_spec(benchmark: dict) -> None:
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(benchmark["workloads"]) <= 8
    names = [w["name"] for w in benchmark["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in benchmark[section]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
            names.append(metric["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def emitted(result: dict, spec: list[dict]) -> None:
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], (metric, entry)
        assert isinstance(entry["value"], (int, float)), (metric, entry)


def corrupted_digest_fails(log) -> None:
    log.digests[0] = "0" * 64
    failed = log.failed
    log.run(0)
    assert log.failed > failed and "digest changed" in log.problems[-1], log.problems


def fake_adversarial_fails(state, log) -> None:
    from checks import verify_outcomes

    for index, results in log.results.items():
        for strategy, outcomes in results:
            for i, outcome in enumerate(outcomes):
                if outcome.success and outcome.iterations > 0:
                    fake = dataclasses.replace(
                        outcome.example, adversarial=outcome.example.original
                    )
                    tampered = list(outcomes)
                    tampered[i] = dataclasses.replace(outcome, example=fake)
                    problems = verify_outcomes(
                        state.target, state.chunks[index], tampered,
                        state.constraints[strategy], n_members=state.n_members,
                    )
                    assert any(row == i for row, _ in problems), problems
                    return
    raise AssertionError("no adversarial found to tamper with")


def main() -> int:
    run.import_program()
    from workloads import Scale, WORKLOADS

    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(benchmark)
    assert set(WORKLOADS) == {w["name"] for w in benchmark["workloads"]}
    host = run.fingerprint(run.ROOT)
    tiny = Scale(dimension=1024, n_train=200, chunk=3, n_chunks=2)
    for workload in WORKLOADS.values():
        workload = dataclasses.replace(workload, scale=tiny)
        for trace in (0, 1):
            measured = (
                run.measure_layers(workload, 7) if trace
                else run.measure_end_to_end(workload, 7, 0.0)
            )
            result = run.report(workload, 7, trace, measured, host, benchmark, TINY)
            emitted(result, benchmark["per_layer" if trace else "end_to_end"])
        fake_adversarial_fails(measured["state"], measured["logs"][0])
        corrupted_digest_fails(measured["logs"][0])
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
