#!/usr/bin/env python3
"""The repository benchmark: Alg. 1 campaigns, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gauss-batched --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is their
median), then fuzzes the seeded input pool chunk by chunk, one campaign
per chunk, cycling until every chunk has run and ``--seconds`` of
campaign time have been measured.  A chunk's time is the least over its
runs.  It reports the end-to-end metrics named in ``BENCHMARK.json``.

``--trace 1`` sets up once with layer spans on, fuzzes the pool once
untraced and once traced (with ``CampaignTelemetry`` attached, to
cross-check the spans), and reports the per-layer metrics.

Every run re-verifies each adversarial from outside the engine and
requires each chunk's outcome digest to repeat exactly.  The last line
of standard output is one JSON object; the full record, with the host
fingerprint, goes to ``perfbench/results/``.  The process exits 1 when
the program cannot be imported from ``src/`` or a check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from checks import outcome_digest, verify_outcomes
from host import fingerprint
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.  Training
#: the five-member ensemble takes 13-16 s, so a third set-up would push
#: the benchmark's runs past their time budget.
SETUP_REPS = 2
#: Campaign phase of ``CampaignTelemetry`` → layers whose self time covers it.
CROSS_CHECK = {
    "encode": ("hdc.encoders.delta", "hdc.encoders.scratch",
               "hdc.encoders.threshold", "utils.cache"),
    "query": ("hdc.associative_memory.query",),
    "mutate": ("fuzz.mutations", "fuzz.constraints"),
    "fitness": ("fuzz.fitness",),
    "oracle": ("fuzz.oracle",),
    "broadcast": ("fuzz.executor.broadcast",),
}
#: ``(phase, layer, metric stem, count key, count metric)`` per reported
#: layer.  A layer is reported in the phase whose time it moves: set-up
#: layers as shares of the set-up wall, the rest of the fuzz wall.
LEDGER = (
    ("fuzz", "hdc.encoders.delta", "hdc.encoders.delta_", "rows", "rows"),
    ("setup", "hdc.encoders.scratch", "hdc.encoders.scratch_", "rows", "rows"),
    ("fuzz", "hdc.encoders.threshold", "hdc.encoders.threshold_", "rows", "rows"),
    ("setup", "hdc.associative_memory.write", "hdc.associative_memory.write_",
     "rows", "rows"),
    ("fuzz", "hdc.associative_memory.query", "hdc.associative_memory.query_",
     "rows", "rows"),
    ("fuzz", "fuzz.mutations", "fuzz.mutations.", "rows", "children"),
    ("fuzz", "fuzz.constraints", "fuzz.constraints.", "checked", "checked"),
    ("fuzz", "fuzz.fitness", "fuzz.fitness.", "rows", "rows"),
    ("fuzz", "fuzz.oracle", "fuzz.oracle.", "calls", "calls"),
    ("fuzz", "fuzz.seeds", "fuzz.seeds.", "calls", "updates"),
    ("fuzz", "utils.cache", "utils.cache.", "lookups", "lookups"),
    ("setup", "datasets", "datasets.", "calls", "calls"),
)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


class CampaignLog:
    """Times, outcomes and checks of the campaigns one pass runs."""

    def __init__(self, workload, state, seed: int) -> None:
        self.workload = workload
        self.state = state
        self.seed = seed
        self.times: dict[int, list[float]] = {}
        self.results: dict[int, list] = {}
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, index: int, telemetry=None) -> None:
        """Run chunk *index*'s campaign once, check it and log its time."""
        inputs = self.state.chunks[index]
        n_ops = len(inputs) * len(self.workload.strategies)
        self.attempted += n_ops
        start = time.perf_counter()
        try:
            results = self.workload.campaign(
                self.state, inputs, np.random.default_rng([self.seed, index]),
                telemetry,
            )
        except Exception as exc:  # a campaign that raises fails all its inputs
            self.failed += n_ops
            self.problems.append(f"chunk {index}: campaign raised {exc!r}")
            return
        elapsed = time.perf_counter() - start
        digest = outcome_digest(results)
        if index in self.digests:
            if digest != self.digests[index]:
                self.failed += n_ops
                self.problems.append(f"chunk {index}: outcome digest changed")
                return
        else:
            bad = set()
            for strategy, outcomes in results:
                for i, problem in verify_outcomes(
                    self.state.target, inputs, outcomes,
                    self.state.constraints[strategy],
                    n_members=self.state.n_members,
                ):
                    bad.add((strategy, i))
                    self.problems.append(f"chunk {index} {strategy} input {i}: {problem}")
            self.failed += len(bad)
            self.digests[index] = digest
            self.results[index] = results
        self.times.setdefault(index, []).append(elapsed)

    @property
    def measured(self) -> float:
        return sum(sum(times) for times in self.times.values())

    def summary(self) -> dict:
        """Rates and search-quality figures of this pass, over the whole pool.

        A chunk's time is the least over its runs: each run does the
        same work, and a busy host only ever adds time to it.
        """
        chunks = sorted(self.times)
        seconds = {c: min(self.times[c]) for c in chunks}
        per_chunk = {
            c: [
                (self.state.constraints[strategy], outcome)
                for strategy, outs in self.results[c]
                for outcome in outs
            ]
            for c in chunks
        }
        found = {c: [(k, o) for k, o in rows if o.success] for c, rows in per_chunk.items()}
        successes = [o for c in chunks for _, o in found[c]]
        l2 = [
            o.example.metrics["l2"]
            for c in chunks
            for constraint, o in found[c]
            if getattr(constraint, "max_l2", None) is not None
        ]
        inputs = sum(len(rows) for rows in per_chunk.values())
        wall = sum(seconds.values())
        return {
            "fuzz_wall_s": wall,
            "adv_per_s": len(successes) / wall,
            "inputs_per_s": inputs / wall,
            "success_rate": len(successes) / inputs,
            "mean_iterations": statistics.fmean(o.iterations for o in successes),
            "mean_l2": statistics.fmean(l2),
            "chunks": {
                str(c): {"seconds": self.times[c], "adversarials": len(found[c]),
                         "inputs": len(per_chunk[c])}
                for c in chunks
            },
        }


def peak_rss_mb(n_workers: int) -> float:
    """Peak RSS of this process plus *n_workers* times the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if n_workers else 0
    return (own + n_workers * workers) / 1024.0


def measure_end_to_end(workload, seed: int, seconds: float) -> dict:
    """``--trace 0``: repeated set-up, then whole passes over the input pool."""
    setups = []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - start)
    workload.describe(state)
    log = CampaignLog(workload, state, seed)
    log.run(0)  # warm-up: checked, but its time is not measured
    log.times.pop(0, None)
    n_chunks = len(state.chunks)
    runs = 0
    while runs < n_chunks or log.measured < seconds:
        log.run(runs % n_chunks)
        runs += 1
    summary = log.summary()
    metrics = {
        name: summary[name]
        for name in ("adv_per_s", "inputs_per_s", "success_rate",
                     "mean_iterations", "mean_l2")
    }
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb(workload.n_processes)
    extra = {
        "setup_runs_s": setups,
        "campaigns": runs,
        "fuzz_wall_s": summary["fuzz_wall_s"],
        "chunks": summary["chunks"],
    }
    return {"metrics": metrics, "extra": extra, "state": state, "logs": [log]}


def measure_layers(workload, seed: int) -> dict:
    """``--trace 1``: traced set-up, an untraced and a traced pass."""
    from repro import CampaignTelemetry

    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        state = workload.setup(seed, span=tracer.span)
        setup_wall = time.perf_counter() - start
    workload.describe(state)
    chunks = range(len(state.chunks))
    untraced = CampaignLog(workload, state, seed)
    untraced.run(0)  # warm-up: checked, but its time is not measured
    untraced.times.pop(0, None)
    for c in chunks:
        untraced.run(c)
    traced = CampaignLog(workload, state, seed)
    traced.digests = dict(untraced.digests)  # tracing must not change outcomes
    traced.results = dict(untraced.results)
    phases: dict[str, float] = {}
    counters: dict[str, int] = {}
    with tracer.installed(), tracer.phase("fuzz"):
        for c in chunks:
            obs = CampaignTelemetry()
            traced.run(c, telemetry=obs)
            tracer.collect_workers()
            snap = obs.snapshot()
            for name, value in snap["phase_seconds"].items():
                phases[name] = phases.get(name, 0.0) + value
            for name, value in snap["counters"].items():
                counters[name] = counters.get(name, 0) + value
    base = untraced.summary()
    with_spans = traced.summary()
    fuzz_wall = with_spans["fuzz_wall_s"]
    stats = tracer.combined()
    metrics, ledger = layer_metrics(stats, fuzz_wall, setup_wall)
    gather = stats.get(("fuzz", "fuzz.executor.gather"), {})
    broadcast = stats.get(("fuzz", "fuzz.executor.broadcast"), {})
    started = broadcast.get("workers", 0)  # worker processes started in the pass
    metrics.update({
        "fuzz.executor.workers": started / broadcast["calls"] if started else 0,
        "fuzz.executor.broadcast_bytes": len(pickle.dumps(state.target)) * started,
        "fuzz.executor.broadcast_s": broadcast.get("busy_s", 0.0),
        "fuzz.executor.gather_wait_s": gather.get("busy_s", 0.0),
        "campaign.iterations": counters.get("iterations", 0),
        "campaign.encodes_per_s": counters.get("encodes", 0) / base["fuzz_wall_s"],
        "trace.overhead_ratio": base["adv_per_s"] / with_spans["adv_per_s"],
    })
    cross = cross_check(stats, phases)
    metrics["trace.telemetry_mismatches"] = sum(row["flagged"] for row in cross)
    extra = {
        "setup_wall_s": setup_wall,
        "fuzz_wall_s": fuzz_wall,
        "untraced_adv_per_s": base["adv_per_s"],
        "traced_adv_per_s": with_spans["adv_per_s"],
        "worker_spans": (
            "no worker processes" if not workload.n_processes
            else "collected from forked workers" if tracer.worker_spans
            else "parent-side only"
        ),
        "telemetry_phase_seconds": phases,
        "telemetry_counters": counters,
        "cross_check": cross,
        "ledger": ledger,
    }
    return {"metrics": metrics, "extra": extra, "state": state,
            "logs": [untraced, traced]}


def layer_metrics(stats: dict, fuzz_wall: float, setup_wall: float):
    """Per-layer metrics plus the full ``phase × layer`` ledger."""
    walls = {"fuzz": fuzz_wall, "setup": setup_wall}
    metrics: dict[str, float] = {}
    for phase, layer, stem, key, count_name in LEDGER:
        row = stats.get((phase, layer), {})
        busy = row.get("busy_s", 0.0)
        metrics[stem + count_name] = row.get(key, 0)
        metrics[stem + "busy_s"] = busy
        metrics[stem + "self_s"] = row.get("self_s", 0.0)
        metrics[stem + "share"] = busy / walls[phase]
    checked = stats.get(("fuzz", "fuzz.constraints"), {})
    metrics["fuzz.constraints.accepted_ratio"] = (
        checked.get("accepted", 0) / checked["checked"] if checked.get("checked") else 0.0
    )
    cache = stats.get(("fuzz", "utils.cache"), {})
    metrics["utils.cache.hit_ratio"] = (
        cache.get("hits", 0) / cache["lookups"] if cache.get("lookups") else 0.0
    )
    ledger = [
        {
            "phase": phase,
            "layer": layer,
            **{k: v for k, v in sorted(row.items())},
            "share": row["busy_s"] / walls[phase],
        }
        for (phase, layer), row in sorted(stats.items())
    ]
    return metrics, ledger


def cross_check(stats: dict, phases: dict) -> list[dict]:
    """Span self time vs ``CampaignTelemetry`` phase seconds, per phase."""
    rows = []
    for phase, layers in CROSS_CHECK.items():
        spans_s = sum(stats.get(("fuzz", layer), {}).get("self_s", 0.0) for layer in layers)
        telemetry_s = phases.get(phase, 0.0)
        if spans_s == 0.0 and telemetry_s == 0.0:
            continue
        ratio = spans_s / telemetry_s if telemetry_s else math.inf
        rows.append({
            "phase": phase,
            "layers": list(layers),
            "telemetry_s": telemetry_s,
            "spans_s": spans_s,
            "ratio": ratio,
            "flagged": not 0.9 <= ratio <= 1.1,
        })
    return rows


def check_names(spec: list[dict], metrics: dict) -> dict:
    """The metrics *spec* names, with units, or raise if one is missing."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec
    }


def report(workload, seed: int, trace: int, measured: dict, host: dict,
           benchmark: dict, out: Path = ROOT / "perfbench" / "results") -> dict:
    """Print the human-readable report, write the record to *out*, return the result."""
    logs = measured["logs"]
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    problems = [p for log in logs for p in log.problems]
    spec = benchmark["per_layer" if trace else "end_to_end"]
    values = check_names(spec, measured["metrics"])
    finite = all(math.isfinite(v["value"]) for v in values.values())
    result = {
        "correct": failed == 0 and not problems and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    state = measured["state"]
    executor = workload.executor
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}[workload.name]
    print(f"workload {workload.name} seed {seed} trace {trace}: {why}")
    print(f"host {host['host_class']}: {host['nproc']} cores, {host['cpu_model']}, "
          f"python {host['python']}, numpy {host['numpy']}, popcount {host['popcount']}, "
          f"git {host['git_sha'][:12]}, src {host['src_digest']}")
    print(f"executor used: {executor}; default_schedule_policy picks: {state.schedule_pick}")
    for name, entry in values.items():
        print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    if trace:
        extra = measured["extra"]
        print(f"tracing overhead: {extra['untraced_adv_per_s']:.4g} adv/s untraced, "
              f"{extra['traced_adv_per_s']:.4g} traced; worker spans: {extra['worker_spans']}")
        print("Amdahl (busy share of the phase wall; bound on the campaign "
              "speed-up if the layer got 2x faster; worker-side busy time "
              "sums over the workers):")
        for row in extra["ledger"]:
            share = row["share"]
            bound = 1.0 / (1.0 - share / 2.0) if share < 2.0 else math.inf
            print(f"  {row['phase']:<6} {row['layer']:<32} calls {row['calls']:>8} "
                  f"busy {row['busy_s']:9.4f}s self {row['self_s']:9.4f}s "
                  f"share {share:6.1%}  2x -> {bound:.3f}x")
        for row in extra["cross_check"]:
            flag = "DIFFERS >10%" if row["flagged"] else "ok"
            print(f"  telemetry {row['phase']:<9} {row['telemetry_s']:9.4f}s vs spans "
                  f"{row['spans_s']:9.4f}s ({'+'.join(row['layers'])}): {flag}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    record = {
        "workload": workload.name,
        "why": why,
        "seed": seed,
        "trace": trace,
        "host": host,
        "executor": executor,
        "schedule_pick": state.schedule_pick,
        "result": result,
        "all_metrics": measured["metrics"],
        "detail": measured["extra"],
        "problems": problems,
        "digests": {str(c): d for c, d in sorted(logs[-1].digests.items())},
    }
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        measured = measure_layers(workload, args.seed)
    else:
        measured = measure_end_to_end(workload, args.seed, args.seconds)
    result = report(workload, args.seed, args.trace, measured,
                    fingerprint(ROOT), benchmark)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
