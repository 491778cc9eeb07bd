"""The benchmark's workloads: set-up and one Alg. 1 campaign each.

Every workload fuzzes the same kind of system: a bipolar pixel model at
D = 10 000 trained on 1 500 synthetic digits, with ``HDTestConfig()``
defaults.  The model is built from a fixed training seed, so it is the
same system on every run.  The inputs it is fuzzed with are generated
from the run's ``--seed``.  They form a pool of equal-sized chunks; one
chunk is one campaign.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro import (
    BatchedExecutor,
    CrossModelOracle,
    HDCClassifier,
    HDTest,
    HDTestConfig,
    ModelEnsembleTarget,
    PixelEncoder,
    ProcessExecutor,
    compare_strategies,
    load_digits,
)
from repro.fuzz import default_schedule_policy

__all__ = ["Scale", "Setup", "WORKLOADS", "Workload"]

#: Seed of the training digits and of every member's codebooks.
MODEL_SEED = 2021
#: Worker processes of the process-executor workload.
PROCESS_WORKERS = 2

Span = Callable[..., Any]


def _no_span(layer: str):
    return nullcontext()


@dataclass(frozen=True)
class Scale:
    """Problem size of a workload (the self-test shrinks it)."""

    dimension: int = 10_000
    n_train: int = 1_500
    chunk: int = 16
    n_chunks: int = 10


@dataclass
class Setup:
    """What one set-up produced: the target and the seeded input pool."""

    target: Any
    chunks: list[np.ndarray]
    n_members: int
    constraints: dict[str, Any] = field(default_factory=dict)
    schedule_pick: str = ""


@dataclass(frozen=True)
class Workload:
    """One named campaign shape.

    ``executor`` is ``"serial"`` (``compare_strategies`` with
    ``executor=None``), ``"batched"`` or ``"process"``.
    """

    name: str
    strategies: tuple[str, ...]
    executor: str
    members: int = 1
    backend: Optional[str] = None
    scale: Scale = Scale()

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int, span: Span = _no_span) -> Setup:
        """Generate the data, train every member and repack it."""
        scale = self.scale
        with span("datasets"):
            train, _ = load_digits(n_train=scale.n_train, n_test=1, seed=MODEL_SEED)
            _, fuzz = load_digits(
                n_train=1, n_test=scale.chunk * scale.n_chunks, seed=seed
            )
        model = HDCClassifier(
            PixelEncoder(dimension=scale.dimension, rng=MODEL_SEED), 10
        ).fit(train.images, train.labels)
        target: Any = model
        if self.members > 1:
            target = ModelEnsembleTarget.trained_like(
                model, self.members, train.images, train.labels,
                rng=MODEL_SEED, backends=[self.backend] * self.members,
            )
        chunks = [
            fuzz.images[i * scale.chunk : (i + 1) * scale.chunk]
            for i in range(scale.n_chunks)
        ]
        return Setup(target=target, chunks=chunks, n_members=self.members)

    def describe(self, state: Setup) -> None:
        """Fill in what the checks and the record need (not timed)."""
        config = HDTestConfig()
        state.constraints = {
            name: HDTest(state.target, name, config=config).constraint
            for name in self.strategies
        }
        member_nbytes = 0
        if self.members > 1:
            member_nbytes = len(pickle.dumps(state.target.members[0]))
        state.schedule_pick = default_schedule_policy(
            self.scale.chunk, n_members=self.members, member_nbytes=member_nbytes
        )

    # -- one campaign ---------------------------------------------------
    def campaign(
        self,
        state: Setup,
        inputs: np.ndarray,
        rng: np.random.Generator,
        telemetry: Any = None,
    ) -> list[tuple[str, list]]:
        """Fuzz *inputs* once; ``(strategy, outcomes)`` per strategy."""
        config = HDTestConfig()
        batch = list(inputs)
        if self.executor == "serial":
            results = compare_strategies(
                state.target, batch, self.strategies, config=config,
                rng=rng, telemetry=telemetry,
            )
            return [(name, results[name].outcomes) for name in self.strategies]
        (strategy,) = self.strategies
        if self.executor == "batched":
            result = BatchedExecutor().run(
                state.target, strategy, batch, config=config, rng=rng,
                telemetry=telemetry,
            )
        else:
            with ProcessExecutor(n_workers=PROCESS_WORKERS) as executor:
                result = executor.run(
                    state.target, strategy, batch, config=config,
                    oracle=CrossModelOracle(), rng=rng, telemetry=telemetry,
                )
        return [(strategy, result.outcomes)]

    @property
    def n_processes(self) -> int:
        """Worker processes each campaign starts."""
        return PROCESS_WORKERS if self.executor == "process" else 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gauss-batched",
            strategies=("gauss",),
            executor="batched",
        ),
        Workload(
            name="rand-shift-serial",
            strategies=("rand", "shift"),
            executor="serial",
            scale=Scale(n_chunks=8),
        ),
        Workload(
            name="ens5-packed-process",
            strategies=("rand",),
            executor="process",
            members=5,
            backend="packed-bipolar",
            scale=Scale(n_chunks=8),
        ),
    )
}
