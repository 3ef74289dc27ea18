"""Frozen run-configuration dataclasses for the S2FA facade and CLI.

These immutable dataclasses are the single home of every run knob:

* :class:`ExploreConfig` — the compile + DSE half of the pipeline (seed,
  virtual time limit, tuner workers, process-pool width, caches,
  checkpoints, surrogate pruning, target device);
* :class:`RuntimeConfig` — the Spark + Blaze half (partitions, fault
  schedule, engine), with the offload deadlines/backoff/quarantine in
  one :class:`OffloadPolicy`;
* :class:`StreamConfig`, :class:`ServeConfig` and
  :class:`DatasetConfig` — the ``stream``, ``serve`` and
  ``dataset build`` verbs.

A field that the ``s2fa`` CLI exposes carries its option spelling and
its one help string as field metadata (see :func:`flag`); the CLI
derives its flags, their defaults and their help from these fields.
The facade consumes the configs directly; all of them validate eagerly
in ``__post_init__`` so a bad knob fails at construction, not mid-run.
"""

from __future__ import annotations

import dataclasses
from argparse import ArgumentTypeError
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import (
    BlazeError,
    DatasetError,
    DSEError,
    ServeError,
    StreamError,
)


def flag(spelling: str, help: str, **argparse_kwargs) -> dict:
    """Field metadata exposing a config field as the CLI option
    ``spelling``; ``help`` documents the field (the CLI appends the
    default).  Extra keywords go to ``ArgumentParser.add_argument``;
    the CLI infers ``type`` from an int/float default and makes a bool
    field a switch that flips its default."""
    return {"flag": (spelling, help, argparse_kwargs)}


def name_list(text: str) -> tuple:
    """``"a,b,c"`` -> ``("a", "b", "c")``; blank names are dropped."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def int_pair(text: str) -> tuple:
    """``"KEY=N"`` -> ``("KEY", N)`` (a bad form is a usage error)."""
    key, sep, value = text.partition("=")
    try:
        if key and sep:
            return key, int(value)
    except ValueError:
        pass
    raise ArgumentTypeError(
        f"expected KEY=N with an integer N, got {text!r}")


@dataclass(frozen=True)
class OffloadPolicy:
    """Knobs of the resilient offload path (virtual seconds)."""

    #: Invocation attempts per batch before the board is quarantined.
    max_attempts: int = 3
    #: Host deadline per batch; a hung invocation is cut here.
    batch_deadline_seconds: float = 0.05
    #: Backoff before retry ``i`` is ``base * factor**(i-1)``.
    backoff_base_seconds: float = 1e-4
    backoff_factor: float = 2.0
    #: Quarantine ``q`` lasts ``base * factor**q`` before a probe.
    quarantine_base_seconds: float = 1e-2
    quarantine_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise BlazeError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.batch_deadline_seconds <= 0:
            raise BlazeError("batch_deadline_seconds must be positive, "
                             f"got {self.batch_deadline_seconds}")


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs of ``session.explore`` (compile + design space exploration).

    ``jobs`` sets the real process-pool width used for HLS estimation
    (virtual-clock results are identical at any value); ``cache_dir``
    enables the persistent evaluation cache so repeated explorations of
    the same kernel skip re-estimation.
    """

    seed: int = field(default=0, metadata=flag(
        "--seed", "tuner RNG seed (the whole exploration is "
        "deterministic in it)"))
    time_limit_minutes: float = field(default=240.0, metadata=flag(
        "--time-limit", "global virtual time limit, in synthesis minutes"))
    #: Virtual DSE workers (the paper's eight-core machine).
    workers: int = 8
    jobs: int = field(default=1, metadata=flag(
        "--jobs", "real process-pool width for HLS estimation (results "
        "are identical at any value)"))
    cache_dir: Optional[str] = field(default=None, metadata=flag(
        "--cache-dir", "persistent evaluation cache directory; repeated "
        "runs skip re-estimation (unset: no cache)", metavar="DIR"))
    #: Decision-tree partition budget (Section 4.3.1).
    max_partitions: int = 8
    checkpoint_dir: Optional[str] = field(default=None, metadata=flag(
        "--checkpoint-dir", "crash-safe exploration: journal the explorer "
        "state here at every batch boundary (SIGINT/SIGTERM then exit 75 "
        "with a resumable checkpoint); also hosts the evaluation cache "
        "unless a cache directory is given, so a resume replays the "
        "killed batch without duplicate evaluations (unset: no "
        "checkpoints)", metavar="DIR"))
    resume: bool = field(default=False, metadata=flag(
        "--resume", "resume from the checkpoint in the checkpoint "
        "directory if one exists (otherwise start fresh, so restarts "
        "are idempotent)"))
    surrogate: Optional[str] = field(default=None, metadata=flag(
        "--surrogate", "learned cost-model artifact (from 's2fa dataset "
        "train'); the engine prunes each proposal batch by its "
        "predictions, but every reported design is still analytically "
        "scored (unset: no pruning)", metavar="MODEL.json"))
    prune_fraction: float = field(default=0.5, metadata=flag(
        "--prune-fraction", "fraction of each unseen batch the surrogate "
        "may prune, in [0, 1)"))
    device: str = field(default="xcvu9p", metadata=flag(
        "--device", "registered device model the exploration targets; an "
        "unknown name fails with the list of registered ones",
        metavar="NAME"))

    def __post_init__(self) -> None:
        self.resolve_device()           # fail on a bad name eagerly
        if self.jobs < 1:
            raise DSEError(f"jobs must be >= 1, got {self.jobs}")
        if not 0.0 <= self.prune_fraction < 1.0:
            raise DSEError("prune_fraction must be in [0, 1), got "
                           f"{self.prune_fraction}")
        if self.resume and not self.checkpoint_dir:
            raise DSEError(
                "resume=True needs checkpoint_dir (there is nowhere to "
                "resume from)")
        if self.workers < 1:
            raise DSEError(f"workers must be >= 1, got {self.workers}")
        if self.max_partitions < 1:
            raise DSEError(
                f"max_partitions must be >= 1, got {self.max_partitions}")
        if self.time_limit_minutes <= 0:
            raise DSEError("time_limit_minutes must be positive, got "
                           f"{self.time_limit_minutes}")

    def replace(self, **changes) -> "ExploreConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def resolve_device(self):
        """The registered :class:`~repro.hls.device.Device` for
        ``device`` (typed error on an unknown name)."""
        from .hls.device import get_device

        return get_device(self.device)


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs of ``s2fa dataset build`` (the QoR dataset factory).

    The factory sweeps kernels (the built-in app suite plus
    fuzz-generated ones) crossed with sampled Merlin configurations
    through the analytical estimator, and writes one versioned JSONL
    record per (kernel, config) pair.  The sweep is deterministic in
    ``seed``; with ``resume=True`` records already present in ``out``
    are kept and the sweep continues after them.
    """

    out: str = field(default="dataset.jsonl", metadata=flag(
        "--out", "output JSONL path", metavar="FILE"))
    seed: int = field(default=0, metadata=flag(
        "--seed", "sweep seed: kernels and sampled configs are a pure "
        "function of it"))
    kernels: int = field(default=4, metadata=flag(
        "--kernels", "fuzz-generated kernels on top of the app suite"))
    configs: int = field(default=64, metadata=flag(
        "--configs", "sampled design configurations per kernel"))
    apps: bool = field(default=True, metadata=flag(
        "--no-apps", "include the built-in application suite kernels "
        "(--no-apps leaves them out)"))
    jobs: int = field(default=1, metadata=flag(
        "--jobs", "real process-pool width for HLS estimation"))
    cache_dir: Optional[str] = field(default=None, metadata=flag(
        "--cache-dir", "persistent evaluation cache directory (unset: "
        "no cache)", metavar="DIR"))
    resume: bool = field(default=False, metadata=flag(
        "--resume", "keep the records already in the output file and "
        "continue after them"))

    def __post_init__(self) -> None:
        if not self.out:
            raise DatasetError("out must name an output file")
        if self.kernels < 0:
            raise DatasetError(
                f"kernels must be >= 0, got {self.kernels}")
        if self.configs < 1:
            raise DatasetError(
                f"configs must be >= 1, got {self.configs}")
        if self.jobs < 1:
            raise DatasetError(f"jobs must be >= 1, got {self.jobs}")
        if not self.apps and self.kernels == 0:
            raise DatasetError(
                "nothing to sweep: apps=False and kernels=0")

    def replace(self, **changes) -> "DatasetConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of ``session.run`` (Spark + Blaze deployment).

    ``fault_plan`` is the textual schedule spec of
    :meth:`repro.fpga.faults.FaultPlan.parse`; ``policy`` holds the
    offload deadlines, retries, backoff and quarantine.
    """

    partitions: int = field(default=4, metadata=flag(
        "--partitions", "Spark partitions (each partition is one "
        "accelerator batch)"))
    fault_plan: Optional[str] = field(default=None, metadata=flag(
        "--fault-plan", "device fault schedule, e.g. "
        "'transient=0.2,hang=0.05,corrupt=0.1,lose_after=40' (unset: "
        "fault-free hardware)", metavar="SPEC"))
    fault_seed: int = field(default=0, metadata=flag(
        "--fault-seed", "seed of the fault schedule"))
    #: Offload deadlines, retries, backoff and quarantine.
    policy: OffloadPolicy = field(default_factory=OffloadPolicy)
    engine: Optional[str] = field(default=None, metadata=flag(
        "--engine", "functional execution engine: 'tac' = flattened "
        "register-IR engines, 'stack' = the original stack/tree "
        "interpreters, kept as differential oracles (unset: "
        "$S2FA_ENGINE, then 'tac')", choices=("tac", "stack")))

    def __post_init__(self) -> None:
        from .engines import resolve_engine

        resolve_engine(self.engine)     # fail on a bad name eagerly
        if self.partitions < 1:
            raise BlazeError(
                f"partitions must be >= 1, got {self.partitions}")
        # Parse eagerly so a bad spec fails at construction time.
        self.plan()

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def plan(self):
        """The parsed :class:`~repro.fpga.faults.FaultPlan` (or None)."""
        if self.fault_plan is None:
            return None
        from .fpga.faults import FaultPlan

        return FaultPlan.parse(self.fault_plan, seed=self.fault_seed)


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of ``session.stream`` / the ``s2fa stream`` CLI verb.

    Batch *content* is pinned by ``(data_seed, batch_records)`` alone —
    micro-batch ``n`` always covers source offsets
    ``[n * batch_records, (n+1) * batch_records)`` — so every other knob
    here (intervals, lag thresholds, fault schedules in ``runtime``)
    changes only timing and placement, never what the sink records.
    The offload-path knobs (fault schedule, deadlines, engine) ride
    along in ``runtime``, like :class:`ServeConfig`.
    """

    batch_records: int = field(default=32, metadata=flag(
        "--batch-records", "source records admitted per micro-batch"))
    interval_seconds: float = field(default=0.05, metadata=flag(
        "--interval", "micro-batch interval, virtual seconds",
        metavar="SECONDS"))
    #: Unbounded (``None``) only with ``max_batches`` bounding the run.
    total_records: Optional[int] = field(default=256, metadata=flag(
        "--records", "bounded source size"))
    max_batches: Optional[int] = field(default=None, metadata=flag(
        "--batches", "hard cap on micro-batches this run (unset: until "
        "the source is exhausted)", type=int))
    data_seed: int = field(default=21, metadata=flag(
        "--data-seed", "seed of the deterministic record source"))
    #: Admission depth while keeping up (shrinks to 1 under LAGGING).
    prefetch_batches: int = 2
    max_lag_intervals: float = field(default=2.0, metadata=flag(
        "--max-lag", "LAGGING threshold: completion slip past the next "
        "batch's due time, in batch intervals", metavar="INTERVALS"))
    sink: Optional[str] = field(default=None, metadata=flag(
        "--sink", "append sink rows to this JSONL file (unset: "
        "in-memory sink)", metavar="FILE"))
    checkpoint_dir: Optional[str] = field(default=None, metadata=flag(
        "--checkpoint-dir", "crash-safe exactly-once streaming: "
        "checkpoint source offsets + operator state here after every "
        "micro-batch (SIGINT/SIGTERM then exit 75 resumable); the sink "
        "stays idempotent regardless (unset: no checkpoints)",
        metavar="DIR"))
    resume: bool = field(default=False, metadata=flag(
        "--resume", "resume from the checkpoint in the checkpoint "
        "directory if one exists (otherwise start fresh)"))
    #: Offload-path configuration (fault schedule, policy, engine).
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        if self.batch_records < 1:
            raise StreamError(
                f"batch_records must be >= 1, got {self.batch_records}")
        if self.interval_seconds <= 0:
            raise StreamError(
                "interval_seconds must be positive, got "
                f"{self.interval_seconds}")
        if self.total_records is not None and self.total_records < 0:
            raise StreamError(
                f"total_records must be >= 0, got {self.total_records}")
        if self.max_batches is not None and self.max_batches < 1:
            raise StreamError(
                f"max_batches must be >= 1, got {self.max_batches}")
        if self.total_records is None and self.max_batches is None:
            raise StreamError(
                "an unbounded source (total_records=None) needs "
                "max_batches to bound the run")
        if self.prefetch_batches < 1:
            raise StreamError(
                "prefetch_batches must be >= 1, got "
                f"{self.prefetch_batches}")
        if self.max_lag_intervals <= 0:
            raise StreamError(
                "max_lag_intervals must be positive, got "
                f"{self.max_lag_intervals}")
        if self.resume and not self.checkpoint_dir:
            raise StreamError(
                "resume=True needs checkpoint_dir (there is nowhere to "
                "resume from)")

    def replace(self, **changes) -> "StreamConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the ``s2fa serve`` multi-tenant daemon.

    The offload-path knobs (deadlines, backoff, quarantine, fault
    schedule, engine) ride along in ``runtime``; everything else here is
    the serving surface itself: admission bounds, fair-share weights,
    the board fleet width, circuit breaking, and drain behaviour.
    """

    queue_depth: int = field(default=64, metadata=flag(
        "--queue-depth", "bounded per-tenant queue depth; a full queue "
        "sheds OVERLOADED"))
    #: Given as a mapping or as ``(tenant, weight)`` pairs; the config
    #: keeps its own dict copy.
    tenant_weights: Mapping[str, int] = field(
        default_factory=dict, metadata=flag(
            "--tenant-weight", "weighted-round-robin weight of a tenant "
            "(repeatable); unlisted tenants get the default weight",
            action="append", type=int_pair, metavar="TENANT=W"))
    #: Weight of tenants that ``tenant_weights`` does not list.
    default_weight: int = 1
    replicas: int = field(default=2, metadata=flag(
        "--replicas", "virtual FPGA boards deployed per kernel (the "
        "fleet width)"))
    device: str = field(default="xcvu9p", metadata=flag(
        "--device", "registered device model the serve core compiles and "
        "explores against, and the board model of a homogeneous fleet; "
        "an unknown name fails with the list of registered ones",
        metavar="NAME"))
    fleet_devices: tuple = field(default=(), metadata=flag(
        "--fleet-devices", "heterogeneous fleet: comma-separated "
        "registered device names assigned to the replicas of every "
        "kernel round-robin; placement is device-aware, results stay "
        "bit-identical to a homogeneous fleet (unset: homogeneous)",
        type=name_list, metavar="A,B,C"))
    default_deadline_s: Optional[float] = field(default=None, metadata=flag(
        "--default-deadline", "default per-request deadline, virtual "
        "seconds (unset: unbounded)", type=float, metavar="SECONDS"))
    breaker_threshold: int = field(default=3, metadata=flag(
        "--breaker-threshold", "consecutive hardware failures before a "
        "kernel's circuit opens"))
    breaker_reset_s: float = field(default=0.5, metadata=flag(
        "--breaker-reset", "circuit cooldown, virtual seconds, before a "
        "half-open probe"))
    #: Virtual time budget for ``explore=True`` requests (DSE minutes).
    explore_time_limit_minutes: float = 20.0
    #: Grace period (real seconds) for the in-flight request to finish
    #: during a drain before the daemon gives up and exits anyway.
    drain_grace_s: float = 10.0
    #: Offload-path configuration (fault schedule, policy, engine).
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        from .hls.device import get_device

        object.__setattr__(self, "tenant_weights",
                           dict(self.tenant_weights))
        get_device(self.device)         # fail on a bad name eagerly
        for name in self.fleet_devices:
            get_device(name)
        if self.queue_depth < 1:
            raise ServeError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.replicas < 1:
            raise ServeError(
                f"replicas must be >= 1, got {self.replicas}")
        if self.default_weight < 1:
            raise ServeError(
                f"default_weight must be >= 1, got {self.default_weight}")
        for tenant, weight in self.tenant_weights.items():
            if weight < 1:
                raise ServeError(
                    f"tenant {tenant!r}: weight must be >= 1, "
                    f"got {weight}")
        if (self.default_deadline_s is not None
                and self.default_deadline_s <= 0):
            raise ServeError(
                "default_deadline_s must be positive, got "
                f"{self.default_deadline_s}")
        if self.breaker_threshold < 1:
            raise ServeError(
                f"breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold}")
        if self.breaker_reset_s <= 0:
            raise ServeError(
                f"breaker_reset_s must be positive, "
                f"got {self.breaker_reset_s}")
        if self.explore_time_limit_minutes <= 0:
            raise ServeError(
                "explore_time_limit_minutes must be positive, got "
                f"{self.explore_time_limit_minutes}")
        if self.drain_grace_s <= 0:
            raise ServeError(
                f"drain_grace_s must be positive, "
                f"got {self.drain_grace_s}")

    def replace(self, **changes) -> "ServeConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
