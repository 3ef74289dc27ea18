"""Top-level S2FA entry points: the one-call automation flow of Fig. 1.

:class:`S2FASession` is the facade over the whole pipeline.  One session
owns the run configuration (:class:`~repro.config.ExploreConfig` /
:class:`~repro.config.RuntimeConfig`), the tracer, and a compile cache,
and exposes the three pipeline verbs:

* ``session.compile(app)`` — Scala kernel -> HLS-C design,
* ``session.explore(app)`` — compile + design space exploration,
* ``session.run(app)``     — deploy on the Spark + Blaze runtime and
  cross-check against the pure-JVM oracle.

``app`` is a built-in application name (``"KMeans"``, case-insensitive),
an :class:`~repro.apps.base.AppSpec`, or raw Scala source.  With
``trace=True`` every stage records into a hierarchical span tracer that
:meth:`~S2FASession.export_trace` writes as Chrome ``trace_event`` JSON
or a JSONL span log.
"""

from __future__ import annotations

import contextlib
import signal as _signal
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

from .apps.base import AppSpec
from .compiler.driver import CompiledKernel, compile_kernel
from .compiler.interface import LayoutConfig
from .config import ExploreConfig, RuntimeConfig, StreamConfig
from .cost import CostModel, SurrogateCostModel
from .dse.cache import CacheStore
from .dse.checkpoint import CheckpointStore
from .dse.engine import S2FAEngine
from .dse.parallel import ParallelEvaluator
from .dse.result import DSERun
from .dse.space import DesignSpace, build_space
from .errors import (
    BlazeError,
    DSEError,
    ExplorationInterrupted,
    S2FAError,
)
from .hls.device import Device, REGISTRY, get_device
from .hls.estimator import estimate
from .hls.result import HLSResult
from .hlsc.printer import kernel_to_c
from .merlin.config import DesignConfig
from .merlin.transforms import apply_config
from .obs import (
    NULL_TRACER,
    Tracer,
    summarize,
    write_chrome_trace,
    write_jsonl,
)


@contextlib.contextmanager
def _graceful_shutdown(engine, enabled: bool):
    """Route SIGINT/SIGTERM to the engine's graceful stop.

    ``engine`` is anything with a ``request_stop`` method — the DSE
    engine and the streaming context share the same stop contract.

    Installed only while checkpointing is on (the stop is only useful
    when it leaves something to resume) and only on the main thread
    (signal handlers cannot be set elsewhere).  The previous handlers
    are restored on exit, so nested pipelines keep their behavior.
    """
    if not enabled or threading.current_thread() \
            is not threading.main_thread():
        yield
        return
    previous = {}
    for signum in (_signal.SIGINT, _signal.SIGTERM):
        try:
            previous[signum] = _signal.signal(
                signum, lambda *_: engine.request_stop())
        except (ValueError, OSError):       # pragma: no cover
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            _signal.signal(signum, handler)


@dataclass
class AcceleratorBuild:
    """Everything produced by one S2FA exploration for a kernel."""

    compiled: CompiledKernel
    space: DesignSpace
    dse: DSERun
    config: DesignConfig
    hls: HLSResult
    #: the device envelope the exploration targeted.
    device: Optional[Device] = None

    @property
    def accel_id(self) -> str:
        return self.compiled.accel_id

    def hls_c_source(self) -> str:
        """Pragma-annotated HLS C of the chosen design."""
        return kernel_to_c(apply_config(self.compiled.kernel, self.config))


@dataclass
class DeviceSweep:
    """Outcome of one multi-device exploration (``s2fa dse --devices``).

    ``builds`` maps device name -> :class:`AcceleratorBuild` for every
    device whose exploration found a feasible design; ``failures`` maps
    device name -> reason for the rest.  ``chosen`` is the *cheapest*
    qualifying device: among devices whose best design is feasible and
    (when ``qor_target`` is set) meets the normalized-cycles target,
    the one with the lowest ``unit_price`` (ties broken by name) —
    a fully deterministic selection.
    """

    builds: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    chosen: Optional[str] = None
    qor_target: Optional[float] = None

    def qualifies(self, name: str) -> bool:
        """Does ``name``'s best design meet the QoR bar?"""
        build = self.builds.get(name)
        if build is None or not build.hls.feasible:
            return False
        return (self.qor_target is None
                or build.hls.normalized_cycles <= self.qor_target)

    @property
    def best(self) -> "AcceleratorBuild":
        """The chosen device's build (raises when nothing qualified)."""
        if self.chosen is None:
            explored = sorted(set(self.builds) | set(self.failures))
            raise DSEError(
                "no explored device met the QoR target "
                f"(explored: {', '.join(explored) or 'none'})")
        return self.builds[self.chosen]


@dataclass
class RunOutcome:
    """Everything produced by one Blaze deployment of an application."""

    app: str
    results: list
    expected: list
    partitions: int
    metrics: object                 # BlazeMetrics of the runtime
    fault_plan: Optional[object] = None
    accel_id: str = ""
    events: list = field(default_factory=list)

    @property
    def matched(self) -> bool:
        """Did the offloaded results match the pure-JVM oracle?"""
        return self.results == self.expected

    @property
    def task_count(self) -> int:
        return len(self.expected)


class S2FASession:
    """Facade owning config, tracer, compile cache, and clock.

    A session is cheap to construct; all heavy work happens in the verb
    methods.  Tracing is off by default (``tracer`` is the shared no-op
    :data:`~repro.obs.NULL_TRACER`); pass ``trace=True`` to record spans,
    or an explicit :class:`~repro.obs.Tracer` to share one across
    sessions.
    """

    def __init__(self,
                 explore: Optional[ExploreConfig] = None,
                 runtime: Optional[RuntimeConfig] = None, *,
                 device: Optional[Device] = None,
                 cost_model: Optional[CostModel] = None,
                 tracer: Optional[Tracer] = None,
                 trace: bool = False):
        self.explore_config = explore if explore is not None \
            else ExploreConfig()
        self.runtime_config = runtime if runtime is not None \
            else RuntimeConfig()
        #: the session's device model.  ``None`` resolves the explore
        #: config's registered device name (default: the paper's VU9P);
        #: an explicit :class:`~repro.hls.device.Device` wins, so tests
        #: can pass scaled envelopes that have no registry name.
        self.device = device if device is not None \
            else self.explore_config.resolve_device()
        #: the :class:`~repro.cost.CostModel` that scores design points
        #: during ``explore`` (``None``: the analytical estimator).
        self.cost_model = cost_model
        if tracer is None:
            tracer = Tracer() if trace else NULL_TRACER
        self.tracer = tracer
        self._compile_cache: dict[tuple, CompiledKernel] = {}

    # ------------------------------------------------------------------
    # App resolution
    # ------------------------------------------------------------------

    @staticmethod
    def resolve(app: Union[str, AppSpec]) -> Optional[AppSpec]:
        """The :class:`AppSpec` for ``app``, or ``None`` for raw source.

        Strings are treated as Scala source if they define a class and
        as (case-insensitive) registry names otherwise; an unknown name
        raises :class:`~repro.errors.S2FAError` listing the known apps.
        """
        if isinstance(app, AppSpec):
            return app
        if not isinstance(app, str):
            raise S2FAError(
                f"expected an app name, AppSpec, or Scala source, "
                f"got {type(app).__name__}")
        if "class" in app:
            return None             # raw Scala source
        from .apps import get_app

        try:
            return get_app(app)
        except KeyError as exc:
            raise S2FAError(exc.args[0]) from None

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------

    def compile(self, app: Union[str, AppSpec], *,
                kernel_class: Optional[str] = None,
                layout_config: Optional[LayoutConfig] = None,
                pattern: Optional[str] = None,
                batch_size: Optional[int] = None) -> CompiledKernel:
        """Compile ``app`` through the full S2FA frontend (cached).

        For built-in applications the spec's own layout/pattern/batch
        are the defaults; explicit keywords override them (the S-W
        functional variant does this).  Identical requests within one
        session return the same :class:`CompiledKernel`.
        """
        spec = self.resolve(app)
        if spec is not None:
            source = spec.scala_source
            layout_config = layout_config or spec.layout_config
            pattern = pattern or spec.pattern
            batch_size = batch_size or spec.batch_size
        else:
            source = app
            pattern = pattern or "map"
            batch_size = batch_size or 1024
        key = (source, kernel_class, pattern, batch_size,
               repr(layout_config))
        cached = self._compile_cache.get(key)
        with self.tracer.span("pipeline.compile", pattern=pattern,
                              batch_size=batch_size,
                              cache_hit=cached is not None) as span:
            if cached is None:
                cached = compile_kernel(
                    source, kernel_class=kernel_class,
                    layout_config=layout_config, pattern=pattern,
                    batch_size=batch_size, tracer=self.tracer)
                self._compile_cache[key] = cached
            span.set(accel=cached.accel_id)
        return cached

    def hls_c(self, app: Union[str, AppSpec], *,
              config: Optional[DesignConfig] = None,
              kernel_class: Optional[str] = None,
              layout_config: Optional[LayoutConfig] = None,
              pattern: Optional[str] = None,
              batch_size: Optional[int] = None) -> str:
        """The (optionally pragma-annotated) HLS C for ``app``."""
        compiled = self.compile(
            app, kernel_class=kernel_class, layout_config=layout_config,
            pattern=pattern, batch_size=batch_size)
        kernel = compiled.kernel
        if config is not None:
            kernel = apply_config(kernel, config)
        return kernel_to_c(kernel)

    # ------------------------------------------------------------------
    # explore
    # ------------------------------------------------------------------

    def explore(self, app: Union[str, AppSpec], *,
                kernel_class: Optional[str] = None,
                layout_config: Optional[LayoutConfig] = None,
                pattern: Optional[str] = None,
                batch_size: Optional[int] = None,
                device: Optional[Device] = None) -> AcceleratorBuild:
        """Compile + DSE: pick the best design under the session config.

        With ``checkpoint_dir`` set the exploration is crash-safe: the
        engine journals its state at every batch boundary, SIGINT/SIGTERM
        turn into a graceful stop raising
        :class:`~repro.errors.ExplorationInterrupted`, and
        ``resume=True`` continues a previously interrupted run (or
        starts fresh if no checkpoint exists).

        ``device`` explores against a different envelope than the
        session's (the multi-device sweep passes each candidate board
        here); caches and checkpoints are keyed by the device identity,
        so per-device explorations can share one directory safely.
        """
        cfg = self.explore_config
        device = device if device is not None else self.device
        with self.tracer.span("pipeline.explore", seed=cfg.seed,
                              jobs=cfg.jobs, device=device.name) as span:
            compiled = self.compile(
                app, kernel_class=kernel_class,
                layout_config=layout_config, pattern=pattern,
                batch_size=batch_size)
            span.set(accel=compiled.accel_id)
            space = build_space(compiled)
            # Checkpointing implies a persistent cache (in the checkpoint
            # directory unless one is named): resuming replays the killed
            # batch's already-estimated points as store hits, which is
            # what makes the resumed trajectory duplicate-free.
            cache_dir = cfg.cache_dir or cfg.checkpoint_dir
            store = CacheStore(cache_dir) if cache_dir else None
            checkpoints = (CheckpointStore(cfg.checkpoint_dir)
                           if cfg.checkpoint_dir else None)
            surrogate = (SurrogateCostModel.load(cfg.surrogate)
                         if cfg.surrogate else None)
            with ParallelEvaluator(compiled, device, store=store,
                                   jobs=cfg.jobs,
                                   cost_model=self.cost_model,
                                   tracer=self.tracer) as evaluator:
                engine = S2FAEngine(
                    evaluator, space, seed=cfg.seed,
                    time_limit_minutes=cfg.time_limit_minutes,
                    workers=cfg.workers,
                    max_partitions=cfg.max_partitions,
                    checkpoint_store=checkpoints,
                    surrogate=surrogate,
                    prune_fraction=cfg.prune_fraction,
                    tracer=self.tracer)
                resume = (cfg.resume and checkpoints is not None
                          and checkpoints.has(evaluator.kernel_digest))
                with _graceful_shutdown(engine,
                                        enabled=checkpoints is not None):
                    run = engine.resume() if resume else engine.run()
            if run.best_point is None:
                raise DSEError(
                    "the DSE found no feasible design point "
                    f"(explored {run.evaluations} points)")
            config = DesignConfig.from_point(run.best_point)
            if self.cost_model is None:
                hls = estimate(compiled.kernel, config, device,
                               tracer=self.tracer)
            else:
                # A custom cost model owns the notion of quality; report
                # the design the way the model scored it.
                hls = self.cost_model.score(
                    compiled.kernel, config, device,
                    tracer=self.tracer).to_result(device)
            span.set(evaluations=run.evaluations,
                     best_design=config.describe())
        return AcceleratorBuild(compiled=compiled, space=space, dse=run,
                                config=config, hls=hls, device=device)

    # ------------------------------------------------------------------
    # explore across devices
    # ------------------------------------------------------------------

    def explore_devices(self, app: Union[str, AppSpec],
                        devices: Optional[list] = None, *,
                        qor_target: Optional[float] = None,
                        kernel_class: Optional[str] = None,
                        layout_config: Optional[LayoutConfig] = None,
                        pattern: Optional[str] = None,
                        batch_size: Optional[int] = None) -> DeviceSweep:
        """Explore ``app`` on every candidate device, pick the cheapest.

        The device is a first-class DSE dimension: each candidate board
        gets its own full (device x Merlin config) exploration — cache
        and checkpoint entries are namespaced by the device's envelope
        identity, so the sweeps share one directory without cross-talk.
        ``devices`` is a list of registered names or
        :class:`~repro.hls.device.Device` objects (default: the whole
        registry); the sweep visits them cheapest-first and the
        selection is deterministic (price, then name).
        """
        if not devices:
            candidates = list(REGISTRY)
        else:
            candidates = [d if isinstance(d, Device) else get_device(d)
                          for d in devices]
        candidates.sort(key=lambda d: (d.unit_price, d.name))
        if qor_target is not None and qor_target <= 0:
            raise DSEError(
                f"qor_target must be positive, got {qor_target}")
        sweep = DeviceSweep(qor_target=qor_target)
        with self.tracer.span("pipeline.explore_devices",
                              devices=len(candidates)) as span:
            for dev in candidates:
                try:
                    sweep.builds[dev.name] = self.explore(
                        app, kernel_class=kernel_class,
                        layout_config=layout_config, pattern=pattern,
                        batch_size=batch_size, device=dev)
                except ExplorationInterrupted:
                    raise       # resumable; never mask as a board miss
                except DSEError as exc:
                    # "No feasible design on this board" is a sweep
                    # result, not a sweep failure.
                    sweep.failures[dev.name] = str(exc)
            for dev in candidates:     # cheapest-first, deterministic
                if sweep.qualifies(dev.name):
                    sweep.chosen = dev.name
                    break
            span.set(chosen=sweep.chosen or "<none>")
        return sweep

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self, app: Union[str, AppSpec], *,
            tasks: int = 64,
            data_seed: int = 21,
            config: Optional[DesignConfig] = None,
            device: Optional[Device] = None) -> RunOutcome:
        """Deploy ``app`` on Spark + Blaze and verify against the JVM.

        ``config`` picks the registered design (default: the expert
        manual design); pass ``session.explore(app).config`` to deploy
        the explored one.  ``device`` deploys on a different board
        model than the session's (the multi-device DSE deploys on the
        board it selected).  Requires a built-in application (the raw
        Scala path has no workload/oracle).
        """
        from .spark import SparkContext

        spec = self.resolve(app)
        if spec is None:
            raise S2FAError(
                "session.run needs a built-in application (its workload "
                "and JVM oracle); raw Scala source has neither")
        cfg = self.runtime_config
        with self.tracer.span("pipeline.run", app=spec.name,
                              tasks=tasks,
                              partitions=cfg.partitions) as span:
            # Apps whose full-size kernels are too slow to execute
            # functionally declare bounded variants on their spec; the
            # variants exercise the identical code path.
            if spec.functional_layout is not None:
                compiled = self.compile(
                    spec, layout_config=spec.functional_layout)
            else:
                compiled = self.compile(spec)
            workload = spec.functional_tasks_for(tasks, seed=data_seed)

            plan = cfg.plan()
            sc = SparkContext(default_parallelism=cfg.partitions)
            runtime = self._make_runtime(sc, plan, device=device)
            runtime.register(compiled,
                             config or spec.manual_config(compiled))
            shell = runtime.wrap(sc.parallelize(workload))
            if compiled.pattern == "map":
                results = shell.map_acc(compiled.accel_id).collect()
                expected = [spec.reference(task) for task in workload]
            elif compiled.pattern == "filter":
                results = shell.filter_acc(compiled.accel_id).collect()
                expected = [task for task in workload
                            if spec.reference(task)]
            else:
                raise BlazeError(
                    f"session.run does not support the "
                    f"{compiled.pattern!r} pattern yet")
            outcome = RunOutcome(
                app=spec.name, results=results, expected=expected,
                partitions=min(cfg.partitions, len(workload)),
                metrics=runtime.metrics, fault_plan=plan,
                accel_id=compiled.accel_id)
            span.set(matched=outcome.matched)
        return outcome

    def _make_runtime(self, sc, plan, device: Optional[Device] = None):
        from .blaze import BlazeRuntime

        return BlazeRuntime(sc, device=device or self.device,
                            fault_plan=plan,
                            policy=self.runtime_config.policy,
                            tracer=self.tracer,
                            engine=self.runtime_config.engine)

    # ------------------------------------------------------------------
    # stream
    # ------------------------------------------------------------------

    def stream(self, app, config: Optional[StreamConfig] = None):
        """Run a streaming pipeline to completion (micro-batched).

        ``app`` is a registered streaming application name
        (``"lr-stream"``, case-insensitive) or a
        :class:`~repro.apps.streaming.StreamAppSpec`.  ``config``
        defaults to ``StreamConfig(runtime=self.runtime_config)``.

        With ``checkpoint_dir`` set the stream is crash-safe and
        exactly-once: every micro-batch's sink rows are made durable
        before its checkpoint, SIGINT/SIGTERM turn into a graceful stop
        raising :class:`~repro.errors.StreamInterrupted` after the
        boundary checkpoint, and ``resume=True`` continues where the
        previous run stopped — the recovered sink is byte-identical to
        an uninterrupted run, with zero duplicate
        ``(batch_id, partition)`` rows.
        """
        from .apps.streaming import StreamAppSpec
        from .blaze import BlazeRuntime
        from .spark import SparkContext
        from .streaming import JSONLSink, MemorySink, StreamContext

        if isinstance(app, StreamAppSpec):
            spec = app
        elif isinstance(app, str):
            from .apps import get_stream_app

            try:
                spec = get_stream_app(app)
            except KeyError as exc:
                raise S2FAError(exc.args[0]) from None
        else:
            raise S2FAError(
                f"expected a streaming app name or StreamAppSpec, "
                f"got {type(app).__name__}")
        cfg = config if config is not None \
            else StreamConfig(runtime=self.runtime_config)
        rcfg = cfg.runtime
        with self.tracer.span("pipeline.stream", app=spec.name,
                              batch_records=cfg.batch_records) as span:
            compiled = spec.compile(self)
            span.set(accel=compiled.accel_id)
            sc = SparkContext(default_parallelism=rcfg.partitions)
            runtime = BlazeRuntime(sc, device=self.device,
                                   fault_plan=rcfg.plan(),
                                   policy=rcfg.policy,
                                   tracer=self.tracer,
                                   engine=rcfg.engine)
            runtime.register(compiled, spec.design_for(compiled))
            ctx = StreamContext(runtime, cfg, tracer=self.tracer)
            src = ctx.source(spec.generator, seed=cfg.data_seed,
                             total=cfg.total_records,
                             chunk_records=spec.chunk_records)
            pipeline = spec.build(src, compiled.accel_id)
            sink = JSONLSink(cfg.sink) if cfg.sink else MemorySink()
            try:
                with _graceful_shutdown(
                        ctx, enabled=cfg.checkpoint_dir is not None):
                    outcome = ctx.run(pipeline, sink, name=spec.name)
            finally:
                sink.close()
            span.set(batches=outcome.batches,
                     rows=outcome.rows_emitted)
        outcome.sink = sink
        return outcome

    # ------------------------------------------------------------------
    # trace access
    # ------------------------------------------------------------------

    def export_trace(self, path: str) -> int:
        """Write the session trace; format picked by extension.

        ``*.jsonl`` gets the span log, anything else the Chrome
        ``trace_event`` JSON.  Returns the number of spans written (for
        Chrome, the number of complete events).
        """
        if not self.tracer.enabled:
            raise S2FAError(
                "this session has tracing disabled; construct it with "
                "trace=True (or pass a Tracer) to export a trace")
        if str(path).endswith(".jsonl"):
            return write_jsonl(path, self.tracer)
        document = write_chrome_trace(path, self.tracer)
        return sum(1 for e in document["traceEvents"]
                   if e.get("ph") == "X")

    def trace_summary(self, *, top: int = 10, flame: bool = True) -> str:
        """Plain-text per-stage breakdown of the session trace."""
        return summarize(self.tracer, top=top, flame=flame)
