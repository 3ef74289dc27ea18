"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed, runs operations
through the program's public API, and checks every output before it
counts as a success:

* ``design``       — compile + explore + HLS-C per paper app and DSE seed;
* ``deploy``       — ``S2FASession.run`` per paper app on clean boards;
* ``serve-faults`` — closed-loop ``ServeClient.offload`` calls against a
  ``s2fa serve`` daemon running under a fixed fault plan;
* ``stream``       — ``S2FASession.stream`` with a durable JSONL sink and
  checkpoints.

A workload offers three things to ``run.py``: ``setup_once`` (one cold
set-up, timed from outside), ``measure`` (the timed loop of a
``--trace 0`` run) and ``fixed_pass`` (one fixed amount of work, run
untraced and traced by a ``--trace 1`` run).
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from catalog import APPS, STREAM_APPS
from stats import SpeedProbe, geomean, median, per_key_median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def program_env() -> dict:
    """Environment of a child process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _process_cpu(pid: int) -> float:
    """CPU seconds (user + system) a running process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Ledger:
    """Operation accounting: attempted, failed and degraded ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, what: str, problems=(), degraded: bool = False):
        with self._lock:
            self.attempted += 1
            self.degraded += bool(degraded)
            if problems:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{what}: {'; '.join(problems)}")

    def check(self, what: str, ok: bool) -> None:
        """A check of the whole run rather than of one operation."""
        self.record(what, () if ok else ["check failed"])


class Workload:
    """Common base: rounds of operations checked through the ledger."""

    name = ""
    #: what one op is, for the printed summary
    op_label = "op"

    def __init__(self, seed: int, work: Path, ledger: Ledger, *,
                 tiny: bool = False, corrupt_oracle: bool = False):
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.tiny = tiny
        self.corrupt_oracle = corrupt_oracle
        self.rng = random.Random(f"{self.name}:{seed}")
        self.speed = SpeedProbe()

    # -- set-up ---------------------------------------------------------

    def setup_once(self) -> float:
        """One cold set-up in a fresh interpreter, timed from outside;
        seconds at the reference speed (see :class:`stats.SpeedProbe`).

        The speed probe ticks while the set-up runs, so the set-up is
        scaled by the speed of its own moment rather than the run's."""
        cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
               self.name]
        log = self.work / "setup.log"
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        with open(log, "wb") as stderr:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                                    stdout=subprocess.DEVNULL,
                                    stderr=stderr)
        while proc.poll() is None:
            self.speed.tick()
            if time.perf_counter() - t0 > 120:
                proc.kill()
            time.sleep(0.002)
        t1 = time.perf_counter()
        self.speed.tick()
        self.ledger.record(f"{self.name} set-up probe", [
            f"exit {proc.returncode}: "
            f"{log.read_text(errors='replace')[-400:]}"]
            if proc.returncode else ())
        share = (_children_cpu() - cpu0) / (t1 - t0)
        return (t1 - t0) * self.speed.scale(share, t0, t1)

    def prepare(self) -> None:
        """Untimed: build oracles and warm the program (checked ops)."""
        for op in self.ops(0):
            self.attempt(op)

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- operations -----------------------------------------------------

    def ops(self, round_no: int) -> list:
        raise NotImplementedError

    def run_op(self, op, tracer, probe):
        """Run one op under ``tracer``; ``(sample, problems, degraded)``."""
        raise NotImplementedError

    def attempt(self, op, tracer=None, probe=None):
        from repro.obs import NULL_TRACER

        tracer = tracer if tracer is not None else NULL_TRACER
        t0, cpu0 = time.perf_counter(), time.thread_time()
        probing = self.speed.spent
        try:
            sample, problems, degraded = self.run_op(op, tracer, probe)
        except Exception as exc:         # any exception fails the op
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.ledger.record(f"{self.name} {op}", [
                f"{type(exc).__name__}: {exc} "
                f"({where.filename}:{where.lineno})"])
            return None
        self.ledger.record(f"{self.name} {op}", problems, degraded)
        probing = self.speed.spent - probing
        sample.update(t0=t0, t1=time.perf_counter(), probing=probing,
                      cpu=time.thread_time() - cpu0 - probing)
        return sample

    def op_seconds(self, sample) -> float:
        """The op's time without probing, at the reference speed (see
        :class:`stats.SpeedProbe`)."""
        t0, t1 = sample["t0"], sample["t1"]
        share = sample["cpu"] / (t1 - t0 - sample["probing"])
        return (sample["s"] - sample["probing"]) \
            * self.speed.scale(share, t0, t1)

    def measure(self, seconds: float) -> dict:
        """Rounds of ops until ``seconds`` pass (the first round always
        completes, so every app has a sample)."""
        samples = []
        start = time.perf_counter()
        round_no = 0
        while True:
            for op in self.ops(round_no):
                if round_no and time.perf_counter() - start >= seconds:
                    break
                self.speed.tick()
                sample = self.attempt(op, self.speed.tracer)
                if sample is not None:
                    samples.append(sample)
            round_no += 1
            if time.perf_counter() - start >= seconds:
                break
        return self.summarize(samples, time.perf_counter() - start)

    def fixed_pass(self, tracer=None, probe=None):
        """Round 0 once; returns ``(wall_s, figures, layer_extras)``."""
        samples = []
        start = time.perf_counter()
        for op in self.ops(0):
            sample = self.attempt(op, tracer, probe)
            if sample is not None:
                samples.append(sample)
        wall = time.perf_counter() - start
        return wall, self.summarize(samples, wall), {}

    def summarize(self, samples: list, wall: float) -> dict:
        raise NotImplementedError


def app_latency(samples) -> dict:
    """Typical and tail op time (ms) over apps that differ up to 50x.

    Percentiles of the pooled ops would fall into the gaps between fast
    and slow apps and jump with the mix.  So the typical time is the
    geomean over apps of each app's median, and the tail multiplies it
    by the p90 of every op's time relative to its app's median: a run
    has 60 to 150 ops, six to fifteen of them beyond p90.
    """
    by_app: dict = {}
    for s in samples:
        by_app.setdefault(s["app"], []).append(s["ref_s"] * 1e3)
    medians = {app: median(v) for app, v in by_app.items()}
    typical = geomean(medians.values())
    ratios = [ms / medians[app] for app, v in by_app.items() for ms in v]
    return {"latency_ms_p50": typical,
            "latency_ms_tail": typical * percentile(ratios, 90)}


# ----------------------------------------------------------------------
# design
# ----------------------------------------------------------------------

class Design(Workload):
    """Fresh session per design: compile, explore, emit HLS-C."""

    name = "design"
    op_label = "design"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dse_seeds = [self.rng.randrange(1 << 16) for _ in range(8)]
        self.digests: dict = {}

    def ops(self, round_no):
        dse_seed = self.dse_seeds[round_no % len(self.dse_seeds)]
        return [(app, dse_seed) for app in APPS]

    def run_op(self, op, tracer, probe):
        from repro import ExploreConfig, S2FASession

        app, dse_seed = op
        t0 = time.perf_counter()
        session = S2FASession(explore=ExploreConfig(seed=dse_seed),
                              tracer=tracer)
        session.compile(app)
        t1 = time.perf_counter()
        build = session.explore(app)
        t2 = time.perf_counter()
        source = build.hls_c_source()
        t3 = time.perf_counter()

        problems = []
        if not build.hls.feasible:
            problems.append("chosen design is infeasible")
        if f" {build.compiled.kernel.top}(" not in source:
            problems.append("HLS-C lacks the top function")
        digest = hashlib.sha256(build.config.describe().encode()).hexdigest()
        first = self.digests.setdefault(op, digest)
        if self.corrupt_oracle:
            first = first[::-1]
        if first != digest:
            problems.append("design digest differs for the same seed")
        if probe is not None:
            probe.counts["dse.evaluations"] += build.dse.evaluations
            probe.counts["merlin.hls_c_bytes"] += len(source.encode())
            probe.ms["merlin.ms"] += (t3 - t2) * 1e3
        sample = {"app": app, "s": t3 - t0, "compile_ms": (t1 - t0) * 1e3,
                  "evaluations": build.dse.evaluations,
                  "cycles": build.hls.normalized_cycles}
        return sample, problems, False

    def summarize(self, samples, wall):
        for s in samples:
            s["ref_s"] = self.op_seconds(s)
        by_app = per_key_median(samples, lambda s: s["app"],
                                lambda s: s["ref_s"])
        points = per_key_median(samples, lambda s: s["app"],
                                lambda s: s["evaluations"] / s["ref_s"])
        compile_ms = per_key_median(
            samples, lambda s: s["app"],
            lambda s: s["compile_ms"] * s["ref_s"] / s["s"])
        out = {
            "throughput_per_s": geomean(points.values()),
            **app_latency(samples),
            "samples": len(samples),
            "compile_ms_geomean": geomean(compile_ms.values()),
            "design_s_geomean": geomean(by_app.values()),
            "dse_points_per_s": geomean(points.values()),
            "virtual_design_cycles_geomean": geomean(
                s["cycles"] for s in samples),
        }
        out.update({f"design.{app}.s": v for app, v in by_app.items()})
        return out


# ----------------------------------------------------------------------
# deploy
# ----------------------------------------------------------------------

class Deploy(Workload):
    """``S2FASession.run`` of each app's manual design on clean boards."""

    name = "deploy"
    op_label = "job"
    PARTITIONS = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tasks = 16 if self.tiny else 256
        self.data_seeds: list[int] = []
        self.sessions: dict = {}

    def prepare(self):
        from repro import RuntimeConfig, S2FASession

        # Compilation is set-up here (``setup_s`` times it); jobs reuse
        # each session's compile cache.
        runtime = RuntimeConfig(partitions=self.PARTITIONS)
        self.sessions = {app: S2FASession(runtime=runtime)
                         for app in APPS}
        super().prepare()

    def ops(self, round_no):
        while len(self.data_seeds) <= round_no:
            self.data_seeds.append(self.rng.randrange(1 << 16))
        return [(app, self.data_seeds[round_no]) for app in APPS]

    def run_op(self, op, tracer, probe):
        app, data_seed = op
        session = self.sessions[app]
        session.tracer = tracer
        t0 = time.perf_counter()
        outcome = session.run(app, tasks=self.tasks, data_seed=data_seed)
        seconds = time.perf_counter() - t0

        expected = outcome.expected
        if self.corrupt_oracle:
            expected = expected[:-1]
        problems = []
        if outcome.results != expected:
            problems.append("results differ from the pure-Python oracle")
        metrics = outcome.metrics
        if metrics.accel_tasks != outcome.task_count:
            problems.append(f"{metrics.accel_tasks} of "
                            f"{outcome.task_count} tasks accelerated")
        if metrics.retries:
            problems.append(f"{metrics.retries} retries on clean boards")
        sample = {"app": app, "s": seconds, "tasks": outcome.task_count}
        return sample, problems, False

    def summarize(self, samples, wall):
        for s in samples:
            s["ref_s"] = self.op_seconds(s)
        rates = per_key_median(samples, lambda s: s["app"],
                               lambda s: s["tasks"] / s["ref_s"])
        out = {
            "throughput_per_s": geomean(rates.values()),
            **app_latency(samples),
            "samples": len(samples),
            "deploy_tasks_per_s_geomean": geomean(rates.values()),
        }
        out.update({f"deploy.{app}.tasks_per_s": v
                    for app, v in rates.items()})
        return out


# ----------------------------------------------------------------------
# serve-faults
# ----------------------------------------------------------------------

class ServeFaults(Workload):
    """Closed loop of offload requests against a faulty serve daemon."""

    name = "serve-faults"
    op_label = "request"
    #: fixed, seeded fault schedule of every board in the fleet
    FAULT_PLAN = "transient=0.2,hang=0.1,corrupt=0.1"
    FAULT_SEED = 7

    def __init__(self, *args, **kwargs):
        from repro.serve.loadgen import LoadProfile

        super().__init__(*args, **kwargs)
        # The hot/cold kernel mix and request size of the load harness.
        mix = LoadProfile()
        self.apps = (mix.hot_app,) + tuple(mix.cold_apps)
        self.n_tasks = mix.n_tasks
        self.data_seeds = [self.rng.randrange(1 << 16) for _ in range(8)]
        self.requests = [
            (mix.hot_app if self.rng.random() < mix.hot_fraction
             else self.rng.choice(mix.cold_apps),
             self.rng.choice(self.data_seeds))
            for _ in range(4096)]
        self.pass_requests = 24 if self.tiny else 400
        self.connections = max(1, min(2, os.cpu_count() or 1))
        self.expected: dict = {}
        self.daemon = None
        self.socket = None
        self._daemons = 0

    def _oracle(self):
        from repro.apps import get_app

        for app in self.apps:
            spec = get_app(app)
            for ds in self.data_seeds:
                tasks = spec.functional_tasks_for(self.n_tasks, seed=ds)
                results = [spec.reference(task) for task in tasks]
                if self.corrupt_oracle:
                    results = results[1:]
                self.expected[(app, ds)] = results

    # -- the daemon under test -----------------------------------------

    def _socket_path(self) -> str:
        # Relative to the checkout root: unix socket paths are short.
        self._daemons += 1
        return os.path.relpath(self.work / f"d{self._daemons}.sock", ROOT)

    def setup_once(self) -> float:
        """Start a daemon and deploy the mix's kernels; the last daemon
        started serves the timed loop."""
        if not self.expected:
            self._oracle()
        self._stop_daemon()
        sock = self._socket_path()
        ready = self.work / f"d{self._daemons}.ready"
        log = open(self.work / f"d{self._daemons}.log", "wb")
        t0 = time.perf_counter()
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
             "--ready", str(ready), "--fault-plan", self.FAULT_PLAN,
             "--fault-seed", str(self.FAULT_SEED)],
            cwd=ROOT, env=program_env(), stdout=log, stderr=log)
        log.close()
        self.socket = sock
        while not ready.exists():
            if self.daemon.poll() is not None:
                raise RuntimeError(f"serve daemon exited "
                                   f"{self.daemon.returncode} at start")
            if time.perf_counter() - t0 > 60:
                raise RuntimeError("serve daemon not ready after 60 s")
            self.speed.tick()
            time.sleep(0.002)
        self._warm(sock)
        t1 = time.perf_counter()
        self.speed.tick()
        share = _process_cpu(self.daemon.pid) / (t1 - t0)
        return (t1 - t0) * self.speed.scale(share, t0, t1)

    def _warm(self, sock):
        from repro.serve.client import ServeClient

        with ServeClient(sock, tenant="warm") as client:
            for app in self.apps:
                self._request(client, (app, self.data_seeds[0]))

    def _request(self, client, op):
        """One checked offload; ``(seconds, response)`` or ``None``."""
        app, ds = op
        t0 = time.perf_counter()
        try:
            response = client.offload(app, n_tasks=self.n_tasks,
                                      data_seed=ds)
        except Exception as exc:         # a broken connection fails the op
            self.ledger.record(f"{self.name} {op}",
                               [f"{type(exc).__name__}: {exc}"])
            return None
        seconds = time.perf_counter() - t0
        problems = []
        if response.status != "OK":
            problems.append(f"status {response.status}: {response.error}")
        elif response.result != self.expected[op]:
            problems.append("result differs from the pure-Python oracle")
        self.ledger.record(f"{self.name} {op}", problems, response.degraded)
        return seconds, response

    def _stop_daemon(self):
        if self.daemon is None:
            return
        self.daemon.terminate()
        try:
            self.daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon = None

    def close(self):
        self._stop_daemon()

    def peak_rss_mb(self) -> float:
        """High-water resident set of the daemon (the program)."""
        status = Path(f"/proc/{self.daemon.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    # -- load ------------------------------------------------------------

    def prepare(self):
        if not self.expected:
            self._oracle()

    def _closed_loop(self, sock, *, seconds=None, count=None):
        """``connections`` clients, each sending its next request when
        the previous reply arrives, until time or requests run out."""
        from repro.serve.client import ServeClient

        lock = threading.Lock()
        cursor = iter(range(count if count is not None else 1 << 62))
        samples = []
        start = time.perf_counter()

        def client_loop(k):
            with ServeClient(sock, tenant=f"t{k}") as client:
                while seconds is None \
                        or time.perf_counter() - start < seconds:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    sample = self._request(
                        client, self.requests[i % len(self.requests)])
                    if sample is None:
                        return
                    samples.append(sample)

        threads = [threading.Thread(target=client_loop, args=(k,))
                   for k in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples, time.perf_counter() - start

    def measure(self, seconds):
        # No speed probes: a request's time is spent in the daemon,
        # which a probe in this process cannot time, and a probe thread
        # would hold up the client threads.  Serve times stay raw.
        samples, wall = self._closed_loop(self.socket, seconds=seconds)
        return self.summarize(samples, wall)

    def fixed_pass(self, tracer=None, probe=None):
        """The same closed loop against an in-process daemon whose
        :class:`ServeCore` records into ``tracer``."""
        from repro.config import RuntimeConfig, ServeConfig
        from repro.serve.core import ServeCore
        from repro.serve.daemon import ServeDaemon

        config = ServeConfig(runtime=RuntimeConfig(
            fault_plan=self.FAULT_PLAN, fault_seed=self.FAULT_SEED))
        core = ServeCore(config, tracer=tracer)
        waits = []
        if probe is not None:
            waits = _time_queue(core)
        sock = self._socket_path()
        daemon = ServeDaemon(sock, core=core)
        daemon.start()
        try:
            self._warm(sock)
            if probe is not None:
                probe.mark(tracer)
                waits.clear()
            samples, wall = self._closed_loop(sock,
                                              count=self.pass_requests)
        finally:
            daemon.shutdown()
        figures = self.summarize(samples, wall)
        responses = [r for _, r in samples]
        extras = {
            "serve.queue_wait_ms": median(waits) * 1e3 if waits else 0.0,
            "serve.design_cache_hit_ratio":
                sum(r.cache_hit for r in responses) / len(responses),
            "serve.degraded_ratio":
                sum(r.degraded for r in responses) / len(responses),
            "ops.degraded": sum(r.degraded for r in responses),
        }
        return wall, figures, extras

    def summarize(self, samples, wall):
        latencies = [latency * 1e3 for latency, _ in samples]
        completed = sum(1 for _, r in samples if r.status == "OK")
        degraded = sum(1 for _, r in samples if r.degraded)
        return {
            "throughput_per_s": completed / wall,
            "latency_ms_p50": percentile(latencies, 50),
            "latency_ms_tail": percentile(latencies, 99),
            "samples": len(samples),
            "degraded": degraded,
            "serve_latency_ms_p50": percentile(latencies, 50),
            "serve_latency_ms_p99": percentile(latencies, 99),
            "serve_req_per_s": completed / wall,
        }


def _time_queue(core) -> list:
    """Wall seconds each request waits between admission and dispatch,
    timed around ``ServeCore.submit`` and ``FairScheduler.next``."""
    admitted: dict = {}
    waits: list = []
    submit, take = core.submit, core.scheduler.next

    def timed_submit(request):
        admitted[request.request_id] = time.perf_counter()
        return submit(request)

    def timed_next(*args, **kwargs):
        request = take(*args, **kwargs)
        if request is not None:
            waits.append(time.perf_counter()
                         - admitted.pop(request.request_id))
        return request

    core.submit = timed_submit
    core.scheduler.next = timed_next
    return waits


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------

class _FlushRecorder:
    """Timestamps of ``JSONLSink.flush_batch`` and time inside the sink."""

    def __init__(self, speed: SpeedProbe):
        #: (wall, thread CPU, probe seconds) at each flush
        self.flushes: list[tuple[float, float, float]] = []
        self.speed = speed
        self.sink_ms = 0.0

    def sink_class(self):
        from repro.streaming import JSONLSink

        recorder = self

        class RecordingJSONLSink(JSONLSink):
            def emit(self, *args):
                t0 = time.perf_counter()
                try:
                    return super().emit(*args)
                finally:
                    recorder.sink_ms += (time.perf_counter() - t0) * 1e3

            def flush_batch(self):
                t0 = time.perf_counter()
                super().flush_batch()
                t1 = time.perf_counter()
                recorder.flushes.append(
                    (t1, time.thread_time(), recorder.speed.spent))
                recorder.sink_ms += (t1 - t0) * 1e3

        return RecordingJSONLSink


class Stream(Workload):
    """Micro-batched streams into a fsynced, checkpointed JSONL sink."""

    name = "stream"
    op_label = "stream"
    RECORDS = {"aes-window": 256, "lr-stream": 2048, "log-filter": 4096}
    #: jobs that fail every board: the JVM computes the reference sink
    REFERENCE_PLAN = "lose_after=0"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = {app: 64 if self.tiny else self.RECORDS[app]
                        for app in STREAM_APPS}
        self.data_seeds = {app: self.rng.randrange(1 << 16)
                           for app in STREAM_APPS}
        self.reference: dict = {}
        self.sessions: dict = {}
        self.recorder = _FlushRecorder(self.speed)
        self._saved_sink = None

    def prepare(self):
        import repro.streaming
        from repro import RuntimeConfig, S2FASession, StreamConfig

        self._saved_sink = repro.streaming.JSONLSink
        repro.streaming.JSONLSink = self.recorder.sink_class()
        for app in STREAM_APPS:
            path = self.work / f"reference-{app}.jsonl"
            S2FASession().stream(app, StreamConfig(
                total_records=self.records[app],
                data_seed=self.data_seeds[app], sink=str(path),
                runtime=RuntimeConfig(fault_plan=self.REFERENCE_PLAN)))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self.reference[app] = (digest[::-1] if self.corrupt_oracle
                                   else digest)
        # Compilation is set-up here (``setup_s`` times it).
        self.sessions = {app: S2FASession() for app in STREAM_APPS}
        super().prepare()

    def close(self):
        if self._saved_sink is not None:
            import repro.streaming

            repro.streaming.JSONLSink = self._saved_sink

    def ops(self, round_no):
        return list(STREAM_APPS)

    def run_op(self, app, tracer, probe):
        from repro import StreamConfig

        sink = self.work / f"{app}.jsonl"
        checkpoints = self.work / f"{app}.ckpt"
        sink.unlink(missing_ok=True)
        shutil.rmtree(checkpoints, ignore_errors=True)
        session = self.sessions[app]
        session.tracer = tracer
        recorder = self.recorder
        recorder.flushes = []
        sink_ms = recorder.sink_ms
        config = StreamConfig(
            total_records=self.records[app],
            data_seed=self.data_seeds[app], sink=str(sink),
            checkpoint_dir=str(checkpoints))
        t0 = time.perf_counter()
        outcome = session.stream(app, config)
        seconds = time.perf_counter() - t0
        if probe is not None:
            probe.ms["streaming.sink_ms"] += recorder.sink_ms - sink_ms

        problems = []
        digest = hashlib.sha256(sink.read_bytes()).hexdigest()
        if digest != self.reference[app]:
            problems.append("sink bytes differ from the reference run")
        if outcome.records_in != self.records[app]:
            problems.append(f"{outcome.records_in} records admitted")
        flushes = recorder.flushes
        sample = {"app": app, "s": seconds,
                  "records": self.records[app],
                  "batches": list(zip(flushes, flushes[1:]))}
        return sample, problems, outcome.metrics.fallback_tasks > 0

    def summarize(self, samples, wall):
        rates = per_key_median(samples, lambda s: s["app"],
                               lambda s: s["records"] / self.op_seconds(s))
        times = []                       # (app, batch ms)
        for s in samples:
            for (t0, cpu0, p0), (t1, cpu1, p1) in s["batches"]:
                wall = t1 - t0 - (p1 - p0)
                share = (cpu1 - cpu0 - (p1 - p0)) / wall
                times.append((s["app"],
                              wall * 1e3 * self.speed.scale(share, t0, t1)))
        batches = [ms for _, ms in times]
        # Typical batch: geomean over apps of each app's median, so the
        # fsync-bound log-filter batches (64% of all) do not set it
        # alone.  Tail: p99 of all batches, which lies in the slowest
        # app's (aes-window) batches.
        typical = per_key_median(times, lambda t: t[0], lambda t: t[1])
        out = {
            "throughput_per_s": geomean(rates.values()),
            "latency_ms_p50": geomean(typical.values()),
            "latency_ms_tail": percentile(batches, 99),
            "samples": len(batches),
            "stream_records_per_s_geomean": geomean(rates.values()),
            "stream_batch_ms_p50": percentile(batches, 50),
            "stream_batch_ms_p99": percentile(batches, 99),
        }
        out.update({f"stream.{app}.records_per_s": v
                    for app, v in rates.items()})
        return out


WORKLOADS = {cls.name: cls for cls in (Design, Deploy, ServeFaults, Stream)}
