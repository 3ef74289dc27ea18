"""Resilient offload path: retries, backoff, quarantine, re-admission.

These tests drive the runtime with a *scripted* fault sequence (one
fault kind per invocation, in order) so every transition of the
quarantine state machine is pinned deterministically, independent of
any RNG.
"""

import pytest

from repro.blaze import BlazeRuntime, OffloadPolicy
from repro.blaze.manager import ACTIVE, LOST, QUARANTINED
from repro.compiler import compile_kernel
from repro.errors import BlazeError
from repro.fpga.faults import FaultPlan
from repro.merlin import DesignConfig, LoopConfig
from repro.spark import SparkContext

DOUBLER = """
class Doubler extends Accelerator[Int, Int] {
  val id: String = "doubler"
  def call(in: Int): Int = in * 2
}
"""


class ScriptedFaults:
    """Injector double: plays back a fixed fault sequence, then clean."""

    def __init__(self, script):
        self.script = list(script)
        self.board_id = "scripted"
        self.invocations = 0
        self.lost = False

    def next_fault(self):
        self.invocations += 1
        fault = self.script.pop(0) if self.script else None
        if self.lost or fault == "lost":
            self.lost = True
            return "lost"
        return fault

    def corrupt(self, buffers, output_names):
        name = sorted(output_names)[0]
        buffers[name][0] = int(buffers[name][0]) ^ 0x2F


def _deploy_config(compiled):
    return DesignConfig(
        loops={"L0": LoopConfig(pipeline="on", parallel=2)},
        bitwidths={leaf.name: 64 for leaf in compiled.layout.leaves})


#: Tiny quarantine/backoff so JVM-fallback seconds move the clock past
#: re-admission within a test.
FAST_POLICY = OffloadPolicy(
    max_attempts=3,
    batch_deadline_seconds=0.01,
    backoff_base_seconds=1e-6,
    quarantine_base_seconds=1e-9,
    quarantine_factor=1.0)


def _runtime(script, policy=FAST_POLICY, parallelism=1):
    sc = SparkContext(default_parallelism=parallelism)
    runtime = BlazeRuntime(sc, policy=policy)
    compiled = compile_kernel(DOUBLER)
    entry = runtime.register(compiled, _deploy_config(compiled))
    entry.board.faults = ScriptedFaults(script)
    return sc, runtime, entry


class TestRetries:
    def test_transient_then_success_retries_once(self):
        sc, runtime, entry = _runtime(["transient"])
        data = list(range(10))
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [x * 2 for x in data]
        m = runtime.metrics
        assert m.retries == 1
        assert m.transient_faults == 1
        assert m.accel_tasks == 10
        assert m.fallback_tasks == 0
        assert m.wasted_seconds > 0

    def test_hang_charges_deadline_then_retries(self):
        sc, runtime, entry = _runtime(["hang"])
        got = runtime.wrap(sc.parallelize([1, 2])).map_acc(
            "doubler").collect()
        assert got == [2, 4]
        m = runtime.metrics
        assert m.timeouts == 1
        assert m.wasted_seconds >= FAST_POLICY.batch_deadline_seconds

    def test_corrupt_batch_is_detected_and_retried(self):
        sc, runtime, entry = _runtime(["corrupt", "corrupt"])
        data = [3, 5, 7]
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [6, 10, 14]  # corruption never surfaces
        m = runtime.metrics
        assert m.corrupt_batches == 2
        assert m.retries == 2

    def test_backoff_grows_exponentially(self):
        policy = OffloadPolicy(max_attempts=3,
                               backoff_base_seconds=1.0,
                               backoff_factor=2.0,
                               quarantine_base_seconds=1.0)
        sc, runtime, entry = _runtime(
            ["transient"] * 3, policy=policy)
        runtime.wrap(sc.parallelize([1])).map_acc("doubler").collect()
        # Two retries: backoff 1s + 2s; three overhead charges are noise.
        assert runtime.metrics.wasted_seconds == pytest.approx(
            3.0, rel=1e-3)


class TestPolicyValidation:
    def test_zero_attempts_rejected_at_construction(self):
        # A zero-attempt policy would quarantine every healthy board on
        # its first batch; it must fail before any runtime is built.
        with pytest.raises(BlazeError, match="max_attempts"):
            BlazeRuntime(SparkContext(),
                         policy=OffloadPolicy(max_attempts=0))

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(BlazeError, match="batch_deadline_seconds"):
            OffloadPolicy(batch_deadline_seconds=0)


class TestQuarantine:
    def test_exhausted_retries_quarantine_the_board(self):
        sc, runtime, entry = _runtime(["transient"] * 3)
        data = [4, 5]
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [8, 10]  # JVM fallback result
        m = runtime.metrics
        assert entry.state in (QUARANTINED, ACTIVE)
        assert m.quarantines == 1
        assert m.retries == 2
        assert m.fault_fallback_batches == 1
        assert m.fallback_tasks == 2

    def test_probe_readmits_a_healthy_board(self):
        # Partition 1 exhausts retries -> quarantine; the JVM fallback
        # advances the clock past the (tiny) quarantine window, so
        # partition 2 probes, succeeds, and is re-admitted.
        sc, runtime, entry = _runtime(["transient"] * 3, parallelism=3)
        data = list(range(30))
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [x * 2 for x in data]
        m = runtime.metrics
        assert m.quarantines == 1
        assert m.probes == 1
        assert m.readmissions == 1
        assert entry.state == ACTIVE
        assert m.fallback_tasks == 10  # only the first partition
        assert m.accel_tasks == 20

    def test_quarantined_board_is_skipped_until_readmission(self):
        policy = OffloadPolicy(max_attempts=1,
                               quarantine_base_seconds=1e9)
        sc, runtime, entry = _runtime(["transient"], policy=policy,
                                      parallelism=3)
        data = list(range(30))
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [x * 2 for x in data]
        m = runtime.metrics
        assert m.quarantines == 1
        assert m.probes == 0           # window never expires
        assert m.fallback_tasks == 30  # every partition on the JVM
        assert m.fault_fallback_batches == 3

    def test_failed_probe_requarantines_with_longer_window(self):
        policy = OffloadPolicy(max_attempts=1,
                               quarantine_base_seconds=1e-9,
                               quarantine_factor=4.0)
        sc, runtime, entry = _runtime(
            ["transient", "transient"], policy=policy, parallelism=3)
        data = list(range(9))
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [x * 2 for x in data]
        m = runtime.metrics
        # batch 1 faults -> quarantine; batch 2 probes, faults again ->
        # re-quarantined (count 2); batch 3 probes again and succeeds.
        assert m.quarantines == 2
        assert m.probes == 2
        assert m.readmissions == 1
        assert entry.quarantine_count == 2


class TestDeviceLoss:
    def test_loss_falls_back_and_short_circuits(self):
        sc, runtime, entry = _runtime(["lost"], parallelism=3)
        data = list(range(12))
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [x * 2 for x in data]
        m = runtime.metrics
        assert m.devices_lost == 1
        assert entry.state == LOST
        assert m.fallback_tasks == 12
        assert m.fault_fallback_batches == 3
        # Only the first batch ever touched the board.
        assert entry.board.faults.invocations == 1

    def test_fault_fallback_distinguished_from_no_hardware(self):
        sc = SparkContext(default_parallelism=2)
        runtime = BlazeRuntime(sc)
        compiled = compile_kernel(DOUBLER)
        runtime.register(compiled)  # software-only registration
        runtime.wrap(sc.parallelize([1, 2, 3, 4])).map_acc(
            "doubler").collect()
        m = runtime.metrics
        assert m.no_hardware_batches == 2
        assert m.fault_fallback_batches == 0
        assert m.fallback_tasks == 4


class TestPlanIntegration:
    def test_fault_plan_flows_through_runtime(self):
        sc = SparkContext(default_parallelism=2)
        plan = FaultPlan(seed=5, transient=0.5, corrupt=0.25)
        runtime = BlazeRuntime(sc, fault_plan=plan)
        compiled = compile_kernel(DOUBLER)
        entry = runtime.register(compiled, _deploy_config(compiled))
        assert entry.board.faults is not None
        assert entry.board.faults.plan is plan
        data = list(range(20))
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "doubler").collect()
        assert got == [x * 2 for x in data]

    def test_same_plan_reproduces_identical_metrics(self):
        def run_once():
            sc = SparkContext(default_parallelism=4)
            plan = FaultPlan(seed=13, transient=0.3, hang=0.1,
                             corrupt=0.2, lose_after=9)
            runtime = BlazeRuntime(sc, fault_plan=plan)
            compiled = compile_kernel(DOUBLER)
            runtime.register(compiled, _deploy_config(compiled))
            data = list(range(40))
            got = runtime.wrap(sc.parallelize(data)).map_acc(
                "doubler").collect()
            return got, runtime.metrics.as_dict(), runtime.clock.now

        first = run_once()
        second = run_once()
        assert first == second
        assert first[0] == [x * 2 for x in range(40)]

    def test_metrics_as_dict_has_total(self):
        sc = SparkContext()
        runtime = BlazeRuntime(sc)
        stats = runtime.metrics.as_dict()
        assert stats["total_seconds"] == 0.0
        assert "quarantines" in stats and "wasted_seconds" in stats
