"""ServeCore: admission, deadlines, degradation, and bit-identity."""

import pytest

from repro.config import OffloadPolicy, RuntimeConfig, ServeConfig
from repro.s2fa import S2FASession
from repro.serve import ServeCore, ServeRequest
from repro.serve.request import (
    DEADLINE_EXCEEDED,
    INVALID,
    OK,
    OP_COMPILE,
    OP_OFFLOAD,
    OP_PING,
    OP_STATS,
    OVERLOADED,
    SHUTTING_DOWN,
)


def _core(**overrides):
    defaults = dict(replicas=2)
    defaults.update(overrides)
    return ServeCore(ServeConfig(**defaults))


def _offload(rid, app="KMeans", tenant="default", n_tasks=4, **kw):
    return ServeRequest(request_id=rid, op=OP_OFFLOAD, tenant=tenant,
                        app=app, n_tasks=n_tasks, **kw)


def _serve_one(core, request):
    rejection = core.submit(request)
    assert rejection is None, rejection
    response = core.step()
    assert response.request_id == request.request_id
    return response


class TestOps:
    def test_ping(self):
        core = _core()
        response = _serve_one(core, ServeRequest(request_id="p",
                                                 op=OP_PING))
        assert response.ok
        assert response.result["queued"] == 0

    def test_stats_surface(self):
        core = _core()
        _serve_one(core, _offload("o1"))
        response = _serve_one(core, ServeRequest(request_id="s",
                                                 op=OP_STATS))
        assert response.ok
        assert set(response.result) >= {"metrics", "boards", "breaker",
                                        "cache", "tenants",
                                        "virtual_now", "utilization"}
        assert len(response.result["boards"]) == 2    # the fleet

    def test_compile_miss_then_hit(self):
        core = _core()
        first = _serve_one(core, ServeRequest(
            request_id="c1", op=OP_COMPILE, app="KMeans"))
        second = _serve_one(core, ServeRequest(
            request_id="c2", op=OP_COMPILE, app="KMeans"))
        assert first.ok and second.ok
        assert not first.cache_hit
        assert second.cache_hit
        assert first.result["accel_id"] == "KMeans"
        assert second.result["kernel_digest"] \
            == first.result["kernel_digest"]

    def test_unknown_app_is_an_error(self):
        core = _core()
        response = _serve_one(core, ServeRequest(
            request_id="bad", op=OP_COMPILE, app="NoSuchApp"))
        assert not response.ok

    def test_offload_without_payload_is_invalid(self):
        core = _core()
        response = _serve_one(core, ServeRequest(
            request_id="x", op=OP_OFFLOAD, app="KMeans"))
        assert response.status == INVALID


class TestBitIdentity:
    def test_offload_matches_session_run(self):
        core = _core()
        response = _serve_one(core, _offload("o1", n_tasks=6))
        outcome = S2FASession().run("KMeans", tasks=6)
        assert response.ok
        assert response.result == outcome.results == outcome.expected

    def test_in_process_task_payload(self):
        from repro.apps import get_app

        spec = get_app("KMeans")
        tasks = spec.functional_tasks_for(4, seed=21)
        core = _core()
        request = ServeRequest(request_id="o", op=OP_OFFLOAD,
                               app="KMeans", tasks=tasks)
        response = _serve_one(core, request)
        assert response.result == [spec.reference(t) for t in tasks]

    def test_filter_pattern_returns_kept_tasks(self):
        threshold = """
class BigEnough extends Accelerator[Float, Boolean] {
  val id: String = "big"
  val cut: Float = 10.0f
  def call(in: Float): Boolean = in > cut
}
"""
        core = _core()
        values = [5.0, 15.0, 7.5, 30.0, 10.0, 11.0]
        request = ServeRequest(request_id="f", op=OP_OFFLOAD,
                               app=threshold, tasks=values,
                               pattern="filter")
        response = _serve_one(core, request)
        assert response.ok
        assert response.result == [v for v in values if v > 10.0]

    def test_degraded_results_stay_identical(self):
        faulty = ServeCore(ServeConfig(
            replicas=2,
            runtime=RuntimeConfig(fault_plan="lose_after=0",
                                  fault_seed=1)))
        clean = _core()
        got = _serve_one(faulty, _offload("o", n_tasks=6))
        want = _serve_one(clean, _offload("o", n_tasks=6))
        assert got.ok and want.ok
        assert got.result == want.result


class TestAdmissionControl:
    def test_overload_sheds_with_backpressure_hint(self):
        core = _core(queue_depth=2)
        assert core.submit(_offload("a")) is None
        assert core.submit(_offload("b")) is None
        rejection = core.submit(_offload("c"))
        assert rejection is not None
        assert rejection.status == OVERLOADED
        assert rejection.retryable
        assert rejection.retry_after_s > 0
        # The queued two still complete.
        assert core.step().ok and core.step().ok
        assert core.metrics.counter("serve.shed_overload") == 1

    def test_bounds_are_per_tenant(self):
        core = _core(queue_depth=1)
        assert core.submit(_offload("a", tenant="t1")) is None
        assert core.submit(_offload("b", tenant="t1")) is not None
        assert core.submit(_offload("c", tenant="t2")) is None

    def test_wrr_fairness_across_tenants(self):
        core = _core(queue_depth=16)
        for i in range(6):
            assert core.submit(_offload(f"hot{i}", tenant="hot")) is None
        assert core.submit(_offload("cold0", tenant="cold")) is None
        order = [core.step().request_id for _ in range(7)]
        assert order.index("cold0") <= 1    # not starved by hot's 6


class TestDeadlines:
    def test_default_deadline_applied(self):
        core = _core(default_deadline_s=3.0)
        request = _offload("o")
        core.submit(request)
        assert request.deadline_s == 3.0

    def test_deadline_blown_in_queue_is_shed(self):
        core = _core()
        first = _offload("slow", n_tasks=8)
        # An impossibly tight deadline: any queueing at all blows it.
        second = _offload("late", n_tasks=4, deadline_s=1e-12)
        assert core.submit(first) is None
        assert core.submit(second) is None
        assert core.step().request_id == "slow"     # advances the clock
        response = core.step()
        assert response.request_id == "late"
        assert response.status == DEADLINE_EXCEEDED
        assert not response.retryable
        assert core.metrics.counter("serve.shed_deadline") == 1

    def test_generous_deadline_completes(self):
        core = _core()
        response = _serve_one(core, _offload("o", deadline_s=100.0))
        assert response.ok


class TestDegradation:
    def test_lost_fleet_falls_back_degraded(self):
        core = ServeCore(ServeConfig(
            replicas=2,
            runtime=RuntimeConfig(fault_plan="lose_after=0",
                                  fault_seed=1)))
        first = _serve_one(core, _offload("o1", n_tasks=4))
        assert first.ok and first.degraded
        # Whole fleet is gone now; later requests skip hardware.
        second = _serve_one(core, _offload("o2", n_tasks=4))
        assert second.ok and second.degraded
        states = {b["state"] for b in core.board_stats().values()}
        assert states == {"lost"}
        assert core.metrics.counter("serve.degraded") == 2

    def test_circuit_opens_after_consecutive_failures(self):
        core = ServeCore(ServeConfig(
            replicas=2, breaker_threshold=2, breaker_reset_s=1e9,
            runtime=RuntimeConfig(
                fault_plan="transient=1.0", fault_seed=0,
                # Quarantined boards stay out for the whole test.
                policy=OffloadPolicy(quarantine_base_seconds=1e9))))
        responses = [_serve_one(core, _offload(f"o{i}", n_tasks=2))
                     for i in range(6)]
        assert all(r.ok and r.degraded for r in responses)
        snap = core.breaker.snapshot()
        [circuit] = snap.values()
        assert circuit["state"] == "open"
        assert core.metrics.counter("serve.breaker_skips") > 0


class TestDrain:
    def test_drain_rejects_queued_and_future(self):
        core = _core()
        core.submit(_offload("queued1"))
        core.submit(_offload("queued2"))
        rejections = core.drain()
        assert [r.request_id for r in rejections] \
            == ["queued1", "queued2"]
        assert all(r.status == SHUTTING_DOWN and r.retryable
                   for r in rejections)
        late = core.submit(_offload("late"))
        assert late is not None and late.status == SHUTTING_DOWN
        assert core.step() is None

    def test_state_snapshot_is_json_serializable(self):
        import json

        core = _core()
        _serve_one(core, _offload("o"))
        encoded = json.dumps(core.state_snapshot())
        assert "serve.completed" in encoded


class TestExplore:
    def test_explored_design_is_cached_separately(self):
        core = ServeCore(ServeConfig(replicas=1,
                                     explore_time_limit_minutes=45.0))
        manual = _serve_one(core, ServeRequest(
            request_id="m", op=OP_COMPILE, app="KMeans"))
        explored = _serve_one(core, ServeRequest(
            request_id="e", op=OP_COMPILE, app="KMeans", explore=True))
        assert manual.ok and explored.ok
        assert explored.result["explored"]
        assert not explored.cache_hit       # distinct cache key
        again = _serve_one(core, ServeRequest(
            request_id="e2", op=OP_COMPILE, app="KMeans", explore=True))
        assert again.cache_hit              # DSE paid once
        assert again.result["design"] == explored.result["design"]
