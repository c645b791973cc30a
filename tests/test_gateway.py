"""Multi-tenant facility gateway: admission, fairness, durability.

Covers the PROTOCOLS §1.8 surface from the inside (no RPC — that side
lives in ``test_gateway_rpc.py``): tenant auth and admission control
(quota, rate limit), weighted fair-share placement with its starvation
bound, health-gated cell selection, cancel semantics for queued vs
running jobs, the ``Job_Poll`` cursor/gap contract, and the journal
replay that survives a gateway crash — including the acceptance
property that a re-executed job *resumes* its campaign instead of
re-touching instruments.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.errors import (
    GatewayError,
    JobStateError,
    QuotaExceededError,
    RateLimitedError,
    TenantAuthError,
    UnknownJobError,
    UnknownTenantError,
    WorkflowError,
)
from repro.gateway import (
    CANCELLED,
    FAILED,
    FEED_SCHEMA,
    QUEUED,
    SUCCEEDED,
    Cell,
    FairShareScheduler,
    Gateway,
    JobStore,
    TenantSpec,
)
from repro.gateway.gateway import campaign_runner
from repro.obs import MetricsRegistry
from repro.obs.health import DEGRADED, HEALTHY, UNHEALTHY

SPEC = {
    "strategy": {"kind": "scan-rate", "scan_rates_v_s": [0.1], "base": {}},
    "max_rounds": 1,
}

A = TenantSpec("lab-a", "key-a")
B = TenantSpec("lab-b", "key-b", weight=2.0)


def _recording_runner(log):
    """Synthetic runner: records (tenant, cell, resume) and succeeds."""

    def run(job, cell, ctx):
        log.append((job.tenant, cell.name, ctx.resume))
        return {"state": SUCCEEDED, "rounds": 1}

    return run


def _gateway(tmp_path, tenants=(A, B), cells=("c1",), runner=None, **kwargs):
    log = []
    gateway = Gateway(
        [Cell(name) for name in cells],
        tmp_path / "gw",
        tenants=tenants,
        runner=runner or _recording_runner(log),
        **kwargs,
    )
    return gateway, log


class TestAdmission:
    def test_unknown_tenant_rejected(self, tmp_path):
        gateway, _ = _gateway(tmp_path)
        with gateway:
            with pytest.raises(UnknownTenantError) as info:
                gateway.submit("nobody", "key", SPEC)
            assert info.value.code == "GATEWAY_UNKNOWN_TENANT"

    def test_bad_api_key_rejected_and_counted(self, tmp_path):
        metrics = MetricsRegistry()
        gateway, _ = _gateway(tmp_path, metrics=metrics)
        with gateway:
            with pytest.raises(TenantAuthError) as info:
                gateway.submit("lab-a", "wrong", SPEC)
            assert info.value.code == "GATEWAY_TENANT_AUTH"
            assert (
                metrics.counter("gateway.rejects_total").value(reason="auth")
                == 1
            )

    def test_missing_tenant_id_rejected(self, tmp_path):
        gateway, _ = _gateway(tmp_path)
        with gateway:
            with pytest.raises(UnknownTenantError):
                gateway.submit(None, "key-a", SPEC)

    def test_spec_validated_before_journaling(self, tmp_path):
        gateway, _ = _gateway(tmp_path)
        with gateway:
            with pytest.raises(GatewayError):
                gateway.submit("lab-a", "key-a", {"max_rounds": 1})
            with pytest.raises(WorkflowError):
                gateway.submit(
                    "lab-a", "key-a", {"strategy": {"kind": "nope"}}
                )
            assert gateway.queue_depth() == 0
        # neither rejected submit may have been journaled
        reopened, _ = _gateway(tmp_path)
        with reopened:
            assert reopened.queue_depth() == 0

    def test_quota_exhaustion_then_recovery_after_completion(self, tmp_path):
        spec = TenantSpec("lab-q", "key-q", max_active=2)
        gateway, _ = _gateway(tmp_path, tenants=(spec,))
        with gateway:
            gateway.submit("lab-q", "key-q", SPEC)
            gateway.submit("lab-q", "key-q", SPEC)
            with pytest.raises(QuotaExceededError) as info:
                gateway.submit("lab-q", "key-q", SPEC)
            assert info.value.code == "GATEWAY_QUOTA_EXCEEDED"
            # one job finishing frees one quota slot
            assert gateway.step() is not None
            view = gateway.submit("lab-q", "key-q", SPEC)
            assert view["state"] == QUEUED

    def test_rate_limit_refills_with_time(self, tmp_path):
        clock = VirtualClock()
        spec = TenantSpec(
            "lab-r", "key-r", submit_rate_per_s=1.0, burst=2, max_active=99
        )
        gateway, _ = _gateway(tmp_path, tenants=(spec,), clock=clock)
        with gateway:
            gateway.submit("lab-r", "key-r", SPEC)
            gateway.submit("lab-r", "key-r", SPEC)
            with pytest.raises(RateLimitedError) as info:
                gateway.submit("lab-r", "key-r", SPEC)
            assert info.value.code == "GATEWAY_RATE_LIMITED"
            clock.advance(1.0)
            assert gateway.submit("lab-r", "key-r", SPEC)["state"] == QUEUED


class TestFairness:
    def test_weighted_interleaving(self, tmp_path):
        gateway, log = _gateway(tmp_path)
        with gateway:
            for _ in range(4):
                gateway.submit("lab-a", "key-a", SPEC)
            for _ in range(8):
                gateway.submit("lab-b", "key-b", SPEC)
            assert gateway.run_until_idle() == 12
        order = [tenant for tenant, _, _ in log]
        # weight 2 earns two placements per one of weight 1, from the start
        assert order[:6] == [
            "lab-a", "lab-b", "lab-b", "lab-a", "lab-b", "lab-b",
        ]

    def test_starvation_bound_under_deep_backlog(self, tmp_path):
        gateway, log = _gateway(
            tmp_path,
            tenants=(A, TenantSpec("lab-b", "key-b", weight=3.0, max_active=64)),
        )
        with gateway:
            for _ in range(3):
                gateway.submit("lab-a", "key-a", SPEC)
            for _ in range(30):
                gateway.submit("lab-b", "key-b", SPEC)
            gateway.run_until_idle()
        order = [tenant for tenant, _, _ in log]
        # the stride bound: between two lab-a services at most
        # ceil(w_b / w_a) = 3 lab-b placements fit, so consecutive
        # lab-a placements are at most 4 apart
        last_a = -1
        for i, tenant in enumerate(order):
            if tenant == "lab-a":
                assert i - last_a <= 4
                last_a = i
        assert order.count("lab-a") == 3

    def test_priority_orders_within_tenant_only(self, tmp_path):
        gateway, log = _gateway(tmp_path, tenants=(A,))
        with gateway:
            low = gateway.submit("lab-a", "key-a", SPEC, priority=0)
            high = gateway.submit("lab-a", "key-a", SPEC, priority=5)
            gateway.run_until_idle()
            finished = sorted(
                (gateway.status("lab-a", "key-a", v["job_id"])
                 for v in (low, high)),
                key=lambda j: j["started_at"],
            )
            assert finished[0]["job_id"] == high["job_id"]

    def test_idle_tenant_cannot_bank_credit(self):
        scheduler = FairShareScheduler([Cell("c1")])
        job = object()
        weights = {"a": 1.0, "b": 1.0}
        # a alone for a long stretch; b idle the whole time
        for _ in range(20):
            assert scheduler.pick_tenant({"a": job, "b": None}, weights) == "a"
        # b returning is served promptly but gets no catch-up burst:
        # placements alternate instead of b draining 20 turns of credit
        picks = [
            scheduler.pick_tenant({"a": job, "b": job}, weights)
            for _ in range(6)
        ]
        assert picks.count("b") == 3


class TestHealthGating:
    def test_unhealthy_cell_skipped_then_recovers(self, tmp_path):
        metrics = MetricsRegistry()
        verdicts = {"c1": UNHEALTHY, "c2": DEGRADED}
        cells = [
            Cell("c1", health=lambda: verdicts["c1"]),
            Cell("c2", health=lambda: verdicts["c2"]),
        ]
        log = []
        gateway = Gateway(
            cells,
            tmp_path / "gw",
            tenants=(A,),
            runner=_recording_runner(log),
            metrics=metrics,
        )
        with gateway:
            gateway.submit("lab-a", "key-a", SPEC)
            # nothing healthy: no placement, skips counted per cell
            assert gateway.step() is None
            assert log == []
            skips = metrics.counter("gateway.scheduler_skips_total")
            assert skips.value(cell="c1", verdict=UNHEALTHY) >= 1
            assert skips.value(cell="c2", verdict=DEGRADED) >= 1
            # c2 recovers; the queued job lands there and only there
            verdicts["c2"] = HEALTHY
            view = gateway.step()
            assert view["state"] == SUCCEEDED
            assert view["cell"] == "c2"
            assert [cell for _, cell, _ in log] == ["c2"]


class TestCancel:
    def test_cancel_queued_is_immediate_and_never_runs(self, tmp_path):
        gateway, log = _gateway(tmp_path, tenants=(A,))
        with gateway:
            view = gateway.submit("lab-a", "key-a", SPEC)
            cancelled = gateway.cancel("lab-a", "key-a", view["job_id"])
            assert cancelled["state"] == CANCELLED
            assert gateway.run_until_idle() == 0
            assert log == []

    def test_cancel_running_lands_at_next_boundary(self, tmp_path):
        gateway_box = {}

        def cancelling_runner(job, cell, ctx):
            assert not ctx.cancelled()
            gateway_box["gw"].cancel("lab-a", "key-a", job.job_id)
            assert ctx.cancelled()
            return {"state": CANCELLED, "rounds": 1}

        gateway, _ = _gateway(
            tmp_path, tenants=(A,), runner=cancelling_runner
        )
        gateway_box["gw"] = gateway
        with gateway:
            view = gateway.submit("lab-a", "key-a", SPEC)
            assert gateway.step()["state"] == CANCELLED
            final = gateway.status("lab-a", "key-a", view["job_id"])
            assert final["cancel_requested"]

    def test_cancel_terminal_is_a_state_error(self, tmp_path):
        gateway, _ = _gateway(tmp_path, tenants=(A,))
        with gateway:
            view = gateway.submit("lab-a", "key-a", SPEC)
            gateway.run_until_idle()
            with pytest.raises(JobStateError) as info:
                gateway.cancel("lab-a", "key-a", view["job_id"])
            assert info.value.code == "GATEWAY_JOB_STATE"

    def test_jobs_do_not_leak_across_tenants(self, tmp_path):
        gateway, _ = _gateway(tmp_path)
        with gateway:
            view = gateway.submit("lab-a", "key-a", SPEC)
            with pytest.raises(UnknownJobError):
                gateway.status("lab-b", "key-b", view["job_id"])
            with pytest.raises(UnknownJobError):
                gateway.cancel("lab-b", "key-b", view["job_id"])


class TestJobPoll:
    def test_poll_reply_shape_and_incremental_cursor(self, tmp_path):
        gateway, _ = _gateway(tmp_path, tenants=(A,))
        with gateway:
            gateway.submit("lab-a", "key-a", SPEC)
            first = gateway.poll("lab-a", "key-a", cursor=0)
            assert first["schema"] == FEED_SCHEMA
            assert first["service"] == "gateway"
            assert first["gap"] == 0
            assert [e["name"] for e in first["events"]] == ["job.submitted"]
            gateway.run_until_idle()
            second = gateway.poll("lab-a", "key-a", cursor=first["cursor"])
            assert [e["name"] for e in second["events"]] == [
                "job.started",
                "job.finished",
            ]
            # cursor is a high-water mark: re-polling yields nothing new
            third = gateway.poll("lab-a", "key-a", cursor=second["cursor"])
            assert third["events"] == []
            assert third["cursor"] == second["cursor"]

    def test_stale_cursor_reports_gap(self, tmp_path):
        gateway, _ = _gateway(tmp_path, tenants=(A,), feed_capacity=4)
        with gateway:
            for _ in range(4):
                gateway.submit("lab-a", "key-a", SPEC)
            gateway.run_until_idle()  # 12 events through a 4-slot ring
            reply = gateway.poll("lab-a", "key-a", cursor=0)
            assert reply["gap"] == 8
            assert len(reply["events"]) == 4

    def test_feed_cursor_past_latest_seq_restarts_from_oldest(self, tmp_path):
        """A cursor beyond the feed's latest sequence (issued by an
        earlier gateway incarnation) reads as 0: the retained events are
        served and the evicted ones are reported as gap."""
        gateway, _ = _gateway(tmp_path, tenants=(A,), feed_capacity=4)
        with gateway:
            for _ in range(4):
                gateway.submit("lab-a", "key-a", SPEC)
            gateway.run_until_idle()  # 12 events through a 4-slot ring
            events, cursor, gap = gateway.store.feed.read_since(100)
            assert [e.seq for e in events] == [9, 10, 11, 12]
            assert cursor == 12
            assert gap == 8

    def test_tenant_filter_advances_past_other_tenants(self, tmp_path):
        gateway, _ = _gateway(tmp_path)
        with gateway:
            gateway.submit("lab-a", "key-a", SPEC)
            gateway.submit("lab-b", "key-b", SPEC)
            reply = gateway.poll("lab-b", "key-b", cursor=0)
            assert [e["tenant"] for e in reply["events"]] == ["lab-b"]
            # the cursor still advanced past lab-a's event
            assert reply["cursor"] == 2


class TestDurability:
    def test_restart_preserves_queued_jobs(self, tmp_path):
        gateway, _ = _gateway(tmp_path, tenants=(A,))
        views = [gateway.submit("lab-a", "key-a", SPEC) for _ in range(3)]
        gateway.close()

        reopened, log = _gateway(tmp_path, tenants=(A,))
        with reopened:
            assert reopened.queue_depth("lab-a") == 3
            assert reopened.run_until_idle() == 3
            for view in views:
                final = reopened.status("lab-a", "key-a", view["job_id"])
                assert final["state"] == SUCCEEDED
        assert all(resume is False for _, _, resume in log)

    def test_pre_restart_poll_cursor_sees_new_incarnation_events(self, tmp_path):
        """The job feed restarts at sequence 1 with the gateway, so a
        poller's cursor from before the restart is ahead of it; the poll
        must still deliver the new incarnation's events."""
        gateway, _ = _gateway(tmp_path, tenants=(A,))
        gateway.submit("lab-a", "key-a", SPEC)
        gateway.run_until_idle()
        cursor = gateway.poll("lab-a", "key-a", cursor=0)["cursor"]
        assert cursor == 3
        gateway.close()

        reopened, _ = _gateway(tmp_path, tenants=(A,))
        with reopened:
            view = reopened.submit("lab-a", "key-a", SPEC)
            reply = reopened.poll("lab-a", "key-a", cursor=cursor)
            assert [(e["name"], e["job_id"]) for e in reply["events"]] == [
                ("job.submitted", view["job_id"])
            ]
            assert reply["gap"] == 0
            assert reply["cursor"] == 1

    def test_crash_mid_execution_requeues_with_resume_flag(self, tmp_path):
        metrics = MetricsRegistry()
        gateway, _ = _gateway(tmp_path, tenants=(A,))
        running = gateway.submit("lab-a", "key-a", SPEC)
        queued = gateway.submit("lab-a", "key-a", SPEC)
        done = gateway.submit("lab-a", "key-a", SPEC)
        gateway.store.mark_finished(done["job_id"], SUCCEEDED, rounds=1)
        # the crash: job-started journaled, process dies before finishing
        gateway.store.mark_running(running["job_id"], "c1")
        gateway.store.close()

        reopened, log = _gateway(tmp_path, tenants=(A,), metrics=metrics)
        with reopened:
            assert reopened.store.requeued_on_open == [running["job_id"]]
            assert (
                metrics.counter("gateway.jobs_requeued_total").total() == 1
            )
            assert reopened.run_until_idle() == 2
            view = reopened.status("lab-a", "key-a", running["job_id"])
            assert view["state"] == SUCCEEDED
        # exactly one execution ran resumed (the torn one), one fresh,
        # and the pre-crash success was not re-executed at all
        assert sorted(resume for _, _, resume in log) == [False, True]
        assert len(log) == 2

    def test_finished_jobs_keep_their_outcome_across_restart(self, tmp_path):
        def failing_runner(job, cell, ctx):
            return {"state": FAILED, "rounds": 0, "error": "bad electrode"}

        gateway, _ = _gateway(tmp_path, tenants=(A,), runner=failing_runner)
        view = gateway.submit("lab-a", "key-a", SPEC)
        gateway.run_until_idle()
        gateway.close()
        reopened, log = _gateway(tmp_path, tenants=(A,))
        with reopened:
            final = reopened.status("lab-a", "key-a", view["job_id"])
            assert final["state"] == FAILED
            assert final["error"] == "bad electrode"
            assert reopened.run_until_idle() == 0
        assert log == []

    def test_runner_exception_is_job_failure_not_gateway_crash(self, tmp_path):
        def exploding_runner(job, cell, ctx):
            raise RuntimeError("potentiostat on fire")

        gateway, _ = _gateway(tmp_path, tenants=(A,), runner=exploding_runner)
        with gateway:
            view = gateway.submit("lab-a", "key-a", SPEC)
            gateway.run_until_idle()
            final = gateway.status("lab-a", "key-a", view["job_id"])
            assert final["state"] == FAILED
            assert "potentiostat on fire" in final["error"]
            # the cell came back: a second job still runs
            again = gateway.submit("lab-a", "key-a", SPEC)
            gateway._runner = _recording_runner([])
            gateway.run_until_idle()
            assert (
                gateway.status("lab-a", "key-a", again["job_id"])["state"]
                == SUCCEEDED
            )


class TestRealCampaignResume:
    def test_restart_resumes_campaign_with_zero_instrument_reruns(
        self, ice, tmp_path
    ):
        """The acceptance scenario, on a real ICE.

        A job's campaign runs to completion but the gateway dies before
        journaling ``job-finished``. The restarted gateway re-queues the
        job and its re-execution must *resume* from the campaign journal
        — restoring every round from checkpoints — so the instrument
        sees zero additional executions.
        """
        from repro.gateway.gateway import JobContext

        spec = {
            "strategy": {
                "kind": "scan-rate",
                "scan_rates_v_s": [0.05, 0.1],
                "base": {},
            },
            "max_rounds": 2,
        }
        starts = {"n": 0}
        server = ice._ws_server
        original = server.Start_Channel_SP200

        def counting(*args, **kwargs):
            starts["n"] += 1
            return original(*args, **kwargs)

        server.Start_Channel_SP200 = counting

        state_dir = tmp_path / "gw"
        gateway = Gateway({"cell-1": ice}, state_dir, tenants=(A,))
        view = gateway.submit("lab-a", "key-a", spec)
        job, cell = gateway._place()
        outcome = campaign_runner(
            job,
            cell,
            JobContext(
                journal_dir=state_dir / "jobs" / job.job_id,
                idem_prefix=job.idem_prefix,
                resume=False,
                cancelled=lambda: False,
            ),
        )
        assert outcome["state"] == SUCCEEDED
        assert starts["n"] == 2
        # crash here: the campaign finished but job-finished never landed
        gateway.store.close()

        reopened = Gateway({"cell-1": ice}, state_dir, tenants=(A,))
        with reopened:
            assert reopened.store.requeued_on_open == [view["job_id"]]
            assert reopened.run_until_idle() == 1
            final = reopened.status("lab-a", "key-a", view["job_id"])
            assert final["state"] == SUCCEEDED
            assert final["rounds"] == 2
        # ZERO duplicated instrument executions across the restart
        assert starts["n"] == 2


class TestJobStore:
    def test_wrong_transitions_refused(self, tmp_path):
        store = JobStore.open(tmp_path / "store")
        try:
            job = store.submit("lab-a", SPEC)
            with pytest.raises(JobStateError):
                store.mark_finished(job.job_id, QUEUED)
            store.mark_running(job.job_id, "c1")
            with pytest.raises(JobStateError):
                store.mark_running(job.job_id, "c1")
            store.mark_finished(job.job_id, SUCCEEDED, rounds=1)
            with pytest.raises(JobStateError):
                store.mark_finished(job.job_id, FAILED)
        finally:
            store.close()

    def test_unknown_job_raises(self, tmp_path):
        store = JobStore.open(tmp_path / "store")
        try:
            with pytest.raises(UnknownJobError) as info:
                store.get("nope")
            assert info.value.code == "GATEWAY_UNKNOWN_JOB"
        finally:
            store.close()

    def test_queued_cancel_replays_as_cancelled(self, tmp_path):
        store = JobStore.open(tmp_path / "store")
        job = store.submit("lab-a", SPEC)
        store.cancel(job.job_id)
        store.close()
        reopened = JobStore.open(tmp_path / "store")
        try:
            assert reopened.get(job.job_id).state == CANCELLED
            assert reopened.requeued_on_open == []
        finally:
            reopened.close()
