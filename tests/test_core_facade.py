"""The ``repro.connect()`` facade, its config objects, and legacy kwargs."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.core.config import SessionConfig, TransportConfig
from repro.core.cv_workflow import CVWorkflowSettings
from repro.errors import ReproError, WorkflowError
from repro.obs import MetricsRegistry, Tracer, read_jsonl_spans

FAST = CVWorkflowSettings(e_step_v=0.002)


class TestConnect:
    def test_connect_exposes_the_unified_surface(self, ice):
        with repro.connect(ice) as session:
            assert session.client is not None
            assert session.datachannel is not None
            assert session.mount is session.datachannel  # back-compat alias
            assert isinstance(session.tracer, Tracer)
            assert isinstance(session.metrics, MetricsRegistry)
            wf = session.workflow()
            assert wf.name == "cv-workflow"

    def test_connect_with_no_target_owns_its_ice(self):
        with repro.connect() as session:
            assert session.ice is not None
            assert session.client.call_Status_JKem()
        # owned ICE is shut down on close: the control daemon is gone
        assert not session.ice.control_daemon._running.is_set()

    def test_injected_observability_is_used(self, ice):
        tracer, metrics = Tracer("mine"), MetricsRegistry()
        with repro.connect(ice, tracer=tracer, metrics=metrics) as session:
            assert session.tracer is tracer
            assert session.metrics is metrics
            session.client.call_Status_JKem()
        assert tracer.find("rpc.call.Status_JKem")

    def test_uri_mode_has_no_workflow(self, ice_tcp):
        session = repro.connect(ice_tcp.control_uri)
        try:
            assert session.client.call_Status_JKem()
            assert session.datachannel is None
            with pytest.raises(WorkflowError):
                session.workflow()
            with pytest.raises(WorkflowError):
                _ = session.characterization
        finally:
            session.close()

    def test_summarize_covers_spans_and_metrics(self, ice):
        with repro.connect(ice) as session:
            session.client.call_Status_JKem()
        summary = session.summarize()
        assert "rpc.call.Status_JKem" in summary["spans"]
        assert any(k.startswith("rpc.client.calls_total") for k in summary["metrics"])

    def test_export_trace_writes_readable_jsonl(self, ice, tmp_path):
        path = tmp_path / "trace.jsonl"
        with repro.connect(ice) as session:
            session.client.call_Status_JKem()
            count = session.export_trace(path)
        assert count > 0
        rows = read_jsonl_spans(path)
        assert len(rows) == count
        assert any(r["name"] == "rpc.call.Status_JKem" for r in rows)

    def test_close_is_idempotent(self, ice):
        session = repro.connect(ice)
        session.close()
        session.close()

    def test_notebook_verbs_run_a_cv(self, ice):
        with repro.connect(ice) as session:
            trace = session.run_cv(
                e_begin_v=0.2, e_vertex_v=0.8, scan_rate_v_s=0.1
            )
            assert len(trace) > 0
            status = session.cell_status()
            assert "volume_ml" in status


class TestWorkflowThroughSession:
    def test_run_workflow_threads_session_observability(self, ice):
        with repro.connect(ice) as session:
            result = session.run_workflow(settings=FAST)
        assert result.succeeded
        assert session.tracer.find("workflow.cv-workflow")
        assert session.metrics.counter("workflow.tasks_total").total() >= 5


class TestConfigObjects:
    def test_remote_session_shim_is_gone(self):
        # deleted after a full deprecation cycle; connect() is the sole
        # entry point now
        assert not hasattr(repro, "RemoteSession")
        with pytest.raises(ImportError):
            from repro.core.session import RemoteSession  # noqa: F401

    def test_default_configs_attached_to_session(self, ice):
        with repro.connect(ice) as session:
            assert session.transport_config == TransportConfig()
            assert session.session_config == SessionConfig()
            assert session.client.resilient  # SessionConfig default

    def test_transport_config_threads_to_channels(self, ice):
        transport = TransportConfig(max_inflight=4, pipeline_depth=8)
        with repro.connect(ice, transport=transport) as session:
            # the data-channel proxy carries the read-ahead window
            assert session.datachannel._proxy.max_inflight == 8

    def test_session_config_controls_resilience(self, ice):
        with repro.connect(
            ice, session=SessionConfig(resilient=False)
        ) as session:
            assert not session.client.resilient

    def test_config_validation(self):
        with pytest.raises(WorkflowError):
            TransportConfig(max_inflight=0)
        with pytest.raises(WorkflowError):
            TransportConfig(pipeline_depth=0)
        with pytest.raises(WorkflowError):
            SessionConfig(health_window_s=0)

    def test_session_config_gates_workflows_by_default(self, ice):
        from repro.errors import HealthGateError
        from repro.obs.health import UNHEALTHY

        with repro.connect(
            ice, session=SessionConfig(require_healthy=True)
        ) as session:
            session.health_engine.register_probe(
                "rpc", lambda: (UNHEALTHY, "forced failure")
            )
            with pytest.raises(HealthGateError):
                session.run_workflow(settings=FAST)
            # per-call override still wins over the config default
            result = session.run_workflow(settings=FAST, require_healthy=False)
            assert result.succeeded

    def test_campaign_helper_inherits_session_config(self, ice, tmp_path):
        from repro.core.campaign import scan_rate_strategy

        with repro.connect(
            ice, session=SessionConfig(journal_dir=tmp_path / "journal")
        ) as session:
            campaign = session.campaign(
                scan_rate_strategy((0.05, 0.1), base=FAST)
            )
            assert campaign.journal_dir == tmp_path / "journal"
            assert campaign.flight_dir == session.flight_dir
            rounds = campaign.run()
            assert len(rounds) == 2
            assert (tmp_path / "journal" / "campaign.jsonl").exists()


class TestDeprecatedShims:
    def test_facade_is_exported_at_top_level(self):
        assert repro.connect is not None
        assert repro.Session is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the new path must not warn
            assert callable(repro.connect)

    def test_error_hierarchy_root(self):
        assert issubclass(WorkflowError, ReproError)
        assert WorkflowError("x").code == "WORKFLOW_ERROR"
