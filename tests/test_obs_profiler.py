"""The transition-sampling span profiler and its workflow hooks."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.core.campaign import Campaign, scan_rate_strategy
from repro.core.cv_workflow import CVWorkflowSettings, run_cv_workflow
from repro.obs import SpanProfiler, Tracer
from repro.obs.profiler import SCHEMA, profile_tracer

FAST = CVWorkflowSettings(e_step_v=0.002)


@pytest.fixture
def clocked():
    clock = VirtualClock()
    tracer = Tracer("prof", clock=clock)
    profiler = SpanProfiler(clock=clock)
    assert profiler.attach(tracer)
    yield clock, tracer, profiler
    profiler.detach()


class TestSelfTimeAttribution:
    def test_nested_spans_split_self_and_total(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("outer"):
            clock.advance(1.0)
            with tracer.start_as_current_span("inner"):
                clock.advance(2.0)
            clock.advance(3.0)
        doc = profiler.profile()
        outer = doc["operations"]["outer"]
        inner = doc["operations"]["inner"]
        assert outer["self_s"] == pytest.approx(4.0)
        assert outer["total_s"] == pytest.approx(6.0)
        assert inner["self_s"] == pytest.approx(2.0)
        assert inner["total_s"] == pytest.approx(2.0)
        assert outer["count"] == 1 and inner["count"] == 1

    def test_repeated_operations_accumulate(self, clocked):
        clock, tracer, profiler = clocked
        for _ in range(3):
            with tracer.start_as_current_span("op"):
                clock.advance(0.5)
        stats = profiler.profile()["operations"]["op"]
        assert stats["count"] == 3
        assert stats["self_s"] == pytest.approx(1.5)

    def test_self_time_never_exceeds_duration_when_hooks_run_late(self):
        """Each clock read lands later than the last, as on a real clock
        where the profiler hook runs after the span stamped its time.
        Intervals must close at the spans' own stamps, or a span's
        self-time outgrows its duration."""

        class AcceleratingClock(VirtualClock):
            step = 0.0

            def now(self):
                self.step += 1.0
                self.advance(self.step)
                return super().now()

        clock = AcceleratingClock()
        tracer = Tracer("prof", clock=clock)
        profiler = SpanProfiler(clock=clock)
        assert profiler.attach(tracer)
        with tracer.start_as_current_span("outer"):
            with tracer.start_as_current_span("inner"):
                pass
        ops = profiler.profile()["operations"]
        profiler.detach()
        assert ops["inner"]["self_s"] == pytest.approx(ops["inner"]["total_s"])
        assert ops["outer"]["self_s"] <= ops["outer"]["total_s"]

    def test_error_spans_are_counted(self, clocked):
        clock, tracer, profiler = clocked
        with pytest.raises(RuntimeError):
            with tracer.start_as_current_span("failing"):
                clock.advance(0.1)
                raise RuntimeError("boom")
        stats = profiler.profile()["operations"]["failing"]
        assert stats["errors"] == 1

    def test_hot_path_tree_follows_nesting(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("root"):
            clock.advance(1.0)
            with tracer.start_as_current_span("leaf"):
                clock.advance(2.0)
        doc = profiler.profile()
        paths = {tuple(entry["path"]) for entry in doc["hot_paths"]}
        assert ("root",) in paths
        assert ("root", "leaf") in paths
        tree = doc["tree"]
        assert tree["children"][0]["name"] == "root"
        assert tree["children"][0]["children"][0]["name"] == "leaf"


class TestAttachment:
    def test_profile_document_schema(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("op"):
            clock.advance(0.1)
        doc = profiler.profile()
        assert doc["schema"] == SCHEMA
        assert doc["samples_total"] >= 1
        assert doc["wall_s"] >= 0.0
        for stats in doc["operations"].values():
            assert set(stats) >= {
                "count",
                "errors",
                "self_s",
                "cpu_self_s",
                "total_s",
                "samples",
            }

    def test_single_profiler_slot(self, clocked):
        _, tracer, _ = clocked
        second = SpanProfiler()
        assert second.attach(tracer) is False

    def test_detach_restores_the_slot(self):
        tracer = Tracer("t", clock=VirtualClock())
        profiler = SpanProfiler()
        assert profiler.attach(tracer)
        assert profile_tracer(tracer) is None  # slot taken
        profiler.detach()
        assert tracer.profiler is None
        fresh = profile_tracer(tracer)  # slot free again
        assert fresh is not None and tracer.profiler is fresh
        fresh.detach()

    def test_format_table_lists_hot_operations(self, clocked):
        clock, tracer, profiler = clocked
        with tracer.start_as_current_span("slow.op"):
            clock.advance(2.0)
        table = profiler.format_table()
        assert "slow.op" in table


class TestWorkflowProfiling:
    def test_profiled_run_attaches_document(self, ice):
        result = run_cv_workflow(ice, settings=FAST, profile=True)
        assert result.succeeded
        assert result.profile is not None
        assert result.profile["schema"] == SCHEMA
        operations = result.profile["operations"]
        assert any(name.startswith("task.") for name in operations)
        # the run's own root span is profiled too, and carries the
        # tasks' time in its total
        root = operations.get("workflow.cv-workflow")
        assert root is not None and root["total_s"] > 0

    def test_unprofiled_run_stays_clean(self, ice):
        result = run_cv_workflow(ice, settings=FAST)
        assert result.profile is None
        assert ice.tracer is None or ice.tracer.profiler is None

    def test_campaign_shares_one_profiler_across_rounds(self, ice):
        ice.attach_observability(tracer=Tracer("campaign", clock=None))
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.1, 0.2), base=FAST),
            profile=True,
        )
        rounds = campaign.run()
        assert len(rounds) == 2
        assert all(r.result.profile is not None for r in rounds)
        doc = campaign.profile_doc
        assert doc is not None and doc["schema"] == SCHEMA
        # one profiler across the campaign: task counts cover both rounds
        task_ops = {
            name: stats
            for name, stats in doc["operations"].items()
            if name.startswith("task.")
        }
        assert task_ops
        assert all(stats["count"] == 2 for stats in task_ops.values())
        # profiler released after the campaign
        if ice.tracer is not None:
            assert ice.tracer.profiler is None
