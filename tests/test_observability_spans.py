"""Hierarchical span tracing: parenting, no-op guarantees, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.observability import (
    NULL_SPAN,
    EventTracer,
    Observability,
    SpanTracer,
    maybe_span,
)
from repro.observability.spans import SPAN_SECONDS_METRIC
from repro.streaming import SlidingWindowSummarizer


def _traced() -> Observability:
    return Observability(tracer=EventTracer(), spans=SpanTracer())


class TestSpanLifecycle:
    def test_span_emits_start_and_end_events(self):
        obs = _traced()
        with obs.span("apply_batch", batch=7):
            pass
        (start,) = obs.tracer.events("span_start")
        (end,) = obs.tracer.events("span_end")
        assert start.fields["op"] == "apply_batch"
        assert start.fields["batch"] == 7
        assert start.fields["parent"] is None
        assert end.fields["span"] == start.fields["span"]
        assert end.fields["seconds"] >= 0.0

    def test_nested_spans_are_parented(self):
        obs = _traced()
        with obs.span("apply_batch"):
            with obs.span("maintain_insert"):
                with obs.span("assign_block"):
                    assert obs.spans.depth == 3
        starts = obs.tracer.events("span_start")
        by_op = {e.fields["op"]: e.fields for e in starts}
        assert by_op["apply_batch"]["parent"] is None
        assert by_op["maintain_insert"]["parent"] == by_op["apply_batch"]["span"]
        assert by_op["assign_block"]["parent"] == by_op["maintain_insert"]["span"]
        assert obs.spans.depth == 0

    def test_siblings_share_a_parent(self):
        obs = _traced()
        with obs.span("apply_batch"):
            with obs.span("maintain_delete"):
                pass
            with obs.span("maintain_insert"):
                pass
        starts = obs.tracer.events("span_start")
        parent = starts[0].fields["span"]
        assert starts[1].fields["parent"] == parent
        assert starts[2].fields["parent"] == parent

    def test_seq_numbers_totally_order_nested_spans(self):
        # LIFO close: start(outer) < start(inner) < end(inner) < end(outer),
        # and the tracer's seq numbers must witness that order even when
        # the monotonic timestamps are equal at clock resolution.
        obs = _traced()
        with obs.span("recovery"):
            with obs.span("recovery_scan"):
                pass
            with obs.span("replay"):
                pass
        events = obs.tracer.events()
        assert [e.seq for e in events] == list(range(len(events)))
        order = [(e.kind, e.fields["op"]) for e in events]
        assert order == [
            ("span_start", "recovery"),
            ("span_start", "recovery_scan"),
            ("span_end", "recovery_scan"),
            ("span_start", "replay"),
            ("span_end", "replay"),
            ("span_end", "recovery"),
        ]

    def test_exception_closes_span_with_error_flag(self):
        obs = _traced()
        with pytest.raises(RuntimeError):
            with obs.span("checkpoint"):
                raise RuntimeError("disk on fire")
        (end,) = obs.tracer.events("span_end")
        assert end.fields["error"] is True
        assert obs.spans.depth == 0

    def test_durations_feed_per_op_histogram(self):
        obs = _traced()
        for _ in range(3):
            with obs.span("classify"):
                pass
        sample = next(
            s
            for s in obs.metrics.snapshot()
            if s.name == SPAN_SECONDS_METRIC
            and dict(s.labels).get("op") == "classify"
        )
        assert sample.kind == "histogram"
        assert sample.count == 3

    def test_counts_and_total_opened(self):
        obs = _traced()
        with obs.span("audit"):
            with obs.span("audit_repair"):
                pass
        assert obs.spans.total_opened == 2
        assert obs.spans.counts() == {"audit": 1, "audit_repair": 1}


class TestDisabledSpans:
    def test_maybe_span_returns_null_for_none_obs(self):
        assert maybe_span(None, "apply_batch") is NULL_SPAN

    def test_maybe_span_returns_null_without_tracer(self):
        obs = Observability()
        assert maybe_span(obs, "apply_batch", batch=1) is NULL_SPAN
        assert obs.span("apply_batch") is NULL_SPAN

    def test_null_span_is_a_reusable_context_manager(self):
        with NULL_SPAN as handle:
            assert handle is NULL_SPAN
        with NULL_SPAN:
            pass

    def test_spanless_handle_records_no_span_metrics(self):
        obs = Observability()
        with obs.span("apply_batch"):
            pass
        names = {s.name for s in obs.metrics.snapshot()}
        assert SPAN_SECONDS_METRIC not in names


class TestBinding:
    def test_unbound_tracer_refuses_spans(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError, match="not bound"):
            tracer.span("apply_batch")

    def test_tracer_cannot_serve_two_handles(self):
        tracer = SpanTracer()
        Observability(spans=tracer)
        with pytest.raises(ValueError, match="already bound"):
            Observability(spans=tracer)

    def test_rebinding_same_handle_is_idempotent(self):
        tracer = SpanTracer()
        obs = Observability(spans=tracer)
        tracer.bind(obs)  # no error


class TestBitIdentical:
    def test_flight_recorder_does_not_perturb_the_stream(self):
        """Full instrumentation must leave results and RNG bit-identical."""

        def run(obs):
            stream = SlidingWindowSummarizer(
                dim=2,
                window_size=600,
                points_per_bubble=25,
                seed=3,
                obs=obs,
            )
            rng = np.random.default_rng(11)
            for i in range(8):
                stream.append(rng.normal(size=(150, 2)) + 0.2 * i)
            return stream

        plain = run(None)
        traced = run(
            Observability(tracer=EventTracer(), spans=SpanTracer())
        )

        assert plain.counter.snapshot() == traced.counter.snapshot()
        assert plain.maintainer.rng_state == traced.maintainer.rng_state
        a, b = plain.maintainer.bubbles, traced.maintainer.bubbles
        assert sorted(x.bubble_id for x in a) == sorted(
            x.bubble_id for x in b
        )
        np.testing.assert_array_equal(a.counts(), b.counts())
        np.testing.assert_array_equal(a.reps(), b.reps())
        np.testing.assert_array_equal(a.extents(), b.extents())
        for x, y in zip(a.member_csr(), b.member_csr()):
            np.testing.assert_array_equal(x, y)
        assert traced.obs.spans.total_opened > 0
