"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the percentile helper refuses thin tails, and that each
correctness gate fires on a deliberately mismatched input.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import daemon_ingest, harness, moss_collect, run  # noqa: E402
from perfbench.tracing import Span, Tracer, breakdown, reconcile  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds."""
    monkeypatch.setattr(harness, "SETUPS", 1)
    monkeypatch.setattr(moss_collect, "SETUPS", 1)
    monkeypatch.setattr(moss_collect, "TRIALS", 4)
    monkeypatch.setattr(moss_collect, "SETS", 2)
    monkeypatch.setattr(moss_collect, "PROBE_INPUTS", 2)
    monkeypatch.setattr(daemon_ingest, "REPORTS", 110)
    monkeypatch.setattr(daemon_ingest, "BATCH", 1)
    monkeypatch.setattr(daemon_ingest, "PROBE_INPUTS", 10)


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys, workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _run(capsys, workload, trace)
        assert code == 0 and result["correct"], result
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
            if kind == "end_to_end":
                assert metric["value"] > 0, name


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.percentile(range(200), 95) == 189
    assert harness.percentile(range(20), 50) == 9
    for values, q in ((range(199), 95), (range(100), 95), (range(19), 50), ([], 50)):
        with pytest.raises(harness.PercentileError):
            harness.percentile(values, q)


def test_digest_gate_fires_on_a_different_ranked_list():
    assert harness.gate_same("digests", ["a" * 64, "a" * 64]) is None
    assert harness.gate_same("digests", ["a" * 64, "b" * 64]) is not None
    assert harness.gate_same("digests", []) is not None


def _ccrypt_reports(n: int):
    from repro.harness.runner import run_trials
    from repro.instrument.sampling import SamplingPlan
    from repro.subjects.ccrypt import CcryptSubject

    subject = CcryptSubject()
    reports, _ = run_trials(subject, subject.build_program(), n, SamplingPlan.full(), seed=0)
    return reports


def test_stats_gate_fires_on_a_population_missing_a_run():
    import numpy as np

    from repro.store.incremental import SufficientStats

    reports = _ccrypt_reports(12)
    full = SufficientStats.from_reports(reports)
    mask = np.ones(reports.n_runs, dtype=bool)
    mask[-1] = False
    short = SufficientStats.from_reports(reports, run_mask=mask)
    assert harness.gate_stats_equal("stats", full, SufficientStats.from_reports(reports)) is None
    assert harness.gate_stats_equal("stats", full, short) is not None


def test_reconciliation_fires_on_overlapping_spans():
    nested = [Span(2, "a", 1, 0.1, 0.4, "t"), Span(3, "b", 1, 0.5, 0.9, "t"),
              Span(1, "pass", None, 0.0, 1.0, "t")]
    assert reconcile(breakdown(nested, 1)) is None
    assert breakdown(nested, 1).residual_s == pytest.approx(0.3)
    overlapping = [Span(2, "a", 1, 0.1, 0.6, "t"), Span(3, "b", 1, 0.5, 0.9, "u"),
                   Span(1, "pass", None, 0.0, 1.0, "t")]
    assert reconcile(breakdown(overlapping, 1)) is not None


def test_tracer_nests_spans_across_threads():
    import threading

    tracer = Tracer()
    with tracer.span("pass") as root:
        with tracer.span("post") as post:
            tracer.adopt = post.id
            worker = threading.Thread(target=tracer.wrap(lambda: None, "server"))
            worker.start()
            worker.join(timeout=10)
            tracer.adopt = None
    assert not worker.is_alive()
    split = breakdown(tracer.spans, root.id)
    assert set(split.self_s) == {"post", "server"}
    assert reconcile(split) is None


def test_a_failing_gate_fails_the_run(tiny, capsys, monkeypatch):
    """Traced passes collect other inputs than untraced ones: the gate fires."""
    one_pass = moss_collect.one_pass

    def shifted(state, k, tracer=None, **kwargs):
        return one_pass(state, k + (tracer is not None), tracer, **kwargs)

    monkeypatch.setattr(moss_collect, "one_pass", shifted)
    monkeypatch.setattr(moss_collect, "TRIALS", 10)  # enough for failing runs
    code, result = _run(capsys, "moss-collect", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_daemon_stats_gate_fires_when_the_local_population_differs(tiny, capsys, monkeypatch):
    expected = daemon_ingest.expected_stats

    def short_by_one(state):
        trimmed = dict(state, reports=state["reports"][:-1])
        return expected(trimmed)

    monkeypatch.setattr(daemon_ingest, "expected_stats", short_by_one)
    code, result = _run(capsys, "daemon-ingest", 0)
    assert code == 1 and result["correct"] is False
