"""``daemon-ingest``: pre-encoded ccrypt reports POSTed to an in-process daemon.

Set-up runs the ccrypt trials at full sampling and encodes the reports
with ``protocol.encode_batch`` at batch 32 (the ``drain_spool`` default),
so no instrumented code and no client encoding runs in the timed window.
A pass starts a default ``CollectionService`` (``batch_runs=200``,
steering on) over a fresh store behind a ``FeedbackServer`` on 127.0.0.1.
One closed-loop client on the main thread POSTs every batch, each on a
fresh connection as the repo's uploader does; the window ends with
``flush()`` and one ``analyze_store`` to the ranked list.
``FeedbackServer.close()`` -- with its 0.5 s ``serve_forever`` poll -- is
timed apart, as ``serve.close_s``, on a thread of its own while the
overhead probe runs.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import tempfile
import threading
import time
import urllib.error
import urllib.request

from perfbench import harness
from perfbench.tracing import Tracer, breakdown, reconcile, shadow, trace_calls

#: Reports per pass and per POST; POSTs a run must reach for its p95.
REPORTS = 600
BATCH = 32
MIN_POSTS = 210
#: Inputs per block of the instrumented/plain overhead probe.
PROBE_INPUTS = 30


def _seed_base(seed: int) -> int:
    return 2_000_000 + seed * 10_000


def setup(seed: int) -> dict:
    import hashlib

    from repro.harness.runner import run_one_trial
    from repro.instrument.sampling import SamplingPlan
    from repro.serve.protocol import RunReport, encode_batch
    from repro.subjects.ccrypt import CcryptSubject

    t0 = time.perf_counter()
    subject = CcryptSubject()
    program = subject.build_program()
    t1 = time.perf_counter()
    plain = harness.plain_entry(subject)
    # Full sampling: a steering daemon over a fresh store serves rate 1.0
    # to every site until its first refit, and at 1/100 a thousand runs
    # leave no predicate past pruning -- the ranked list would be empty.
    plan = SamplingPlan.full()
    entry = program.func(subject.entry)
    reports = []
    for trial_seed in range(_seed_base(seed), _seed_base(seed) + REPORTS):
        failed, site_obs, pred_true, stack, bugs = run_one_trial(
            subject, program, entry, plan, trial_seed
        )
        reports.append(RunReport(
            seed=trial_seed, failed=failed, site_obs=dict(site_obs),
            pred_true=dict(pred_true), stack=tuple(stack) if stack is not None else None,
            bugs=tuple(bugs),
        ))
    t2 = time.perf_counter()
    table_sha = program.table.signature()
    bodies = [
        encode_batch(reports[i:i + BATCH], subject.name, table_sha)
        for i in range(0, REPORTS, BATCH)
    ]
    t3 = time.perf_counter()
    digest = hashlib.sha256(b"".join(body for body, _ in bodies)).hexdigest()
    return {
        "subject": subject, "program": program, "plain": plain, "plan": plan, "seed": seed,
        "reports": reports, "bodies": bodies, "digest": digest, "blocks_run": 0,
        "setup_s": t3 - t0, "build_s": t1 - t0, "encode_s": t3 - t2,
    }


def expected_stats(state: dict):
    """``SufficientStats.from_reports`` over the reports, built locally."""
    from repro.core.reports import ReportBuilder
    from repro.store.incremental import SufficientStats

    builder = ReportBuilder(state["program"].table)
    for r in state["reports"]:
        builder.add_run(r.failed, r.site_obs, r.pred_true, stack=r.stack, seed=r.seed)
    return SufficientStats.from_reports(builder.build())


def _traced(stack, tracer: Tracer, service, store, engine, fsyncs: list) -> None:
    import repro.core.engine as engine_mod
    import repro.serve.server as server_mod

    trace_calls(stack, tracer, service, "ingest_body", "serve.ingest_body")
    trace_calls(stack, tracer, service, "flush", "serve.flush")
    trace_calls(stack, tracer, server_mod, "decode_body", "serve.decode_body")
    trace_calls(stack, tracer, server_mod, "validate_payload", "serve.validate_payload")
    trace_calls(stack, tracer, server_mod, "fit_steering", "serve.steering_fit")
    trace_calls(stack, tracer, store, "append_shard", "store.append_shard")
    trace_calls(stack, tracer, store, "load_merged", "store.load_merged")
    trace_calls(stack, tracer, engine, "analyze_store", "core.engine.analyze_store")
    trace_calls(stack, tracer, engine, "store_stats", "core.engine.store_stats")
    trace_calls(stack, tracer, engine, "score_stats", "core.engine.score_stats")
    trace_calls(stack, tracer, engine_mod, "eliminate", "core.elimination.eliminate")
    fsync = os.fsync

    def counting_fsync(fd):
        fsyncs[0] += 1
        return fsync(fd)

    shadow(stack, os, "fsync", counting_fsync)


def _post(opener, url: str, body: bytes, headers: dict, tracer: Tracer = None):
    """One POST on a fresh connection, as the repo's uploader sends it.

    Traced, the server's spans for the request join the client's span.
    """
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    with (tracer.span("serve.post") if tracer else contextlib.nullcontext()) as span:
        if tracer is not None:
            tracer.adopt = span.id
        try:
            with opener.open(request, timeout=60) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        finally:
            if tracer is not None:
                tracer.adopt = None


def one_pass(state: dict, work_dir: str, tracer: Tracer = None) -> dict:
    from repro.core.engine import AnalysisEngine
    from repro.serve import CollectionService, FeedbackServer
    from repro.store import ShardStore

    subject, program = state["subject"], state["program"]
    store_dir = tempfile.mkdtemp(prefix="daemon-", dir=work_dir)
    store = ShardStore.open_or_create(store_dir, subject.name, program.table, state["plan"])
    service = CollectionService(store, subject)
    engine = AnalysisEngine(jobs=1)
    server = FeedbackServer(service, port=0).start()
    # No proxy: the daemon is on this host whatever the environment says.
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    url = f"{server.url}/reports"
    latencies, bad, fsyncs = [], 0, [0]
    root = None
    closed = {}

    def close() -> None:
        closing = time.perf_counter()
        server.close()
        closed["s"] = time.perf_counter() - closing

    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                _traced(stack, tracer, service, store, engine, fsyncs)
                root = stack.enter_context(tracer.span("pass"))
            written = harness.bytes_written()
            start = time.perf_counter()
            for body, headers in state["bodies"]:
                sent = time.perf_counter()
                status, reply = _post(opener, url, body, headers, tracer)
                latencies.append(time.perf_counter() - sent)
                if status != 200 or not json.loads(reply).get("accepted"):
                    bad += 1
            service.flush()
            written = harness.bytes_written() - written
            analysis = engine.analyze_store(store)
            wall = time.perf_counter() - start
    except BaseException:
        close()
        raise
    # close() mostly waits out the accept loop's poll; the overhead probe,
    # which touches neither the server nor the store, runs meanwhile.
    closer = threading.Thread(target=close, name="perfbench-close")
    closer.start()
    overhead = None if tracer is not None else harness.next_overhead_block(
        state, _seed_base(state["seed"]) + REPORTS, PROBE_INPUTS)
    closer.join()
    stats_gate = harness.gate_stats_equal(
        "daemon store stats vs local reports", store.sufficient_stats(), state["expected"]
    )
    shard_bytes = sum(os.path.getsize(p) for p in store.shard_paths())
    n_runs = store.n_runs
    shutil.rmtree(store_dir, ignore_errors=True)
    return {
        "wall": wall, "ops": len(latencies), "bad": bad, "latencies": latencies,
        "digest": harness.ranked_digest(analysis),
        "kept": analysis.pruning.n_kept, "rounds": analysis.elimination.iterations,
        "stats_gate": stats_gate, "bytes_per_run": shard_bytes / n_runs, "n_runs": n_runs,
        "close_s": closed["s"], "written": written, "fsyncs": fsyncs[0],
        "overhead": overhead,
        "root": root.id if root is not None else None,
    }


def measure(seed: int, seconds: float, trace: bool, work_dir: str) -> harness.Outcome:
    setups = harness.Setups(lambda: setup(seed), harness.SETUPS)
    state = setups.state
    state["expected"] = expected_stats(state)

    tracer = Tracer()
    untraced, traced = (
        reps[0] for reps in harness.measure_passes(
            1, lambda k, t: one_pass(state, work_dir, t), seconds, trace, tracer, MIN_POSTS,
            between=setups.extra))
    passes = untraced + traced
    gates = [setups.gate()]
    gates.append(harness.gate_same(
        "daemon ranked list across passes", [r["digest"] for r in passes]))
    gates.extend(r["stats_gate"] for r in passes)
    gates.append(None if all(r["n_runs"] == REPORTS for r in passes)
                 else "daemon store did not commit every report")

    isolate_s = harness.wall_of([untraced])
    posts_ms = [1000 * x for r in untraced for x in r["latencies"]]
    outcome = harness.Outcome(
        end_to_end={
            "setup_s": setups.scaled_median("setup_s"),
            "isolate_s": isolate_s,
            "runs_per_s": REPORTS / isolate_s,
            "overhead_x": statistics.median(r["overhead"] for r in untraced),
            "store_bytes_per_run": statistics.median(r["bytes_per_run"] for r in untraced),
            "peak_rss_mb": harness.peak_rss_mb(),
        },
        per_layer={},
        attempted=sum(r["ops"] for r in passes),
        failed=sum(r["bad"] for r in passes),
        gates=gates,
        notes={"posts": len(posts_ms), "passes": len(untraced),
               **harness.host_notes(untraced, setups)},
    )
    if not trace:
        return outcome

    splits = [breakdown(tracer.spans, r["root"]) for r in traced]
    gates.extend(reconcile(b) for b in splits)
    layers = harness.layer_medians(splits)
    ingest_ms = [1000 * d for b in splits for d in b.durations.get("serve.ingest_body", [])]
    reports_in = REPORTS * len(untraced)
    traced_wall = statistics.median(r["wall"] for r in traced)
    outcome.per_layer = {
        "instrument.build_s": setups.median("build_s"),
        "serve.encode_batch_s": setups.median("encode_s"),
        "serve.body_bytes_per_report": sum(len(b) for b, _ in state["bodies"]) / REPORTS,
        "serve.ingest_body_s": layers.get("serve.ingest_body", 0.0),
        "serve.ingest_body_p50_ms": harness.percentile(ingest_ms, 50),
        "serve.ingest_body_p95_ms": harness.percentile(ingest_ms, 95),
        "serve.http_s": layers.get("serve.post", 0.0),
        "serve.decode_body_s": layers.get("serve.decode_body", 0.0),
        "serve.validate_payload_s": layers.get("serve.validate_payload", 0.0),
        "store.append_shard_s": layers.get("store.append_shard", 0.0),
        "serve.steering_fit_s": layers.get("serve.steering_fit", 0.0),
        "serve.fsyncs_per_report": sum(r["fsyncs"] for r in traced) / (REPORTS * len(traced)),
        "serve.bytes_written_per_report": sum(r["written"] for r in untraced) / reports_in,
        "serve.flush_s": layers.get("serve.flush", 0.0),
        "core.engine.analyze_store_s": layers.get("core.engine.analyze_store", 0.0),
        "core.engine.store_stats_s": layers.get("core.engine.store_stats", 0.0),
        "core.engine.score_stats_s": layers.get("core.engine.score_stats", 0.0),
        "store.load_merged_s": layers.get("store.load_merged", 0.0),
        "core.elimination.eliminate_s": layers.get("core.elimination.eliminate", 0.0),
        "serve.close_s": statistics.median(r["close_s"] for r in passes),
        "post_p50_ms": harness.percentile(posts_ms, 50),
        "post_p95_ms": harness.percentile(posts_ms, 95),
        "post_count": len(posts_ms),
        "core.pruning.kept": statistics.median(r["kept"] for r in traced),
        "core.elimination.rounds": statistics.median(r["rounds"] for r in traced),
        "residual_s": statistics.median(b.residual_s for b in splits),
        "trace.wall_s": traced_wall,
        "trace.overhead_x": traced_wall / harness.wall_of([untraced], scaled=False),
    }
    outcome.trace = {"spans": tracer.spans, "passes": [r["root"] for r in traced]}
    return outcome
