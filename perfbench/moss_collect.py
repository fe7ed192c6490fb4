"""``moss-collect``: moss trials at 1/100 in process, then the ranked list.

One pass is ``run_trials`` over ``TRIALS`` seeded inputs followed by
``AnalysisEngine.analyze_reports``.  Nearly all of it is the instrumented
entry call, so this is where work on the sampling hot path shows; the
serve and store layers are never entered.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import Counter

from perfbench import harness
from perfbench.tracing import Tracer, breakdown, reconcile, shadow, trace_calls

#: Trials per pass, distinct input sets, the first sets a traced run
#: covers (each as an untraced and a traced pass), and trials of each
#: untraced pass re-run by the overhead probe (a traced pass re-runs all
#: of them).
TRIALS = 40
SETS = 6
TRACED_SETS = 2
PROBE_INPUTS = 10
RATE = 0.01


def _trial_base(seed: int, k: int) -> int:
    return 1_000_000 + seed * 1_000 + k * TRIALS


def setup(seed: int) -> dict:
    from repro.instrument.sampling import SamplingPlan
    from repro.subjects.moss import MossSubject

    start = time.perf_counter()
    subject = MossSubject()
    program = subject.build_program()
    build_s = time.perf_counter() - start
    plain = harness.plain_entry(subject)
    setup_s = time.perf_counter() - start
    return {
        "subject": subject,
        "program": program,
        "plain": plain,
        "plan": SamplingPlan.uniform(RATE),
        "seed": seed,
        "build_s": build_s,
        "setup_s": setup_s,
        "digest": program.table.signature(),
    }


def _traced(stack: contextlib.ExitStack, state: dict, tracer: Tracer, engine) -> None:
    """Shadow the public callables a pass goes through with traced ones."""
    import repro.core.engine as engine_mod
    import repro.harness.runner as runner_mod

    subject, program = state["subject"], state["program"]
    trace_calls(stack, tracer, subject, "generate_input", "subjects.generate_input")
    trace_calls(stack, tracer, subject, "oracle", "subjects.oracle")
    trace_calls(stack, tracer, program, "begin_run", "instrument.run_lifecycle")
    trace_calls(stack, tracer, program, "end_run", "instrument.run_lifecycle")
    func = program.func
    shadow(stack, program, "func", lambda name: tracer.wrap(func(name), "instrument.entry"))

    builder_cls = runner_mod.ReportBuilder

    def report_builder(table):
        builder = builder_cls(table)
        builder.add_run = tracer.wrap(builder.add_run, "core.reports.add_run")
        builder.build = tracer.wrap(builder.build, "core.reports.build")
        return builder

    shadow(stack, runner_mod, "ReportBuilder", report_builder)
    trace_calls(stack, tracer, engine_mod, "eliminate", "core.elimination.eliminate")
    trace_calls(stack, tracer, engine, "analyze_reports", "core.engine.analyze_reports")
    trace_calls(stack, tracer, engine, "score_stats", "core.engine.score_stats")


def one_pass(state: dict, k: int, tracer: Tracer = None, work_dir: str = None,
             probe: int = 0) -> dict:
    """Collect set ``k`` and analyse it, then probe the overhead on its trials.

    The probe re-runs the first ``probe`` trials of the pass, instrumented
    and plain, outside its wall: ``PROBE_INPUTS`` of them after an
    untraced pass, all of them after a pass of a traced run, whose plain
    seconds are ``subjects.body_s``, and none after the one traced pass of
    an untraced run, which is there only for its gate.
    """
    from repro.core.engine import AnalysisEngine
    from repro.harness.runner import run_trials

    subject, program = state["subject"], state["program"]
    base = _trial_base(state["seed"], k)
    engine = AnalysisEngine(jobs=1)
    with contextlib.ExitStack() as stack:
        root = None
        if tracer is not None:
            _traced(stack, state, tracer, engine)
            root = stack.enter_context(tracer.span("pass"))
        start = time.perf_counter()
        reports, truth = run_trials(subject, program, TRIALS, state["plan"], seed=base)
        analysis = engine.analyze_reports(reports, truth)
        wall = time.perf_counter() - start
    instrumented_s, plain_s = harness.overhead_block(
        subject, program, state["plain"], state["plan"], range(base, base + probe))
    return {
        "wall": wall,
        "ops": TRIALS,
        "digest": harness.ranked_digest(analysis),
        "kept": analysis.pruning.n_kept,
        "rounds": analysis.elimination.iterations,
        "bytes_per_run": _archive_bytes_per_run(analysis, work_dir) if work_dir else None,
        "root": root.id if root is not None else None,
        "overhead": instrumented_s / plain_s if probe else None,
        "body_s": plain_s,
    }


def _count_helpers(state: dict, k: int):
    """Set ``k`` collected and analysed with counting-only wrappers on the Runtime.

    Returns the counts and the ranked-list digest.
    """
    from repro.core.engine import AnalysisEngine
    from repro.harness.runner import run_trials

    subject, program = state["subject"], state["program"]
    runtime = program.runtime
    counts: Counter = Counter()
    with contextlib.ExitStack() as stack:
        branch, ret, pairs, end_run = runtime.branch, runtime.ret, runtime.pairs, program.end_run

        def count_branch(site, value):
            counts["branch"] += 1
            return branch(site, value)

        def count_ret(site, value):
            counts["ret"] += 1
            return ret(site, value)

        def count_pairs(sites, x, ys):
            counts["pairs"] += 1
            counts["operands"] += len(ys)
            return pairs(sites, x, ys)

        def count_end_run():
            site_obs, pred_true = end_run()
            counts["sampled"] += sum(site_obs.values())
            return site_obs, pred_true

        shadow(stack, runtime, "branch", count_branch)
        shadow(stack, runtime, "ret", count_ret)
        shadow(stack, runtime, "pairs", count_pairs)
        shadow(stack, program, "end_run", count_end_run)
        reports, truth = run_trials(
            subject, program, TRIALS, state["plan"], seed=_trial_base(state["seed"], k))
        analysis = AnalysisEngine(jobs=1).analyze_reports(reports, truth)
    return counts, harness.ranked_digest(analysis)


def _archive_bytes_per_run(analysis, work_dir: str) -> float:
    from repro.core.io import save_reports

    path = os.path.join(work_dir, "moss-pass.archive")
    save_reports(path, analysis.reports, analysis.truth)
    size = os.path.getsize(path)
    os.unlink(path)
    return size / analysis.reports.n_runs


#: Set-ups per run: a moss build is a tenth of a second, so take more of them.
SETUPS = 5 * harness.SETUPS


def measure(seed: int, seconds: float, trace: bool, work_dir: str) -> harness.Outcome:
    setups = harness.Setups(lambda: setup(seed), SETUPS)
    state = setups.state

    tracer = Tracer()
    untraced, traced = harness.measure_passes(
        TRACED_SETS if trace else SETS,
        lambda k, t: one_pass(
            state, k, t, work_dir=None if t is not None else work_dir,
            probe=PROBE_INPUTS if t is None else TRIALS if trace else 0),
        seconds, trace, tracer, between=setups.extra)
    gates = [setups.gate()]
    state["digests"] = [reps[0]["digest"] for reps in untraced]
    runs = [r for reps in untraced for r in reps]
    isolate_s = harness.wall_of(untraced)
    gates.extend(
        harness.gate_same(f"moss set {k} ranked list, tracing off vs on",
                          [state["digests"][k], r["digest"]])
        for k, reps in enumerate(traced) for r in reps
    )
    outcome = harness.Outcome(
        end_to_end={
            "setup_s": setups.scaled_median("setup_s"),
            "isolate_s": isolate_s,
            "runs_per_s": TRIALS / isolate_s,
            "overhead_x": statistics.median(r["overhead"] for r in runs),
            "store_bytes_per_run": statistics.median(r["bytes_per_run"] for r in runs),
            "peak_rss_mb": harness.peak_rss_mb(),
        },
        per_layer={},
        attempted=sum(r["ops"] for r in runs),
        failed=0,
        gates=gates,
        notes={"passes": len(runs), **harness.host_notes(runs, setups)},
    )
    if not trace:
        return outcome

    passes = [(k, r) for k, reps in enumerate(traced) for r in reps]
    splits = [breakdown(tracer.spans, r["root"]) for _, r in passes]
    gates.extend(reconcile(b) for b in splits)
    layers = harness.layer_medians(splits)
    body_s = statistics.median(r["body_s"] for _, r in passes)
    entry_s = layers.get("instrument.entry", 0.0)
    counts, counted_digest = _count_helpers(state, 0)
    gates.append(harness.gate_same("moss ranked list, plain vs counting wrappers",
                                   [state["digests"][0], counted_digest]))
    opportunities = counts["branch"] + counts["ret"] + counts["operands"]
    traced_wall = harness.wall_of(traced, scaled=False)
    outcome.per_layer = {
        "instrument.build_s": setups.median("build_s"),
        "subjects.generate_input_s": layers.get("subjects.generate_input", 0.0),
        "subjects.oracle_s": layers.get("subjects.oracle", 0.0),
        "instrument.run_lifecycle_s": layers.get("instrument.run_lifecycle", 0.0),
        "core.reports.add_run_s": layers.get("core.reports.add_run", 0.0),
        "core.reports.build_s": layers.get("core.reports.build", 0.0),
        "instrument.entry_s": entry_s,
        "subjects.body_s": body_s,
        "instrument.helper_s": entry_s - body_s,
        "core.engine.analyze_reports_s": layers.get("core.engine.analyze_reports", 0.0),
        "core.engine.score_stats_s": layers.get("core.engine.score_stats", 0.0),
        "core.elimination.eliminate_s": layers.get("core.elimination.eliminate", 0.0),
        "instrument.calls.branch": counts["branch"],
        "instrument.calls.ret": counts["ret"],
        "instrument.calls.pairs": counts["pairs"],
        "instrument.opportunities": opportunities,
        "instrument.sampled_obs": counts["sampled"],
        "instrument.sample_ratio": counts["sampled"] / opportunities,
        "core.pruning.kept": statistics.median(r["kept"] for _, r in passes),
        "core.elimination.rounds": statistics.median(r["rounds"] for _, r in passes),
        "residual_s": statistics.median(b.residual_s for b in splits),
        "trace.wall_s": traced_wall,
        "trace.overhead_x": traced_wall / harness.wall_of(untraced, scaled=False),
    }
    outcome.trace = {"spans": tracer.spans, "passes": [r["root"] for _, r in passes]}
    return outcome
