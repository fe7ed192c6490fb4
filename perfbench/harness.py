"""What every workload shares: metric names, the timing loop, the gates.

A workload returns a :class:`Outcome`; ``run.py`` turns it into the
printed report and the final JSON line.  The correctness gates here
return ``None`` when they hold and a one-line reason when they fire, so
the smoke test can feed them mismatched inputs.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "isolate_s": "s",
    "runs_per_s": "runs/s",
    "overhead_x": "ratio",
    "store_bytes_per_run": "B/run",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  A layer a workload
#: never enters reads 0.
PER_LAYER = {
    "instrument.build_s": "s",
    "subjects.generate_input_s": "s",
    "subjects.oracle_s": "s",
    "instrument.run_lifecycle_s": "s",
    "core.reports.add_run_s": "s",
    "core.reports.build_s": "s",
    "instrument.entry_s": "s",
    "subjects.body_s": "s",
    "instrument.helper_s": "s",
    "core.engine.analyze_reports_s": "s",
    "instrument.calls.branch": "count",
    "instrument.calls.ret": "count",
    "instrument.calls.pairs": "count",
    "instrument.opportunities": "count",
    "instrument.sampled_obs": "count",
    "instrument.sample_ratio": "ratio",
    "serve.encode_batch_s": "s",
    "serve.body_bytes_per_report": "B/report",
    "serve.ingest_body_s": "s",
    "serve.ingest_body_p50_ms": "ms",
    "serve.ingest_body_p95_ms": "ms",
    "serve.http_s": "s",
    "serve.decode_body_s": "s",
    "serve.validate_payload_s": "s",
    "store.append_shard_s": "s",
    "serve.steering_fit_s": "s",
    "serve.fsyncs_per_report": "count",
    "serve.bytes_written_per_report": "B/report",
    "serve.flush_s": "s",
    "core.engine.analyze_store_s": "s",
    "serve.close_s": "s",
    "post_p50_ms": "ms",
    "post_p95_ms": "ms",
    "post_count": "count",
    "core.engine.store_stats_s": "s",
    "core.engine.score_stats_s": "s",
    "store.load_merged_s": "s",
    "core.elimination.eliminate_s": "s",
    "core.pruning.kept": "count",
    "core.elimination.rounds": "count",
    "residual_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_x": "ratio",
    "failed_ratio": "ratio",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Samples a percentile needs beyond it before it is reported.
MIN_BEYOND = 10

#: Overhead blocks a workload cycles through, one after each timed pass.
PROBE_BLOCKS = 16


class PercentileError(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused without ``MIN_BEYOND`` samples above it."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    beyond = len(xs) - rank
    if not xs or beyond < MIN_BEYOND:
        raise PercentileError(
            f"p{q:g} of {len(xs)} samples has {max(beyond, 0)} beyond it; need {MIN_BEYOND}"
        )
    return xs[rank - 1]


# ----------------------------------------------------------------------
# Correctness gates: None when they hold, else why they fired.
# ----------------------------------------------------------------------
def ranked_digest(analysis) -> str:
    """SHA-256 over the ranked predictor list, floats to the last bit."""
    h = hashlib.sha256()
    h.update(repr((analysis.stats.num_failing, analysis.stats.num_successful)).encode())
    for s in analysis.elimination.selected:
        h.update(repr((
            s.rank, s.predicate.index, s.predicate.name,
            s.initial.importance, s.effective.importance,
            s.runs_discarded, s.failing_runs_covered,
        )).encode())
    return h.hexdigest()


def gate_same(label: str, values: Sequence[str]) -> Optional[str]:
    """Every value equal (ranked-list digests, set-up digests)."""
    distinct = sorted(set(values))
    if not values:
        return f"{label}: nothing to compare"
    if len(distinct) > 1:
        return f"{label}: {len(distinct)} distinct values {[d[:12] for d in distinct]}"
    return None


def gate_stats_equal(label: str, got, want) -> Optional[str]:
    """Two ``SufficientStats`` equal count for count."""
    import numpy as np

    for name in ("F", "S", "F_obs", "S_obs"):
        a, b = getattr(got, name), getattr(want, name)
        if a.shape != b.shape or not np.array_equal(a, b):
            return f"{label}: {name} differs"
    for name in ("num_failing", "num_successful"):
        if getattr(got, name) != getattr(want, name):
            return f"{label}: {name} {getattr(got, name)} != {getattr(want, name)}"
    return None


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    gates: List[Optional[str]]
    trace: Optional[dict] = None
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def gate_failures(self) -> List[str]:
        return [g for g in self.gates if g is not None]


class Setups:
    """A workload's set-ups: one before timing, the rest spread across the run.

    ``make()`` builds a state.  The first state is the one the passes use;
    :attr:`extra` holds ``times - 1`` callables for :func:`cycles` to run
    between passes, so the repeats see the same host phases as the timed
    passes instead of one stretch at the start.  Each extra state is
    reduced to its summary -- the digest, every timing (keys ending
    ``_s``) and the host-speed sample ``ref`` -- and dropped at once.
    """

    def __init__(self, make: Callable[[], dict], times: int) -> None:
        self.make = make
        self.summaries: List[dict] = []
        self.state = self._another()
        self.extra = [self._another] * (times - 1)

    def _another(self) -> dict:
        state = _fresh(lambda _: self.make(), 0)
        self.summaries.append(
            {k: v for k, v in state.items() if k in ("digest", "ref") or k.endswith("_s")})
        return state

    def median(self, key: str) -> float:
        """Median of one timing over the set-ups, as measured."""
        return statistics.median(s[key] for s in self.summaries)

    def scaled_median(self, key: str) -> float:
        """Median of one timing over the set-ups, each scaled to the reference host."""
        return statistics.median(scale_to_reference(s[key], s["ref"]) for s in self.summaries)

    def gate(self) -> Optional[str]:
        return gate_same("set-up determinism", [s["digest"] for s in self.summaries])


def _fresh(run_pass: Callable[[int], dict], k: int) -> dict:
    """One pass, after a full collection, between two host-speed samples.

    Every pass starts with empty young generations, so the garbage
    collections inside it fall at the same allocations each time instead
    of wherever the previous pass left the counters.  The result gains
    ``ref``: the mean of :func:`host_reference` just before and just after
    the pass.
    """
    gc.collect()
    before = host_reference()
    result = run_pass(k)
    result["ref"] = (before + host_reference()) / 2
    return result


def cycles(sets: int, run_pass: Callable[[int], dict], seconds: float,
           min_ops: int = 0, between: Sequence[Callable[[], None]] = ()) -> List[List[dict]]:
    """Run the input sets round-robin for ``seconds`` of timed wall.

    Only the passes' own walls count against ``seconds``: the probes,
    archive writes and set-ups between passes are not charged.  Every set
    runs at least once; passes then go on in the same order until the
    walls add up to ``seconds`` and ``min_ops`` operations ran.  A faster
    program therefore gets more repeats of the same inputs, never other
    inputs.  ``between`` holds callables (extra set-ups) run once each at
    even fractions of the budget.  One pass over set 0 runs first and is
    dropped, so lazy imports and cold caches are paid before timing
    starts.  Returns ``results[set][repeat]``.
    """
    run_pass(0)
    results: List[List[dict]] = [[] for _ in range(sets)]
    pending = list(between)
    slots = len(pending) + 1
    timed, ops, done = 0.0, 0, 0
    while done < sets or timed < seconds or ops < min_ops:
        result = run_pass(done % sets)
        results[done % sets].append(result)
        done += 1
        timed += result["wall"]
        ops += result.get("ops", 0)
        while pending and timed >= seconds * (slots - len(pending)) / slots:
            pending.pop(0)()
    for extra in pending:
        extra()
    return results


def measure_passes(sets: int, run_pass: Callable, seconds: float, trace: bool, tracer,
                   min_ops: int = 0, between: Sequence[Callable[[], None]] = ()):
    """The untraced passes, and the traced ones for the gates and the split.

    ``run_pass(k, tracer)`` runs set ``k``, traced when ``tracer`` is not
    None.  Without ``trace``, untraced passes fill ``seconds`` and one
    traced pass over set 0 follows, only for the gates.  With ``trace``,
    each set runs untraced and then traced, back to back, until the pairs
    fill ``seconds``, so both halves see the same host and their ratio is
    the cost of tracing.  Returns ``(untraced, traced)``, each
    ``[set][repeat]``.
    """
    def plain(k: int) -> dict:
        return _fresh(lambda j: run_pass(j, None), k)

    if not trace:
        untraced = cycles(sets, plain, seconds, min_ops, between)
        return untraced, [[_fresh(lambda k: run_pass(k, tracer), 0)]]

    def pair(k: int) -> dict:
        untraced = plain(k)
        traced = _fresh(lambda j: run_pass(j, tracer), k)
        return {"untraced": untraced, "traced": traced, "ops": untraced["ops"],
                "wall": untraced["wall"] + traced["wall"]}

    pairs = cycles(sets, pair, seconds, min_ops, between)
    return ([[p["untraced"] for p in reps] for reps in pairs],
            [[p["traced"] for p in reps] for reps in pairs])


def wall_of(results: List[List[dict]], scaled: bool = True) -> float:
    """Wall of one pass: each set's median over its repeats, averaged over sets.

    Each pass's wall is first scaled to the reference host by the
    :func:`host_reference` samples around it, unless ``scaled`` is false.
    The median over repeats keeps a burst of load from elsewhere on the
    host out; the mean over sets weighs every input set the seed drew
    once, however many repeats it got.
    """
    def wall(r: dict) -> float:
        return scale_to_reference(r["wall"], r["ref"]) if scaled else r["wall"]

    return statistics.fmean(statistics.median(wall(r) for r in reps) for reps in results)


def host_notes(passes: Sequence[dict], setups: "Setups") -> Dict[str, float]:
    """The run's walls as measured, and the host speed they were scaled by."""
    refs = [r["ref"] for r in passes] + [s["ref"] for s in setups.summaries]
    return {
        "isolate_wall_s": statistics.median(r["wall"] for r in passes),
        "setup_wall_s": setups.median("setup_s"),
        "host_reference_ms": 1000 * statistics.median(refs),
        "host_speed": REFERENCE_S / statistics.median(refs),
    }


def layer_medians(breakdowns: list) -> Dict[str, float]:
    """Median per-pass self time for each span name (0 when a pass lacked it)."""
    names = {n for b in breakdowns for n in b.self_s}
    return {n: statistics.median(b.self_s.get(n, 0.0) for b in breakdowns) for n in names}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds :func:`host_reference` reads on the 2-vCPU guest this was
#: built on when nothing else on the host slows it.
REFERENCE_S = 0.008


def _reference_loop() -> int:
    """Fixed pure-Python work, independent of the program under test."""
    counts: Dict[int, int] = {}
    kept: List[int] = []
    total = 0
    for i in range(30000):
        key = i * 7919 % 1021
        counts[key] = counts.get(key, 0) + 1
        if key & 1:
            kept.append(key)
        else:
            total += len(str(key))
    kept.sort()
    return total + len(kept) + len(counts)


def host_reference() -> float:
    """How fast the host runs Python right now: median wall of three reference loops.

    On a shared host the same pass can take twice as long in phases
    lasting up to minutes, and this loop slows with it (see NOTES.md).
    """
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def scale_to_reference(wall: float, reference: float) -> float:
    """``wall`` scaled to the reference host: as if ``host_reference`` read ``REFERENCE_S``."""
    return wall * REFERENCE_S / reference


# ----------------------------------------------------------------------
# The uninstrumented twin and the overhead probe
# ----------------------------------------------------------------------
def plain_entry(subject) -> Callable:
    """The subject's entry compiled from its source without the transform."""
    if getattr(subject, "kind", "builtin") == "factory":
        from repro.factory.loader import pristine_namespace

        return pristine_namespace(subject.package, subject.modules())[subject.entry]
    namespace = {"__name__": f"{subject.name}_plain"}
    exec(compile(subject.source(), f"<plain:{subject.name}>", "exec"), namespace)  # noqa: S102
    return namespace[subject.entry]


def trial_input(subject, trial_seed: int):
    """The input of trial ``trial_seed``, derived as ``run_one_trial`` derives it."""
    return subject.generate_input(random.Random(trial_seed * 2654435761 % (2 ** 31)))


def time_entry(fn: Callable, program_input) -> float:
    """Wall of one entry call; a crash (a seeded bug firing) still counts."""
    from repro.subjects import base as subject_base

    subject_base.begin_truth_capture()
    start = time.perf_counter()
    try:
        fn(program_input)
    except Exception:
        pass
    wall = time.perf_counter() - start
    subject_base.end_truth_capture()
    return wall


def overhead_block(subject, program, plain: Callable, plan,
                   trial_seeds: Sequence[int]) -> Tuple[float, float]:
    """Instrumented and plain entry seconds over the same trials' inputs.

    Each trial's input is generated twice (the entry may mutate it), the
    instrumented run samples as that trial did in ``run_one_trial``, and
    the two variants alternate which runs first.  Returns
    ``(instrumented_s, plain_s)``.
    """
    entry = program.func(subject.entry)
    instrumented = uninstrumented = 0.0
    for i, seed in enumerate(trial_seeds):
        for variant in ((0, 1) if i % 2 == 0 else (1, 0)):
            program_input = trial_input(subject, seed)
            if variant == 0:
                program.begin_run(plan, seed=seed + 1)
                instrumented += time_entry(entry, program_input)
                program.end_run()
            else:
                uninstrumented += time_entry(plain, program_input)
    return instrumented, uninstrumented


def next_overhead_block(state: dict, first_seed: int, size: int) -> float:
    """The overhead ratio on the next of ``PROBE_BLOCKS`` fixed blocks of trials.

    A workload runs one block after each timed pass, outside its wall, and
    reports the median ratio, so the ratio samples the host across the
    whole run.  ``state`` carries the workload's ``subject``, ``program``,
    ``plain`` twin, ``plan`` and a ``blocks_run`` counter; block ``k``
    covers the trial seeds ``first_seed + k * size`` onwards.
    """
    k = state["blocks_run"] % PROBE_BLOCKS
    state["blocks_run"] += 1
    seeds = range(first_seed + k * size, first_seed + (k + 1) * size)
    instrumented, plain = overhead_block(
        state["subject"], state["program"], state["plain"], state["plan"], seeds)
    return instrumented / plain


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_written() -> int:
    """``wchar`` of this process from ``/proc/self/io`` (0 where absent)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _git_commit(root: str) -> Optional[str]:
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(root):
        return None
    return top[1]


def _tree_digest(src: str) -> str:
    """SHA-256 over the program's Python sources, path and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    h.update(hashlib.sha256(handle.read()).digest())
    return h.hexdigest()


def stamp(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Where and on what a result was measured."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256": _tree_digest(os.path.join(root, "src")),
    }
