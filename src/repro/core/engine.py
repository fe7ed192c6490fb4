"""The streaming analysis engine behind ``analyze``.

One serial pipeline, in four stages:

1. **stream** -- the six sufficient statistics (``F``, ``S``, ``F_obs``,
   ``S_obs``, ``NumF``, ``NumS``) are integer sums over runs, so a shard
   store is scored by adding its shards' embedded statistics one at a
   time (:meth:`ShardStore.sufficient_stats
   <repro.store.shards.ShardStore.sufficient_stats>`); no run matrix is
   materialised;
2. **score** -- every score, p-value and measure value is an elementwise
   function of one predicate's statistics
   (:func:`repro.core.scores.scores_from_counts`);
3. **prune** -- the ``Increase > 0`` filter
   (:func:`repro.core.pruning.prune_mask`);
4. **eliminate** -- the iterative loop over the materialised population
   (each round depends on the previous round's discards), on persistent
   run-membership bitsets with ties broken by predicate index.

Determinism contract
--------------------

Integer addition is associative and commutative, so any shard layout,
any order of stores and any merge order reproduces the monolithic counts
*exactly*, and every float downstream is a function of those counts.
``tests/core/test_engine_differential.py`` enforces this bitwise on all
five subjects, shard layouts {1, 3, 7} and every discard strategy.

There is no worker pool: on a 2-CPU host, forked workers lost to this
path at every stage on stores up to 32,000 runs (see
``docs/ALGORITHM.md`` §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.elimination import DiscardStrategy, EliminationResult, eliminate
from repro.core.measures import DEFAULT_MEASURE, get as get_measure
from repro.core.pruning import PruningResult, prune_mask
from repro.core.reports import ReportSet
from repro.core.scores import (
    DEFAULT_CONFIDENCE,
    PredicateScores,
    scores_from_counts,
    z_test_pvalues,
)
from repro.core.truth import GroundTruth
from repro.obs import (
    enabled as _obs_enabled,
    gauge as _obs_gauge,
    span as _obs_span,
)
from repro.store.incremental import SufficientStats
from repro.store.shards import sum_entry_stats


@dataclass
class EngineScoring:
    """Scoring-stage output: full-table scores, p-values and pruning.

    ``measure`` names the suspiciousness measure this pass scored under
    (``"importance"`` unless a consumer asked otherwise) and
    ``measure_values`` holds its per-predicate values.
    """

    scores: PredicateScores
    pvalues: np.ndarray
    pruning: PruningResult
    measure: str = DEFAULT_MEASURE
    measure_values: Optional[np.ndarray] = None


@dataclass
class EngineAnalysis:
    """One complete ``analyze`` pass through the engine.

    Attributes:
        stats: Population sufficient statistics.
        scores: Full-table :class:`~repro.core.scores.PredicateScores`.
        pvalues: One-sided z-test p-values per predicate.
        pruning: The ``Increase > 0`` filter outcome.
        elimination: Ranked predictors, or ``None`` for stats-only runs.
        reports: The materialised population (elimination needs run-level
            data), or ``None`` for stats-only runs.
        truth: Ground truth when every shard carried it.
        measure: Name of the suspiciousness measure scored under.
        measure_values: Per-predicate values of that measure.
    """

    stats: SufficientStats
    scores: PredicateScores
    pvalues: np.ndarray
    pruning: PruningResult
    elimination: Optional[EliminationResult] = None
    reports: Optional[ReportSet] = None
    truth: Optional[GroundTruth] = None
    measure: str = DEFAULT_MEASURE
    measure_values: Optional[np.ndarray] = None


class AnalysisEngine:
    """Serial analysis: stream, score, prune and eliminate.

    ``jobs`` is accepted for callers written against the former worker
    pool, but only ``1`` is valid.
    """

    def __init__(self, jobs: int = 1, confidence: float = DEFAULT_CONFIDENCE) -> None:
        if jobs != 1:
            raise ValueError(f"jobs must be 1 (analysis runs serially), got {jobs}")
        self.confidence = confidence

    # ------------------------------------------------------------------
    # Stage 1: sufficient statistics
    # ------------------------------------------------------------------
    def store_stats(self, store) -> SufficientStats:
        """Stream a shard store's statistics, shard by shard."""
        with _obs_span("engine.stream_stats", shards=store.n_shards):
            return store.sufficient_stats()

    def multi_store_stats(self, stores) -> SufficientStats:
        """Stream several stores' statistics as one population.

        The federation analysis entry point: integer sufficient
        statistics add exactly across stores, so summing N daemon-owned
        stores is bit-identical to summing the one store a federated
        merge of them would produce -- without materialising that merge.
        All stores must share a predicate table (same ``table_sha``);
        anything else would mis-attribute counters.
        """
        stores = list(stores)
        if not stores:
            raise ValueError("need at least one store")
        table_sha = stores[0].manifest.table_sha
        for store in stores[1:]:
            if store.manifest.table_sha != table_sha:
                raise ValueError(
                    f"store {store.directory} has predicate table "
                    f"{store.manifest.table_sha[:12]}..., expected "
                    f"{table_sha[:12]}...; cannot sum statistics across tables"
                )
        shards = [
            (store.directory, entry, table_sha)
            for store in stores
            for entry in store.manifest.shards
        ]
        with _obs_span(
            "engine.stream_multi_stats", stores=len(stores), shards=len(shards)
        ):
            return sum_entry_stats(shards)

    def federated_scores(self, stores, measure: str = DEFAULT_MEASURE) -> EngineScoring:
        """Score N stores as one population (see :meth:`multi_store_stats`).

        ``measure`` selects any registered suspiciousness measure; the
        federated values are bit-identical to scoring the equivalent
        single store because measures are elementwise over the summed
        sufficient statistics.
        """
        return self.score_stats(self.multi_store_stats(stores), measure=measure)

    # ------------------------------------------------------------------
    # Stages 2 and 3: scores, p-values, pruning
    # ------------------------------------------------------------------
    def score_stats(
        self,
        stats: SufficientStats,
        method: str = "interval",
        min_true_runs: int = 1,
        measure: str = DEFAULT_MEASURE,
    ) -> EngineScoring:
        """Score and prune the population from its sufficient statistics.

        ``measure`` names a registered suspiciousness measure
        (:mod:`repro.core.measures`); unknown names raise
        :class:`~repro.core.measures.UnknownMeasureError` before any
        scoring work.
        """
        scorer = get_measure(measure)
        scores = scores_from_counts(
            stats.F,
            stats.S,
            stats.F_obs,
            stats.S_obs,
            stats.num_failing,
            stats.num_successful,
            confidence=self.confidence,
        )
        kept = prune_mask(
            scores,
            confidence=self.confidence,
            min_true_runs=min_true_runs,
            method=method,
        )
        pruning = PruningResult(kept=kept, scores=scores)
        if _obs_enabled():
            _obs_gauge("analysis.pruning_initial", float(pruning.n_initial))
            _obs_gauge("analysis.pruning_kept", float(pruning.n_kept))
        return EngineScoring(
            scores=scores,
            pvalues=z_test_pvalues(scores),
            pruning=pruning,
            measure=measure,
            measure_values=scorer.values(scores),
        )

    # ------------------------------------------------------------------
    # End-to-end analyses (stage 4 needs the run-level population)
    # ------------------------------------------------------------------
    def analyze_store(
        self,
        store,
        method: str = "interval",
        strategy: DiscardStrategy = DiscardStrategy.DISCARD_ALL,
        max_predictors: Optional[int] = None,
        min_importance: float = 0.0,
        stats_only: bool = False,
        min_true_runs: int = 1,
        measure: str = DEFAULT_MEASURE,
    ) -> EngineAnalysis:
        """Analyse a shard store: stream, score, prune, (then eliminate).

        Elimination needs run-level data (each round discards runs), so
        unless ``stats_only`` the merged population is materialised for
        the elimination loop; each round costs only a few sparse matvecs
        over the persistent bitsets.

        ``measure`` selects the suspiciousness measure carried on the
        result (and used by consumers to rank statistics); the iterative
        elimination loop itself always follows the paper's Importance,
        per Section 3.3.
        """
        with _obs_span("engine.analyze", store=store.directory):
            stats = self.store_stats(store)
            scoring = self.score_stats(
                stats, method=method, min_true_runs=min_true_runs, measure=measure
            )
            if stats_only:
                return _analysis(stats, scoring)
            reports, truth = store.load_merged()
            elimination = self._eliminate(
                reports, scoring, strategy, max_predictors, min_importance
            )
            return _analysis(stats, scoring, elimination, reports, truth)

    def analyze_reports(
        self,
        reports: ReportSet,
        truth: Optional[GroundTruth] = None,
        method: str = "interval",
        strategy: DiscardStrategy = DiscardStrategy.DISCARD_ALL,
        max_predictors: Optional[int] = None,
        min_importance: float = 0.0,
        stats_only: bool = False,
        min_true_runs: int = 1,
        measure: str = DEFAULT_MEASURE,
    ) -> EngineAnalysis:
        """Analyse an in-memory population (a ``run --save`` archive).

        The counting pass is two matvecs over the run matrices; scoring,
        pruning and elimination then run exactly as in
        :meth:`analyze_store` (including the selected suspiciousness
        ``measure``).
        """
        with _obs_span("engine.analyze", runs=reports.n_runs):
            stats = SufficientStats.from_reports(reports)
            scoring = self.score_stats(
                stats, method=method, min_true_runs=min_true_runs, measure=measure
            )
            elimination = None
            if not stats_only:
                elimination = self._eliminate(
                    reports, scoring, strategy, max_predictors, min_importance
                )
            return _analysis(stats, scoring, elimination, reports, truth)

    def _eliminate(
        self,
        reports: ReportSet,
        scoring: EngineScoring,
        strategy: DiscardStrategy,
        max_predictors: Optional[int],
        min_importance: float,
    ) -> EliminationResult:
        """Stage 4: rank the pruning survivors by iterative elimination."""
        return eliminate(
            reports,
            candidates=scoring.pruning.kept,
            strategy=strategy,
            confidence=self.confidence,
            max_predictors=max_predictors,
            min_importance=min_importance,
        )


def _analysis(
    stats: SufficientStats,
    scoring: EngineScoring,
    elimination: Optional[EliminationResult] = None,
    reports: Optional[ReportSet] = None,
    truth: Optional[GroundTruth] = None,
) -> EngineAnalysis:
    """Assemble one pass's result from its stage outputs."""
    return EngineAnalysis(
        stats=stats,
        scores=scoring.scores,
        pvalues=scoring.pvalues,
        pruning=scoring.pruning,
        elimination=elimination,
        reports=reports,
        truth=truth,
        measure=scoring.measure,
        measure_values=scoring.measure_values,
    )
