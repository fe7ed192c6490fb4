"""Differential suite: ``analyze`` is bit-identical across shard layouts.

The engine's contract (``repro/core/engine.py``) is that the shard
layout and discard strategy never change a single output bit against
the monolithic computation over the same population:

* sufficient statistics -- integer equality across shard layouts
  {1, 3, 7}, for all five subjects;
* scores, p-values, pruning -- *bitwise* float equality (``tobytes``,
  not ``allclose``) against scoring the in-memory population;
* elimination rankings -- identical predictor sequences, importances and
  populations under every discard strategy, with Importance ties
  resolving in predicate-index order;
* the CLI -- byte-identical stdout over a 1-shard and a 7-shard store.

These tests are the enforcement arm of the determinism contract
documented in ``docs/ALGORITHM.md``; weakening any equality here to a
tolerance is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.engine import AnalysisEngine
from repro.core.elimination import DiscardStrategy, eliminate
from repro.core.pruning import prune_mask
from repro.core.scores import compute_scores, z_test_pvalues
from repro.core.truth import bugs_covered
from repro.instrument.sampling import SamplingPlan
from repro.store import ShardStore
from repro.store.incremental import SufficientStats

from tests.helpers import make_reports, partition_bounds

#: Session-scoped experiment fixtures covering all five paper subjects.
SUBJECT_FIXTURES = [
    "moss_experiment",
    "ccrypt_experiment",
    "bc_experiment",
    "exif_experiment",
    "rhythmbox_experiment",
]

SHARD_LAYOUTS = (1, 3, 7)

#: Per-predicate float arrays of PredicateScores, all compared bitwise.
_SCORE_FIELDS = (
    "F",
    "S",
    "F_obs",
    "S_obs",
    "failure",
    "context",
    "increase",
    "increase_se",
    "increase_lo",
    "increase_hi",
    "pf",
    "ps",
    "z",
    "z_defined",
    "defined",
)


def _build_store(directory, experiment, n_shards):
    """Shard an experiment's population into ``n_shards`` contiguous parts."""
    reports, truth = experiment.reports, experiment.truth
    store = ShardStore.create(
        str(directory), "differential", reports.table, SamplingPlan.full()
    )
    for lo, hi in partition_bounds(reports.n_runs, n_shards):
        mask = np.zeros(reports.n_runs, dtype=bool)
        mask[lo:hi] = True
        store.append_shard(
            reports.subset(mask), truth=truth.subset(mask), seed_start=lo
        )
    return ShardStore.open(store.directory)


@pytest.fixture(scope="module")
def sharded_stores(tmp_path_factory):
    """Lazy per-subject cache of stores at every shard layout."""
    cache = {}

    def get(request, fixture_name):
        if fixture_name not in cache:
            experiment = request.getfixturevalue(fixture_name)
            base = tmp_path_factory.mktemp(fixture_name)
            cache[fixture_name] = {
                k: _build_store(base / f"shards-{k}", experiment, k)
                for k in SHARD_LAYOUTS
            }
        return cache[fixture_name]

    return get


def _assert_scores_bitwise_equal(got, want):
    for field in _SCORE_FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.num_failing == want.num_failing
    assert got.num_successful == want.num_successful


def _assert_stats_equal(got, want):
    for field in ("F", "S", "F_obs", "S_obs"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got.num_failing == want.num_failing
    assert got.num_successful == want.num_successful


@pytest.mark.parametrize("subject_fixture", SUBJECT_FIXTURES)
class TestScoresBitIdentical:
    def test_stats_scores_and_pruning(self, request, sharded_stores, subject_fixture):
        """Every shard layout: statistics, scores and pruned sets match
        the monolithic population bit for bit."""
        reports = request.getfixturevalue(subject_fixture).reports
        reference = SufficientStats.from_reports(reports)
        ref_scores = compute_scores(reports)
        ref_kept = prune_mask(ref_scores)
        engine = AnalysisEngine()
        for store in sharded_stores(request, subject_fixture).values():
            stats = engine.store_stats(store)
            _assert_stats_equal(stats, reference)
            scoring = engine.score_stats(stats)
            _assert_scores_bitwise_equal(scoring.scores, ref_scores)
            np.testing.assert_array_equal(scoring.pruning.kept, ref_kept)

    def test_pvalues_bitwise(self, request, sharded_stores, subject_fixture):
        """The z-test p-values of every shard layout match bitwise."""
        reports = request.getfixturevalue(subject_fixture).reports
        reference = z_test_pvalues(compute_scores(reports))
        engine = AnalysisEngine()
        for store in sharded_stores(request, subject_fixture).values():
            scoring = engine.score_stats(engine.store_stats(store))
            assert scoring.pvalues.tobytes() == reference.tobytes()


@pytest.mark.parametrize("subject_fixture", SUBJECT_FIXTURES)
@pytest.mark.parametrize("strategy", list(DiscardStrategy))
class TestEliminationBitIdentical:
    def test_rankings_match_serial(
        self, request, sharded_stores, subject_fixture, strategy
    ):
        """End-to-end analyze over every shard layout reproduces the
        in-memory elimination ranking exactly -- order, importances,
        populations."""
        reports = request.getfixturevalue(subject_fixture).reports
        reference = eliminate(
            reports,
            candidates=prune_mask(compute_scores(reports)),
            strategy=strategy,
            max_predictors=6,
        )
        for store in sharded_stores(request, subject_fixture).values():
            analysis = AnalysisEngine().analyze_store(
                store, strategy=strategy, max_predictors=6
            )
            got = analysis.elimination
            assert [s.predicate.index for s in got.selected] == [
                s.predicate.index for s in reference.selected
            ]
            for g, r in zip(got.selected, reference.selected):
                assert g.rank == r.rank
                assert g.predicate.index == r.predicate.index
                for phase in ("initial", "effective"):
                    gs, rs = getattr(g, phase), getattr(r, phase)
                    assert gs.importance == rs.importance
                    assert gs.importance_lo == rs.importance_lo
                    assert gs.importance_hi == rs.importance_hi
                    assert gs.num_failing == rs.num_failing
                assert g.runs_discarded == r.runs_discarded
                assert g.failing_runs_covered == r.failing_runs_covered
            assert got.iterations == reference.iterations
            assert got.remaining_failing == reference.remaining_failing


class TestCliStdoutIdentical:
    def _stdout(self, capsys, store, *flags):
        code = cli_main(["analyze", store.directory, "--no-audit", *flags])
        assert code == 0
        return capsys.readouterr().out

    def test_shard_layout_does_not_change_output(
        self, request, sharded_stores, capsys
    ):
        """``analyze`` prints byte-identical stdout over 1 and 7 shards."""
        stores = sharded_stores(request, "ccrypt_experiment")
        assert self._stdout(capsys, stores[1]) == self._stdout(capsys, stores[7])

    def test_stats_only_identical(self, request, sharded_stores, capsys):
        stores = sharded_stores(request, "bc_experiment")
        assert self._stdout(capsys, stores[1], "--stats-only") == self._stdout(
            capsys, stores[3], "--stats-only"
        )


class TestTieDeterminism:
    """Importance ties resolve by predicate index -- in memory and sharded."""

    def _tied_reports(self):
        # P1 and P3 are true in exactly the same runs (perfectly
        # correlated duplicates), so their Importance is identical; P0
        # and P2 are weaker noise.  The engine must select the lower
        # index (1) first over any shard layout.  The pattern repeats so
        # the Increase interval clears zero and survives pruning.
        runs = [
            (True, {1, 3}, None),
            (True, {1, 3}, None),
            (True, {1, 3, 0}, None),
            (True, {2}, None),
            (False, {0}, None),
            (False, {2}, None),
            (False, set(), None),
            (False, set(), None),
        ] * 5
        return make_reports(4, runs)

    def test_serial_selects_lowest_index(self):
        reports = self._tied_reports()
        result = eliminate(reports, max_predictors=2)
        assert result.selected[0].predicate.index == 1

    def test_parallel_matches_serial_under_ties(self, tmp_path):
        """A 3-shard store ranks the tie exactly like the in-memory run."""
        reports = self._tied_reports()
        store = ShardStore.create(
            str(tmp_path / "tied"), "tied", reports.table, SamplingPlan.full()
        )
        for lo, hi in partition_bounds(reports.n_runs, 3):
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(reports.subset(mask), seed_start=lo)
        store = ShardStore.open(store.directory)
        sharded = AnalysisEngine().analyze_store(store).elimination
        in_memory = AnalysisEngine().analyze_reports(reports).elimination
        picks = [s.predicate.index for s in sharded.selected]
        assert picks[0] == 1
        assert picks == [s.predicate.index for s in in_memory.selected]


class TestLemma31ThroughEngine:
    def test_every_intersecting_bug_covered(self, tmp_path):
        """Lemma 3.1 holds through the sharded store path: every bug
        whose profile intersects the predicated runs gets a predictor."""
        from repro.core.truth import GroundTruth

        # Two disjoint bugs, each with a faithful predictor, plus noise;
        # the pattern repeats so both predictors survive pruning.
        runs = [
            (True, {0}, None),
            (True, {0}, None),
            (True, {0, 2}, None),
            (True, {1}, None),
            (True, {1, 2}, None),
            (False, {2}, None),
            (False, set(), None),
            (False, {2}, None),
        ] * 5
        reports = make_reports(3, runs)
        truth = GroundTruth(bug_ids=["bug-a", "bug-b"])
        bug_of_run = [
            ["bug-a"], ["bug-a"], ["bug-a"], ["bug-b"], ["bug-b"], [], [], []
        ] * 5
        for bugs in bug_of_run:
            truth.add_run(bugs)
        store = ShardStore.create(
            str(tmp_path / "lemma"), "lemma", reports.table, SamplingPlan.full()
        )
        for lo, hi in partition_bounds(reports.n_runs, 2):
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(
                reports.subset(mask), truth=truth.subset(mask), seed_start=lo
            )
        store = ShardStore.open(store.directory)
        analysis = AnalysisEngine().analyze_store(store)
        selected = [s.predicate.index for s in analysis.elimination.selected]
        covered = bugs_covered(analysis.reports, analysis.truth, selected)
        assert set(covered) == {"bug-a", "bug-b"}


class TestEngineUnit:
    """Direct engine coverage: shard-layout cuts, errors, edge cases."""

    def test_partition_bounds_cover_exactly(self):
        for n in (0, 1, 2, 5, 17, 100):
            for parts in (1, 2, 3, 7, 150):
                bounds = partition_bounds(n, parts)
                assert len(bounds) == min(max(parts, 1), n) if n else bounds == []
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(n))
                assert all(hi > lo for lo, hi in bounds)

    def test_partition_bounds_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            partition_bounds(-1, 2)

    def test_engine_rejects_bad_jobs(self):
        for jobs in (0, 2, 4):
            with pytest.raises(ValueError, match="jobs"):
                AnalysisEngine(jobs=jobs)
        assert AnalysisEngine(jobs=1).confidence == AnalysisEngine().confidence

    def test_multi_store_stats_sums_stores(self, tmp_path):
        """Two stores stream as one population; mixed tables are refused."""
        reports = make_reports(
            3, [(True, {0}, None), (False, {1}, None), (True, {2}, None)]
        )
        stores = []
        for name, (lo, hi) in zip("ab", partition_bounds(reports.n_runs, 2)):
            store = ShardStore.create(
                str(tmp_path / name), "multi", reports.table, SamplingPlan.full()
            )
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(reports.subset(mask), seed_start=lo)
            stores.append(ShardStore.open(store.directory))
        engine = AnalysisEngine()
        _assert_stats_equal(
            engine.multi_store_stats(stores), SufficientStats.from_reports(reports)
        )
        _assert_scores_bitwise_equal(
            engine.federated_scores(stores).scores, compute_scores(reports)
        )
        with pytest.raises(ValueError, match="at least one store"):
            engine.multi_store_stats([])
        other = make_reports(4, [(True, {0}, None)])
        foreign = ShardStore.create(
            str(tmp_path / "c"), "multi", other.table, SamplingPlan.full()
        )
        with pytest.raises(ValueError, match="predicate table"):
            engine.multi_store_stats(stores + [foreign])

    def test_empty_store_rejected(self, tmp_path):
        reports = make_reports(2, [(True, {0}, None)])
        store = ShardStore.create(
            str(tmp_path / "empty"), "empty", reports.table, SamplingPlan.full()
        )
        with pytest.raises(ValueError, match="empty shard store"):
            AnalysisEngine().store_stats(store)

    def test_analyze_reports_stats_only(self):
        reports = make_reports(
            3, [(True, {0}, None), (True, {0, 1}, None), (False, {2}, None)]
        )
        analysis = AnalysisEngine().analyze_reports(reports, stats_only=True)
        assert analysis.elimination is None
        reference = compute_scores(reports)
        _assert_scores_bitwise_equal(analysis.scores, reference)

    def test_corruption_surfaces_from_workers(self, tmp_path):
        """A damaged shard raises a typed error naming the shard."""
        from repro.store.errors import StoreError

        reports = make_reports(
            3, [(True, {0}, None), (False, {1}, None), (False, {2}, None)]
        )
        store = ShardStore.create(
            str(tmp_path / "dmg"), "dmg", reports.table, SamplingPlan.full()
        )
        for lo, hi in partition_bounds(reports.n_runs, 3):
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(reports.subset(mask), seed_start=lo)
        store = ShardStore.open(store.directory)
        victim = store.shard_paths()[1]
        with open(victim, "r+b") as fh:
            fh.seek(30)
            fh.write(b"\xff\xff\xff\xff")
        with pytest.raises(StoreError) as exc_info:
            AnalysisEngine().store_stats(store)
        assert "shard" in str(exc_info.value)
