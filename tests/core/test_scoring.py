"""Unit tests for the alpha trade-off scoring."""

import pytest

from repro.core.scoring import ScoreWeights, best_candidate_index, score_candidates


class TestScoreWeights:
    def test_weights_sum_to_one(self):
        weights = ScoreWeights(0.7)
        assert weights.energy_weight + weights.time_weight == pytest.approx(1.0)
        assert weights.energy_weight == 0.7

    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError):
            ScoreWeights(alpha)

    def test_describe_matches_paper_naming(self):
        assert ScoreWeights(0.5).describe() == "PA-0.5"
        assert ScoreWeights(1.0).describe() == "PA-1"
        assert ScoreWeights(0.0).describe() == "PA-0"


class TestScoreCandidates:
    def test_alpha_one_ranks_by_energy(self):
        candidates = [(100.0, 500.0), (900.0, 100.0)]
        scores = score_candidates(candidates, ScoreWeights(1.0))
        assert scores[1] < scores[0]

    def test_alpha_zero_ranks_by_time(self):
        candidates = [(100.0, 500.0), (900.0, 100.0)]
        scores = score_candidates(candidates, ScoreWeights(0.0))
        assert scores[0] < scores[1]

    def test_balanced_blends(self):
        # Candidate dominating on both dimensions always wins.
        candidates = [(100.0, 100.0), (200.0, 200.0)]
        scores = score_candidates(candidates, ScoreWeights(0.5))
        assert scores[0] < scores[1]

    def test_normalization_relative_to_max(self):
        scores = score_candidates([(50.0, 50.0), (100.0, 100.0)], ScoreWeights(0.5))
        assert scores[1] == pytest.approx(1.0)
        assert scores[0] == pytest.approx(0.5)

    def test_degenerate_dimension_ignored(self):
        scores = score_candidates([(0.0, 10.0), (0.0, 20.0)], ScoreWeights(0.5))
        assert scores[0] < scores[1]

    def test_zero_time_pool_scores_by_energy_only(self):
        # All-zero time dimension: t_hat is defined as 0 for everyone,
        # so the score collapses to the weighted energy term.
        scores = score_candidates([(0.0, 50.0), (0.0, 100.0)], ScoreWeights(0.5))
        assert scores == [0.5 * 0.5, 0.5 * 1.0]

    def test_zero_energy_pool_scores_by_time_only(self):
        scores = score_candidates([(40.0, 0.0), (80.0, 0.0)], ScoreWeights(0.25))
        assert scores == [0.75 * 0.5, 0.75 * 1.0]

    def test_all_zero_pool_scores_zero(self):
        assert score_candidates([(0.0, 0.0), (0.0, 0.0)], ScoreWeights(0.5)) == [
            0.0,
            0.0,
        ]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_candidates([], ScoreWeights(0.5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            score_candidates([(-1.0, 5.0)], ScoreWeights(0.5))


class TestExplicitMaxima:
    def test_explicit_maxima_override_pool_maxima(self):
        # The streamed allocator normalizes a Pareto subset by the full
        # pool's maxima; scores must match scoring the full pool.
        full = [(100.0, 100.0), (50.0, 80.0), (80.0, 50.0)]
        weights = ScoreWeights(0.5)
        full_scores = score_candidates(full, weights)
        subset = full[1:]
        subset_scores = score_candidates(subset, weights, maxima=(100.0, 100.0))
        assert subset_scores == full_scores[1:]

    def test_zero_maxima_degenerate(self):
        scores = score_candidates([(10.0, 20.0)], ScoreWeights(0.5), maxima=(0.0, 40.0))
        assert scores == [0.5 * 0.5]

    def test_negative_maxima_rejected(self):
        with pytest.raises(ValueError):
            score_candidates([(1.0, 1.0)], ScoreWeights(0.5), maxima=(-1.0, 1.0))


class TestTieEpsilon:
    def test_sub_epsilon_improvement_keeps_first(self):
        # A later candidate better by less than 1e-12 is treated as a
        # tie; the earliest-enumerated candidate must win.
        base = 1.0
        nearly = 1.0 - 1e-14
        assert best_candidate_index([base, nearly]) == 0

    def test_above_epsilon_improvement_moves_best(self):
        base = 1.0
        clearly = 1.0 - 1e-9
        assert best_candidate_index([base, clearly]) == 1


class TestBestCandidateIndex:
    def test_picks_minimum(self):
        assert best_candidate_index([1.0, 1 / 3, 2 / 3]) == 1

    def test_tie_breaks_to_first(self):
        # "If two partitions have the same rank ... we select the first
        # server of the list."
        assert best_candidate_index([0.5, 0.5]) == 0
