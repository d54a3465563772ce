"""Tests for the paired bootstrap of a KPI difference."""

import numpy as np
import pytest

from repro.core.random_items import RandomItems
from repro.errors import EvaluationError
from repro.eval.bootstrap import SUPPORTED_METRICS, paired_bootstrap_difference
from repro.eval.evaluator import evaluate_model, fit_and_evaluate


@pytest.fixture(scope="module")
def bpr_eval(tiny_bpr, tiny_split):
    return evaluate_model(tiny_bpr, tiny_split, ks=(20,))


@pytest.fixture(scope="module")
def random_eval(tiny_split, tiny_merged):
    return fit_and_evaluate(
        RandomItems(seed=0), tiny_split, tiny_merged, ks=(20,)
    )


class TestBootstrapMetric:
    """What every metric shares: its per-user values and their checks."""

    def test_estimate_matches_kpi(self, bpr_eval, random_eval):
        first, second = bpr_eval.report(20), random_eval.report(20)
        for metric in SUPPORTED_METRICS:
            comparison = paired_bootstrap_difference(
                bpr_eval, random_eval, metric, 20, seed=1
            )
            expected = getattr(first, metric) - getattr(second, metric)
            assert comparison.difference == pytest.approx(expected), metric

    def test_interval_brackets_estimate(self, bpr_eval, random_eval):
        for metric in SUPPORTED_METRICS:
            comparison = paired_bootstrap_difference(
                bpr_eval, random_eval, metric, 20, seed=1
            )
            assert comparison.low <= comparison.difference <= comparison.high, metric

    def test_wider_confidence_wider_interval(self, bpr_eval, random_eval):
        narrow = paired_bootstrap_difference(
            bpr_eval, random_eval, "urr", 20, confidence=0.5, seed=1
        )
        wide = paired_bootstrap_difference(
            bpr_eval, random_eval, "urr", 20, confidence=0.99, seed=1
        )
        assert (wide.high - wide.low) >= (narrow.high - narrow.low)

    def test_deterministic_given_seed(self, bpr_eval, random_eval):
        a = paired_bootstrap_difference(bpr_eval, random_eval, "urr", 20, seed=5)
        b = paired_bootstrap_difference(bpr_eval, random_eval, "urr", 20, seed=5)
        assert (a.low, a.high) == (b.low, b.high)

    def test_str(self, bpr_eval, random_eval):
        text = str(
            paired_bootstrap_difference(bpr_eval, random_eval, "urr", 20, seed=1)
        )
        assert f"{bpr_eval.model_name} - {random_eval.model_name} on urr" in text
        assert "@95%" in text

    def test_unknown_metric(self, bpr_eval):
        with pytest.raises(EvaluationError, match="unsupported metric"):
            paired_bootstrap_difference(bpr_eval, bpr_eval, "ndcg", 20)

    def test_missing_k(self, bpr_eval):
        with pytest.raises(EvaluationError, match="no hits"):
            paired_bootstrap_difference(bpr_eval, bpr_eval, "urr", 7)


class TestPairedBootstrap:
    def test_bpr_beats_random_significantly(self, bpr_eval, random_eval):
        comparison = paired_bootstrap_difference(
            bpr_eval, random_eval, "nrr", 20, seed=1
        )
        assert comparison.difference > 0
        assert comparison.significant
        assert "significant" in str(comparison)

    def test_self_comparison_is_null(self, bpr_eval):
        comparison = paired_bootstrap_difference(
            bpr_eval, bpr_eval, "urr", 20, seed=1
        )
        assert comparison.difference == 0.0
        assert not comparison.significant

    def test_difference_matches_kpis(self, bpr_eval, random_eval):
        comparison = paired_bootstrap_difference(
            bpr_eval, random_eval, "urr", 20, seed=1
        )
        expected = bpr_eval.report(20).urr - random_eval.report(20).urr
        assert comparison.difference == pytest.approx(expected)

    def test_requires_same_users(self, bpr_eval, tiny_split, tiny_merged):
        bct_only = tiny_merged.restrict_to_sources({"bct"})
        from repro.eval.split import split_readings

        other_split = split_readings(bct_only)
        other = fit_and_evaluate(
            RandomItems(seed=0), other_split, bct_only, ks=(20,)
        )
        if np.array_equal(
            other.per_user.user_indices, bpr_eval.per_user.user_indices
        ):
            pytest.skip("splits coincide on this fixture")
        with pytest.raises(EvaluationError, match="same"):
            paired_bootstrap_difference(bpr_eval, other, "urr", 20)
