"""Tests for the loan-duration signal (the paper's future-work feature)."""

import numpy as np
import pytest

from repro.datasets.bct import BCTDataset
from repro.errors import DatasetError
from repro.pipeline.merge import MergeConfig, build_merged_dataset
from tests.factories import replace_column


def loan_durations(bct) -> np.ndarray:
    """Days each loan lasted: return date minus loan date."""
    deltas = bct.loans["return_date"] - bct.loans["loan_date"]
    return deltas.astype("timedelta64[D]").astype(np.int64)


class TestLoanRecord:
    def test_duration_days(self, tiny_sources):
        """The merge counts a loan returned three weeks later as 21 days."""
        loans = tiny_sources.bct.loans
        three_weeks = BCTDataset(
            books=tiny_sources.bct.books,
            loans=replace_column(
                loans, "return_date",
                loans["loan_date"] + np.timedelta64(21, "D"),
            ),
        )

        def bct_readings(min_loan_days):
            merged, _ = build_merged_dataset(
                three_weeks, tiny_sources.anobii,
                MergeConfig(min_user_readings=10, min_book_readings=5,
                            min_loan_days=min_loan_days),
            )
            return (merged.readings["source"] == "bct").sum()

        assert bct_readings(21) == bct_readings(0) > 0
        assert bct_readings(22) == 0

    def test_return_before_loan_rejected(self, tiny_sources):
        loans = tiny_sources.bct.loans.head(1)
        early = loans["loan_date"] - np.timedelta64(1, "D")
        dataset = BCTDataset(
            books=tiny_sources.bct.books,
            loans=replace_column(loans, "return_date", early),
        )
        with pytest.raises(DatasetError, match="returned before"):
            dataset.validate()


class TestSyntheticDurations:
    def test_all_loans_have_valid_durations(self, tiny_sources):
        durations = loan_durations(tiny_sources.bct)
        assert (durations >= 1).all()
        assert (durations <= 90).all()

    def test_bimodal_engagement(self, tiny_sources):
        """Both abandoned (short) and engaged (long) loans must exist."""
        durations = loan_durations(tiny_sources.bct)
        assert (durations <= 6).sum() > 0
        assert (durations > 6).sum() > 0
        # Most loans are genuine reads.
        assert (durations > 6).mean() > 0.6

    def test_validation_covers_return_dates(self, tiny_sources):
        tiny_sources.bct.validate()  # includes return >= loan


class TestMinLoanDaysFilter:
    def test_zero_keeps_paper_behaviour(self, tiny_sources, tiny_merged):
        merged, _ = build_merged_dataset(
            tiny_sources.bct, tiny_sources.anobii,
            MergeConfig(min_user_readings=10, min_book_readings=5,
                        min_loan_days=0),
        )
        assert merged.readings == tiny_merged.readings

    def test_filter_removes_short_loans_only(self, tiny_sources, tiny_merged):
        merged, _ = build_merged_dataset(
            tiny_sources.bct, tiny_sources.anobii,
            MergeConfig(min_user_readings=10, min_book_readings=5,
                        min_loan_days=7),
        )
        before = (tiny_merged.readings["source"] == "bct").sum()
        after = (merged.readings["source"] == "bct").sum()
        assert after < before
        # Anobii ratings carry no duration; they are never filtered this way.
        anobii_before = (tiny_merged.readings["source"] == "anobii").sum()
        anobii_after = (merged.readings["source"] == "anobii").sum()
        assert anobii_after <= anobii_before  # only via activity floors

    def test_negative_threshold_rejected(self):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            MergeConfig(min_loan_days=-1)


class TestDurationAblationExperiment:
    def test_runs_and_reports(self, tiny_context):
        from repro.experiments import duration_ablation

        result = duration_ablation.run(tiny_context)
        assert 0.0 < result.loans_removed_share < 0.5
        assert set(result.unfiltered) == {"Closest Items", "BPR"}
        assert "loan-duration" in result.render()

    def test_registered(self, tiny_context):
        from repro.experiments import available_experiments

        assert "ablation_duration" in available_experiments()
