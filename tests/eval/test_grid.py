"""Tests for the BPR grid search, in-process and on worker processes."""

import pytest

from repro.core.bpr import BPRConfig
from repro.errors import ConfigurationError, EvaluationError
from repro.eval.grid import grid_search_bpr
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

from tests.conftest import strip_timing_series


@pytest.fixture(scope="module")
def grid(tiny_split, tiny_merged):
    return grid_search_bpr(
        tiny_split,
        tiny_merged,
        base_config=BPRConfig(epochs=3, seed=1),
        factor_grid=(5, 10),
        learning_rate_grid=(0.05, 0.2),
        k=10,
    )


class TestGridSearch:
    def test_all_cells_evaluated(self, grid):
        assert len(grid.points) == 4
        assert set(grid.as_matrix()) == {
            (5, 0.05), (5, 0.2), (10, 0.05), (10, 0.2)
        }

    def test_best_maximises_urr(self, grid):
        best_urr = max(p.val_urr for p in grid.points)
        assert grid.best.val_urr == best_urr

    def test_urr_in_bounds(self, grid):
        for point in grid.points:
            assert 0.0 <= point.val_urr <= 1.0
            assert point.val_nrr >= point.val_urr - 1e-9

    def test_k_recorded(self, grid):
        assert grid.k == 10

    def test_empty_grid_rejected(self, tiny_split, tiny_merged):
        with pytest.raises(EvaluationError):
            grid_search_bpr(
                tiny_split, tiny_merged, factor_grid=(),
            )


GRID_KW = dict(
    base_config=BPRConfig(epochs=2, seed=11),
    factor_grid=(5, 10),
    learning_rate_grid=(0.1,),
    k=10,
)


@pytest.fixture(scope="module")
def serial(tiny_split, tiny_merged):
    return grid_search_bpr(tiny_split, tiny_merged, n_jobs=1, **GRID_KW)


class TestGridEquivalence:
    """Cells on worker processes give the in-process sweep's result."""

    def test_winner_and_points_identical(self, serial, tiny_split, tiny_merged):
        parallel = grid_search_bpr(
            tiny_split, tiny_merged, n_jobs=2, **GRID_KW
        )
        assert parallel.best == serial.best
        assert parallel.points == serial.points

    def test_metrics_identical_up_to_timing(self, tiny_split, tiny_merged):
        def sweep(n_jobs):
            metrics = MetricsRegistry()
            grid_search_bpr(
                tiny_split, tiny_merged, n_jobs=n_jobs, metrics=metrics,
                **GRID_KW,
            )
            return metrics.snapshot()

        serial, parallel = sweep(1), sweep(2)
        assert strip_timing_series(serial) == strip_timing_series(parallel)

    def test_parallel_sweep_adopts_cell_spans(self, tiny_split, tiny_merged):
        tracer = Tracer(seed=5)
        grid_search_bpr(
            tiny_split, tiny_merged, n_jobs=2, tracer=tracer, **GRID_KW,
        )
        names = [span.name for span in tracer.spans]
        assert names.count("grid.cell") == 2
        assert "grid.search" in names


class TestJobs:
    def test_all_cpus(self, serial, tiny_split, tiny_merged):
        every_cpu = grid_search_bpr(
            tiny_split, tiny_merged, n_jobs=-1, **GRID_KW
        )
        assert every_cpu.points == serial.points

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5, "2"])
    def test_rejects_invalid(self, tiny_split, tiny_merged, bad):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            grid_search_bpr(tiny_split, tiny_merged, n_jobs=bad, **GRID_KW)
