"""Shared state for experiment runs.

Generating the world, merging the sources, splitting, and fitting BPR are
the expensive steps; most experiments share them. An
:class:`ExperimentContext` performs each step once and caches the result,
so running the whole experiment suite costs one dataset build plus one fit
per distinct model configuration.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.base import Recommender
from repro.core.bpr import BPR
from repro.core.closest_items import ClosestItems
from repro.core.most_read import MostReadItems
from repro.core.random_items import RandomItems
from repro.datasets.merged import MergedDataset
from repro.datasets.synthetic import SyntheticSources, generate_sources
from repro.errors import ConfigurationError
from repro.eval.evaluator import EvaluationResult, evaluate_model
from repro.eval.split import DatasetSplit, split_readings
from repro.experiments.config import ExperimentConfig
from repro.pipeline.merge import MergeReport, build_merged_dataset


class ExperimentContext:
    """Lazily-built, cached dataset + split + fitted models."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()
        self._sources: SyntheticSources | None = None
        self._merged: MergedDataset | None = None
        self._merge_report: MergeReport | None = None
        self._split: DatasetSplit | None = None
        self._bct_only: tuple[MergedDataset, DatasetSplit] | None = None
        self._models: dict[str, tuple[Recommender, float]] = {}
        self._evaluations: dict[tuple, EvaluationResult] = {}

    # ------------------------------------------------------------------
    # dataset pipeline
    # ------------------------------------------------------------------

    @property
    def sources(self) -> SyntheticSources:
        if self._sources is None:
            self._sources = generate_sources(self.config.world)
        return self._sources

    def _ensure_merged(self) -> None:
        if self._merged is None:
            sources = self.sources
            self._merged, self._merge_report = build_merged_dataset(
                sources.bct, sources.anobii, self.config.merge
            )

    @property
    def merged(self) -> MergedDataset:
        self._ensure_merged()
        assert self._merged is not None
        return self._merged

    @property
    def merge_report(self) -> MergeReport:
        self._ensure_merged()
        assert self._merge_report is not None
        return self._merge_report

    @property
    def split(self) -> DatasetSplit:
        if self._split is None:
            self._split = split_readings(self.merged)
        return self._split

    @property
    def bct_only(self) -> tuple[MergedDataset, DatasetSplit]:
        """The BPR (BCT only) workload: same catalogue, loans only."""
        if self._bct_only is None:
            dataset = self.merged.restrict_to_sources({"bct"})
            self._bct_only = (dataset, split_readings(dataset))
        return self._bct_only

    # ------------------------------------------------------------------
    # fitted models
    # ------------------------------------------------------------------

    def model(self, name: str) -> Recommender:
        """A fitted model by experiment name; see ``fit_seconds`` for cost.

        Known names: ``random``, ``most_read``, ``closest``, ``bpr``,
        ``bpr_bct_only``, and ``closest:<field,field,...>`` for metadata
        ablations.
        """
        fitted, _ = self._fit(name)
        return fitted

    def fit_seconds(self, name: str) -> float:
        """Wall-clock seconds the named model took to fit."""
        _, seconds = self._fit(name)
        return seconds

    def _fit(self, name: str) -> tuple[Recommender, float]:
        if name in self._models:
            return self._models[name]
        model = self._build(name)
        if name == "bpr_bct_only":
            dataset, split = self.bct_only
        else:
            dataset, split = self.merged, self.split
        started = time.perf_counter()
        model.fit(split.train, dataset)
        seconds = time.perf_counter() - started
        self._models[name] = (model, seconds)
        return self._models[name]

    def _build(self, name: str) -> Recommender:
        if name == "random":
            return RandomItems(seed=self.config.seed)
        if name == "most_read":
            return MostReadItems()
        if name == "closest":
            return ClosestItems(fields=self.config.closest_fields)
        if name.startswith("closest:"):
            fields = tuple(name.split(":", 1)[1].split(","))
            return ClosestItems(fields=fields)
        if name in ("bpr", "bpr_bct_only"):
            return BPR(replace(self.config.bpr, seed=self.config.seed))
        raise ConfigurationError(f"unknown experiment model {name!r}")

    # ------------------------------------------------------------------
    # cached evaluations
    # ------------------------------------------------------------------

    def evaluation(
        self,
        name: str,
        ks: tuple[int, ...] | None = None,
        measure_latency: bool = False,
    ) -> EvaluationResult:
        """Evaluate a model on the test holdout (cached per (name, ks))."""
        ks = ks or (self.config.k,)
        key = (name, ks, measure_latency)
        if key not in self._evaluations:
            model = self.model(name)
            split = self.bct_only[1] if name == "bpr_bct_only" else self.split
            self._evaluations[key] = evaluate_model(
                model, split, ks=ks, measure_latency=measure_latency
            )
        return self._evaluations[key]
