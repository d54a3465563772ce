"""Guard the documented public API surface.

Every name the README and DESIGN.md tell users to import must exist and be
importable exactly as documented; this test fails when a refactor silently
breaks the documented contract.
"""

import importlib

import pytest

PUBLIC_API = {
    "repro": ["ReproError", "__version__"],
    "repro.tables": [
        "Table", "Schema", "Column", "concat_tables",
        "read_csv", "write_csv",
        "read_npz_columns", "write_npz_columns",
    ],
    "repro.datasets": [
        "WorldConfig", "LatentWorld", "generate_sources",
        "BCTDataset", "AnobiiDataset", "MergedDataset",
        "CorpusConfig", "ShardedCorpus", "ShardedCorpusWriter",
    ],
    "repro.pipeline": [
        "build_genre_model", "GenreModel",
        "MergeConfig", "MergeReport", "build_merged_dataset", "stats",
        "QuarantineReport", "QuarantinedRow",
        "run_merge", "SourceView",
        "merge_sharded_corpus", "StreamingMergeResult", "load_merged_corpus",
    ],
    "repro.text": [
        "HashedTfidfEmbedder", "SentenceEmbedder", "TfidfModel",
        "MetadataSummaryBuilder",
        "cosine_similarity_matrix", "normalize_text", "tokenize",
    ],
    "repro.core": [
        "Recommender", "InteractionMatrix", "Indexer",
        "RandomItems", "MostReadItems", "ClosestItems", "BPR", "BPRConfig",
        "HybridRecommender", "SequentialMarkov",
    ],
    "repro.eval": [
        "SplitConfig", "DatasetSplit", "split_readings",
        "KPIReport", "compute_kpis",
        "EvaluationResult", "evaluate_model", "fit_and_evaluate",
        "GridSearchResult", "grid_search_bpr",
        "GroupKPIs", "evaluate_by_history_size",
        "BeyondAccuracyReport", "evaluate_beyond_accuracy",
        "PairedComparison", "paired_bootstrap_difference",
    ],
    "repro.experiments": [
        "ExperimentConfig", "ExperimentContext",
        "available_experiments", "run_experiment", "SCALES",
    ],
    "repro.app": [
        "RecommendationService", "RecommendationRequest", "ServedBook",
        "ServedResponse", "ServiceStats",
        "save_bpr", "load_bpr",
    ],
    "repro.resilience": [
        "CircuitBreaker", "fault_check",
        "atomic_write", "write_manifest", "verify_manifest", "sha256_file",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_API[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} is missing"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_all_declares_documented_names(module_name):
    module = importlib.import_module(module_name)
    if not hasattr(module, "__all__"):
        pytest.skip(f"{module_name} has no __all__")
    missing = set(PUBLIC_API[module_name]) - set(module.__all__)
    assert not missing, f"{module_name}.__all__ is missing {sorted(missing)}"


def test_registered_experiments_match_docs():
    from repro.experiments import available_experiments

    assert set(available_experiments()) >= {
        "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
        "gridsearch", "beyond_accuracy", "sequential",
        "ablation_sampler", "ablation_anobii", "ablation_embedder",
        "ablation_split", "ablation_duration",
    }
