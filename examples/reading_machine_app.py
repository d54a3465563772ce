"""The Reading&Machine deployment scenario.

The paper's application is a VR GUI in Turin's public libraries: a reader
walks up, the system recommends k = 20 books. This example reproduces that
serving path, including the operational pieces the paper's Table 2 measures:

1. merge the sources straight to disk, reload that dataset, and train
   and persist a BPR model on it (the "offline" phase);
2. restart from disk (no retraining — what the kiosk does on boot);
3. answer interactive recommendation requests with latency accounting;
4. show a reader's shelf (their borrowing history) next to the suggestions.

Run with:  python examples/reading_machine_app.py
"""

import tempfile
from pathlib import Path

from repro.app import (
    RecommendationRequest,
    RecommendationService,
    load_bpr,
    save_bpr,
)
from repro.core import BPR, BPRConfig
from repro.datasets import WorldConfig, generate_sources
from repro.eval import split_readings
from repro.pipeline import MergeConfig, SourceView, load_merged_corpus, run_merge


def offline_phase(workdir: Path) -> None:
    """Nightly batch job: rebuild the dataset and retrain the model."""
    print("[offline] building dataset and training BPR ...")
    sources = generate_sources(
        WorldConfig(n_books=400, n_authors=160, n_bct_users=160,
                    n_anobii_users=900)
    )
    run_merge(
        SourceView(sources.bct, sources.anobii),
        MergeConfig(min_user_readings=10, min_book_readings=8),
        output_dir=workdir / "dataset",
    )
    merged = load_merged_corpus(workdir / "dataset")
    split = split_readings(merged)
    model = BPR(BPRConfig(epochs=10, seed=1)).fit(split.train, merged)
    save_bpr(model, split.train, workdir / "model.npz")
    print(f"[offline] artefacts saved under {workdir}")


def serve_phase(workdir: Path) -> None:
    """Kiosk boot: load artefacts and answer requests."""
    print("[serve] loading artefacts ...")
    merged = load_merged_corpus(workdir / "dataset")
    model, train = load_bpr(workdir / "model.npz")
    service = RecommendationService(model, train, merged)

    for user_id in merged.bct_user_ids[:3]:
        shelf = service.history(user_id)
        print(f"\n[serve] reader {user_id} — shelf has {len(shelf)} books, "
              f"e.g. '{shelf[0].title}' by {shelf[0].author}")
        print("        recommendations:")
        books = service.recommend(RecommendationRequest(user_id, k=5))
        for rank, book in enumerate(books, 1):
            print(f"          {rank}. {book.title} — {book.author}")

    stats = service.stats
    print(
        f"\n[serve] {stats.requests} requests, "
        f"mean {stats.mean_seconds * 1000:.2f} ms, "
        f"p95 {stats.percentile(0.95) * 1000:.2f} ms per recommendation "
        f"(paper Table 2 reports ~40-50 ms on its hardware)"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        offline_phase(workdir)
        serve_phase(workdir)


if __name__ == "__main__":
    main()
