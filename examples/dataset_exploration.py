"""Dataset characterisation walk-through (Section 3, Figs 1-2).

Shows the data-integration half of the paper in isolation: source-level
cleaning reports, the entropy-guided genre aggregation (watch the 41 raw
crowd-voted labels collapse to ~12), and the merged dataset's descriptive
statistics, using the library's own columnar tables throughout.

Run with:  python examples/dataset_exploration.py
"""

import numpy as np

from repro.datasets import WorldConfig, generate_sources
from repro.pipeline import MergeConfig, build_merged_dataset, stats


def main() -> None:
    sources = generate_sources(
        WorldConfig(n_books=500, n_authors=200, n_bct_users=200,
                    n_anobii_users=1100)
    )
    merged, report = build_merged_dataset(
        sources.bct, sources.anobii,
        MergeConfig(min_user_readings=10, min_book_readings=10),
    )

    print("== pipeline report ==")
    print(report)

    model = report.genre_model
    print("\n== genre aggregation ==")
    print(f"dropped (ubiquitous/rare): {', '.join(model.dropped_genres)}")
    print(f"merges performed: {len(model.merge_trace)}")
    for absorbed, kept in model.merge_trace[:8]:
        print(f"  {absorbed!r} -> {kept!r}")
    print(f"canonical genres ({len(model.canonical_genres)}): "
          f"{', '.join(model.canonical_genres)}")

    print("\n== merged dataset summary (Fig. 1 marginals) ==")
    for key, value in stats.summary(merged).items():
        print(f"  {key:28s} {value:10.0f}")

    print("\n== genre shares of readings (Fig. 2) ==")
    shares = stats.genre_reading_shares(merged)
    for genre, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        bar = "#" * int(share * 80)
        print(f"  {genre:20s} {share * 100:5.1f}%  {bar}")
    dominance = stats.two_genre_dominance_share(merged)
    print(f"\nusers dominated by two genres (>=10x): {dominance * 100:.1f}% "
          f"(paper: 99%)")

    print("\n== table-engine queries on the readings table ==")
    labels, first, counts = np.unique(
        merged.readings["source"], return_index=True, return_counts=True
    )
    for i in np.argsort(first):  # in order of first appearance
        print(f"  {labels[i]:8s} {counts[i]} readings")
    busiest = (
        merged.readings_per_user().sort("n_readings", descending=True).head(3)
    )
    for row in busiest.iter_rows():
        print(f"  busiest reader {row['user_id']}: {row['n_readings']} readings")


if __name__ == "__main__":
    main()
