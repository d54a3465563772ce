"""Datasets: schemas, containers, and synthetic dumps.

The paper works on two proprietary data sources (the BCT loans database and
an Anobii dump). Neither is distributable, so this subpackage provides:

- :mod:`repro.datasets.models` — the table schemas the paper describes
  (Books/Loans for BCT, Items/Ratings for Anobii);
- :mod:`repro.datasets.world` — a latent *world model* (users with genre and
  author preferences, a catalogue with power-law popularity) from which both
  sources are observed;
- :mod:`repro.datasets.synthetic` — generators that emit raw BCT and Anobii
  dumps with the same schemas, noise, and marginal statistics the paper
  reports;
- :mod:`repro.datasets.bct` / :mod:`repro.datasets.anobii` — typed dataset
  containers with integrity validation;
- :mod:`repro.datasets.merged` — the merged dataset (joined catalogue +
  unified Readings table) the recommenders are trained on;
- :mod:`repro.datasets.corpus` — paper-scale, out-of-core generation: a
  seed-sharded corpus written as columnar npz shards behind checksum
  manifests, row-identical for every shard count.
"""

from repro.datasets.models import (
    ANOBII_ITEMS_SCHEMA,
    ANOBII_RATINGS_SCHEMA,
    BCT_BOOKS_SCHEMA,
    BCT_LOANS_SCHEMA,
    MERGED_BOOKS_SCHEMA,
    READINGS_SCHEMA,
)
from repro.datasets.world import LatentWorld, WorldConfig
from repro.datasets.synthetic import generate_sources
from repro.datasets.bct import BCTDataset
from repro.datasets.anobii import AnobiiDataset
from repro.datasets.merged import MergedDataset
from repro.datasets.corpus import (
    CorpusConfig,
    ShardedCorpus,
    ShardedCorpusWriter,
)

__all__ = [
    "ANOBII_ITEMS_SCHEMA",
    "ANOBII_RATINGS_SCHEMA",
    "BCT_BOOKS_SCHEMA",
    "BCT_LOANS_SCHEMA",
    "MERGED_BOOKS_SCHEMA",
    "READINGS_SCHEMA",
    "LatentWorld",
    "WorldConfig",
    "generate_sources",
    "BCTDataset",
    "AnobiiDataset",
    "MergedDataset",
    "CorpusConfig",
    "ShardedCorpus",
    "ShardedCorpusWriter",
]
