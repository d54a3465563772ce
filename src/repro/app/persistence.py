"""Saving and loading fitted BPR models.

A model persists as an uncompressed ``.npz`` of factor matrices plus
indexer ids (deflating it cost every publish more time than the space
was worth; :func:`numpy.load` also reads the compressed archives of
older builds). This lets the deployed service (and the examples) start
from disk instead of refitting. The merged dataset it serves has one
on-disk layout, written by the merge itself
(``run_merge(..., output_dir=...)``) and reloaded by
:func:`repro.pipeline.merge.load_merged_corpus`.

Every model artefact is crash-safe and self-verifying:

- the archive is written through
  :func:`repro.resilience.artefacts.atomic_write` (temp + fsync +
  rename), so an interrupted save never leaves a half-written file under
  the final name;
- a SHA-256 checksum manifest (``<model>.npz.manifest.json``) is written
  beside it and verified on load, with precise
  :class:`~repro.errors.PersistenceError` subclasses for a missing
  manifest, truncation, corruption, and version mismatch;
- the archive stores only plain numeric/string arrays, so loading
  never needs ``allow_pickle`` (a pickle in an artefact is arbitrary code
  execution waiting to happen).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.bpr import BPR, BPRConfig
from repro.core.interactions import Indexer, InteractionMatrix
from repro.errors import ArtefactVersionError, PersistenceError
from repro.resilience._ambient import fault_check
from repro.resilience.artefacts import (
    atomic_write,
    verify_manifest,
    write_manifest,
)

#: Kind tag stamped into model manifests (a model manifest cannot vouch
#: for a dataset and vice versa).
BPR_KIND = "bpr-model"

#: Version of the ``.npz`` layout; bumped when arrays are added/retyped.
#: Version 2 dropped the pickled object arrays of version 1.
BPR_FORMAT_VERSION = 2


def _npz_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_bpr(model: BPR, train: InteractionMatrix, path: str | Path) -> None:
    """Persist a fitted BPR model (factors + indexers + config) atomically."""
    path = _npz_path(path)
    config_json = json.dumps(asdict(model.config))
    with atomic_write(path, "wb") as handle:
        np.savez(
            handle,
            format_version=np.asarray([BPR_FORMAT_VERSION], dtype=np.int64),
            user_factors=model.user_factors,
            item_factors=model.item_factors,
            user_ids=np.asarray([str(u) for u in train.users.ids], dtype=np.str_),
            item_ids=np.asarray(train.items.ids, dtype=np.int64),
            train_indptr=train.csr.indptr,
            train_indices=train.csr.indices,
            train_data=train.csr.data,
            config=np.asarray([config_json], dtype=np.str_),
        )
    write_manifest(
        path,
        [path],
        kind=BPR_KIND,
        extra={"format_version": BPR_FORMAT_VERSION},
    )


def load_bpr(path: str | Path) -> tuple[BPR, InteractionMatrix]:
    """Load a model saved by :func:`save_bpr`, ready to serve.

    The checksum manifest is verified first, the archive
    is read with ``allow_pickle=False``, and every array is validated —
    both factor matrices' shapes and the CSR triplet's consistency with
    the saved indexers — before a model is constructed.
    """
    path = Path(path)
    if not path.exists():
        # numpy appends .npz when saving without a suffix.
        candidate = path.with_suffix(path.suffix + ".npz")
        if not candidate.exists():
            raise PersistenceError(f"no saved model at {path}")
        path = candidate
    verify_manifest(path, kind=BPR_KIND)
    # Read-side crash point: chaos tests inject IO faults here to prove a
    # failed load (not just a failed save) degrades cleanly — e.g. a hot
    # swap that cannot read its candidate keeps serving the old model.
    fault_check("io.read")
    try:
        with np.load(path, allow_pickle=False) as archive:
            version = int(archive["format_version"][0])
            if version != BPR_FORMAT_VERSION:
                raise ArtefactVersionError(
                    f"{path} has BPR format version {version}; this build "
                    f"reads version {BPR_FORMAT_VERSION}"
                )
            fields = json.loads(str(archive["config"][0]))
            # Models saved before the float64 training kernel and HogWild
            # training were retired store the kernel tier's name and the
            # worker count; neither field exists any more.
            fields.pop("kernel", None)
            fields.pop("workers", None)
            config = BPRConfig(**fields)
            model = BPR(config)
            users = Indexer(str(u) for u in archive["user_ids"])
            items = Indexer(int(i) for i in archive["item_ids"])
            indptr = archive["train_indptr"]
            indices = archive["train_indices"]
            data = archive["train_data"]
            _validate_csr_triplet(
                path, indptr, indices, data, len(users), len(items)
            )
            from scipy import sparse

            csr = sparse.csr_matrix(
                (data, indices, indptr), shape=(len(users), len(items))
            )
            train = InteractionMatrix(users, items, csr)
            user_factors = archive["user_factors"]
            item_factors = archive["item_factors"]
    except (KeyError, ValueError, OSError) as exc:
        raise PersistenceError(f"cannot load BPR model from {path}: {exc}") from exc
    for side, factors, rows in (
        ("user", user_factors, len(users)), ("item", item_factors, len(items))
    ):
        if factors.shape != (rows, config.n_factors):
            raise PersistenceError(
                f"saved {side} factors have shape {factors.shape}, "
                f"expected ({rows}, {config.n_factors})"
            )
    model._train = train
    model._set_factors(user_factors, item_factors)
    return model, train


def _validate_csr_triplet(
    path: Path,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_users: int,
    n_items: int,
) -> None:
    """Check the saved CSR triplet is consistent with the saved indexers."""
    if indptr.ndim != 1 or len(indptr) != n_users + 1:
        raise PersistenceError(
            f"{path}: train_indptr has {len(indptr)} entries, expected "
            f"{n_users + 1} (one per user plus one)"
        )
    if len(indptr) and int(indptr[0]) != 0:
        raise PersistenceError(f"{path}: train_indptr does not start at 0")
    if (np.diff(indptr) < 0).any():
        raise PersistenceError(f"{path}: train_indptr is not monotonic")
    nnz = int(indptr[-1]) if len(indptr) else 0
    if len(indices) != nnz or len(data) != nnz:
        raise PersistenceError(
            f"{path}: CSR arrays disagree: indptr promises {nnz} entries, "
            f"indices has {len(indices)} and data has {len(data)}"
        )
    if len(indices) and (
        int(indices.min()) < 0 or int(indices.max()) >= n_items
    ):
        raise PersistenceError(
            f"{path}: train_indices reference items outside the saved "
            f"catalogue of {n_items}"
        )
