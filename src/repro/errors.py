"""Typed exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the recommendation service can catch a single base
class at their boundary while tests can assert on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table schema is invalid or a row does not match its schema."""


class ColumnNotFoundError(SchemaError):
    """A referenced column does not exist in the table."""

    def __init__(self, column: str, available: tuple[str, ...]) -> None:
        self.column = column
        self.available = available
        super().__init__(
            f"column {column!r} not found; available columns: {', '.join(available)}"
        )


class TableIOError(ReproError):
    """Reading or writing a table from/to disk failed."""


class DatasetError(ReproError):
    """A dataset is malformed or inconsistent (e.g. dangling foreign keys)."""


class PipelineError(ReproError):
    """A preprocessing step received data it cannot process."""


class NotFittedError(ReproError):
    """A model method requiring a fitted model was called before ``fit``."""

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        super().__init__(
            f"{model_name} is not fitted yet; call fit() before requesting "
            "recommendations"
        )


class ConfigurationError(ReproError):
    """A model or experiment was configured with invalid parameters."""


class EvaluationError(ReproError):
    """An evaluation request is inconsistent with the available data."""


class UnknownUserError(EvaluationError):
    """A recommendation was requested for a user outside the training set."""

    def __init__(self, user_id: object) -> None:
        self.user_id = user_id
        super().__init__(f"unknown user: {user_id!r}")


class PersistenceError(ReproError):
    """Saving or loading a model/dataset artefact failed."""


class ManifestMissingError(PersistenceError):
    """An artefact has no checksum manifest beside it."""


class TruncatedArtefactError(PersistenceError):
    """An artefact on disk is shorter than its manifest says it should be."""


class ChecksumMismatchError(PersistenceError):
    """An artefact's bytes do not hash to the checksum in its manifest."""


class ArtefactVersionError(PersistenceError):
    """An artefact was written by an incompatible format version."""
