"""Online model lifecycle: the versioned, crash-safe model store.

Libraries acquire books and readers continuously, so the fitted BPR
model is a *living artefact*: it gets retrained (warm-started from its
predecessor), published, served, rolled back, and garbage-collected —
all without restarting the service. This
module provides the storage half of that lifecycle; the serving half is
:meth:`~repro.app.service.RecommendationService.refresh_from_store`.

A :class:`ModelStore` is a directory of monotonically numbered version
directories plus an atomically-renamed ``CURRENT`` pointer file::

    store/
      v000001/
        model.npz
        model.npz.manifest.json
      v000002/
        ...
      CURRENT            # one line: the published version's name

Every write goes through :func:`~repro.resilience.artefacts.atomic_write`
(temp + fsync + rename) and every version carries a SHA-256 checksum
manifest, so the store inherits the resilience layer's two guarantees —
and its ``fault_check`` crash points, which the chaos suite drives to
prove that a publish interrupted at *any* write, rename, or read leaves
the previously published version intact, loadable, and still pointed at
by ``CURRENT``. A new version is always written into a fresh directory
and ``CURRENT`` is renamed over only after the version verifies, so
there is no crash window in which a reader can observe a half-published
model.

Single-writer contract: one process publishes/rolls back/garbage-collects
at a time (the library serving deployment). Readers — any number of
service processes calling :meth:`ModelStore.load` — are always safe
because published versions are immutable.
"""

from __future__ import annotations

import re
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.app.persistence import BPR_KIND, load_bpr, save_bpr
from repro.core.bpr import BPR
from repro.core.interactions import InteractionMatrix
from repro.errors import PersistenceError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, start_span
from repro.resilience.artefacts import atomic_write, verify_manifest

#: Name of the pointer file naming the published version.
CURRENT_NAME = "CURRENT"

#: The model artefact inside each version directory.
MODEL_FILENAME = "model.npz"

#: Version directories are ``v`` + zero-padded number (sorts lexically).
_VERSION_PATTERN = re.compile(r"^v(\d{6,})$")

#: Versions :meth:`ModelStore.gc` keeps by default (beyond ``CURRENT``).
DEFAULT_GC_KEEP = 2

#: Version status values reported by :meth:`ModelStore.status`.
STATUS_OK = "ok"


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published (or in-flight) version of the model."""

    number: int
    path: Path

    @property
    def name(self) -> str:
        """The version's directory name (``v000001``, ...)."""
        return self.path.name

    @property
    def model_path(self) -> Path:
        """The ``model.npz`` artefact inside the version directory."""
        return self.path / MODEL_FILENAME


def version_name(number: int) -> str:
    """The canonical directory name for version ``number``."""
    return f"v{number:06d}"


class ModelStore:
    """A directory of checksummed model versions with a ``CURRENT`` pointer.

    Args:
        root: the store directory (created on first publish).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            publishes, rollbacks, and gc sweeps are counted under
            ``lifecycle.*``.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each lifecycle
            operation gets a span.
    """

    def __init__(
        self,
        root: str | Path,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.root = Path(root)
        self.metrics = metrics
        self.tracer = tracer

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def versions(self) -> list[ModelVersion]:
        """Every version directory in the store, sorted by number.

        Includes broken versions (interrupted publishes); check
        :meth:`status` to distinguish them.
        """
        if not self.root.is_dir():
            return []
        found = []
        for entry in self.root.iterdir():
            match = _VERSION_PATTERN.match(entry.name)
            if match and entry.is_dir():
                found.append(ModelVersion(number=int(match.group(1)), path=entry))
        return sorted(found, key=lambda v: v.number)

    def current_name(self) -> str | None:
        """The raw contents of ``CURRENT``, or ``None`` when unpublished."""
        pointer = self.root / CURRENT_NAME
        if not pointer.exists():
            return None
        try:
            return pointer.read_text(encoding="utf-8").strip()
        except OSError as exc:
            raise PersistenceError(
                f"cannot read {pointer}: {exc}"
            ) from exc

    def current(self) -> ModelVersion | None:
        """The version ``CURRENT`` points at.

        Returns ``None`` when nothing was ever published; raises
        :class:`~repro.errors.PersistenceError` when ``CURRENT`` names a
        version directory that does not exist (a dangling pointer —
        something external mangled the store).
        """
        name = self.current_name()
        if name is None:
            return None
        version = self._version_named(name)
        if version is None:
            raise PersistenceError(
                f"{self.root / CURRENT_NAME} points at {name!r}, which does "
                "not exist in the store"
            )
        return version

    def resolve(self, spec: "ModelVersion | str | int | None") -> ModelVersion:
        """Resolve a version spec (name, number, instance, or ``None``).

        ``None`` resolves to the current version; a missing spec raises
        :class:`~repro.errors.PersistenceError`.
        """
        if spec is None:
            version = self.current()
            if version is None:
                raise PersistenceError(
                    f"model store {self.root} has no published version"
                )
            return version
        if isinstance(spec, ModelVersion):
            return spec
        name = version_name(spec) if isinstance(spec, int) else str(spec)
        version = self._version_named(name)
        if version is None:
            raise PersistenceError(
                f"model store {self.root} has no version {name!r}"
            )
        return version

    def _version_named(self, name: str) -> ModelVersion | None:
        match = _VERSION_PATTERN.match(name)
        if not match:
            return None
        path = self.root / name
        if not path.is_dir():
            return None
        return ModelVersion(number=int(match.group(1)), path=path)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def verify(self, spec: "ModelVersion | str | int | None" = None) -> dict:
        """Checksum-verify one version; returns its parsed manifest.

        Raises the precise :class:`~repro.errors.PersistenceError`
        subclass for a missing manifest, truncation, or corruption.
        """
        version = self.resolve(spec)
        return verify_manifest(version.model_path, kind=BPR_KIND)

    def status(self, version: "ModelVersion | str | int | None" = None) -> str:
        """``"ok"`` or the name of the error class the version fails with."""
        try:
            self.verify(version)
        except PersistenceError as exc:
            return type(exc).__name__
        return STATUS_OK

    def load(
        self, spec: "ModelVersion | str | int | None" = None
    ) -> tuple[BPR, InteractionMatrix]:
        """Load one version (default: current), checksum-verified."""
        version = self.resolve(spec)
        with start_span(
            self.tracer, "lifecycle.load", version=version.name
        ):
            return load_bpr(version.model_path)

    # ------------------------------------------------------------------
    # mutation: publish / rollback / gc
    # ------------------------------------------------------------------

    def publish(self, model: BPR, train: InteractionMatrix) -> ModelVersion:
        """Persist a fitted model as the next version and point ``CURRENT``
        at it.

        The sequence is crash-safe at every step (each step is either an
        :func:`~repro.resilience.artefacts.atomic_write` or a read, all
        carrying ``fault_check`` crash points):

        1. allocate the next version number and create its directory;
        2. save the model + checksum manifest into the fresh directory;
        3. re-verify the manifest (publish never trusts its own write);
        4. atomically rename ``CURRENT`` over to the new version.

        An interruption anywhere leaves the previous version published
        and loadable; the partial directory is invisible to readers (no
        manifest, or ``CURRENT`` still naming the predecessor) and is
        swept by :meth:`gc`.
        """
        existing = self.versions()
        number = existing[-1].number + 1 if existing else 1
        version = ModelVersion(number=number, path=self.root / version_name(number))
        with start_span(
            self.tracer, "lifecycle.publish", version=version.name
        ) as span:
            version.path.mkdir(parents=True, exist_ok=False)
            save_bpr(model, train, version.model_path)
            verify_manifest(version.model_path, kind=BPR_KIND)
            self._write_current(version.name)
            span.set_attrs(number=version.number)
        self._count("lifecycle.publishes")
        return version

    def rollback(
        self, to: "ModelVersion | str | int | None" = None
    ) -> ModelVersion:
        """Point ``CURRENT`` back at an earlier intact version.

        With ``to=None`` the newest intact version older than the current
        one is chosen. The target is checksum-verified before ``CURRENT``
        moves, so a rollback can never land on a broken version.
        """
        if to is None:
            current = self.current()
            candidates = [
                version
                for version in reversed(self.versions())
                if (current is None or version.number < current.number)
                and self.status(version) == STATUS_OK
            ]
            if not candidates:
                raise PersistenceError(
                    f"model store {self.root} has no intact earlier version "
                    "to roll back to"
                )
            target = candidates[0]
        else:
            target = self.resolve(to)
            self.verify(target)
        with start_span(
            self.tracer, "lifecycle.rollback", version=target.name
        ):
            self._write_current(target.name)
        self._count("lifecycle.rollbacks")
        return target

    def gc(self, keep: int = DEFAULT_GC_KEEP) -> list[ModelVersion]:
        """Delete old and broken versions; returns what was removed.

        Keeps the ``keep`` newest *intact* versions plus (always) the one
        ``CURRENT`` points at. Broken versions — interrupted publishes —
        are removed regardless of age, except the ``CURRENT`` target,
        which is never touched even if corrupt (that is an operator
        decision, surfaced by ``python -m repro health``).
        """
        if keep < 1:
            raise PersistenceError(f"gc keep must be >= 1, got {keep}")
        current_name = self.current_name()
        intact = [v for v in self.versions() if self.status(v) == STATUS_OK]
        keep_names = {v.name for v in intact[-keep:]}
        if current_name is not None:
            keep_names.add(current_name)
        removed = []
        for version in self.versions():
            if version.name in keep_names:
                continue
            shutil.rmtree(version.path)
            removed.append(version)
        if removed:
            self._count("lifecycle.gc_removed", len(removed))
        return removed

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def health_report(self) -> dict:
        """The store's full health picture (``python -m repro health``).

        ``status`` is ``"ok"`` only when ``CURRENT`` resolves to an
        intact version; broken *non-current* versions are reported per
        version but do not fail the store (they are :meth:`gc` fodder).
        """
        versions = [
            {
                "name": version.name,
                "number": version.number,
                "status": self.status(version),
            }
            for version in self.versions()
        ]
        current_name = None
        current_status = "unpublished"
        try:
            current_name = self.current_name()
            if current_name is not None:
                version = self._version_named(current_name)
                if version is None:
                    current_status = "dangling"
                else:
                    current_status = self.status(version)
        except PersistenceError as exc:
            current_status = type(exc).__name__
        return {
            "root": str(self.root),
            "versions": versions,
            "current": current_name,
            "current_status": current_status,
            "status": "ok" if current_status == STATUS_OK else "corrupt",
        }

    @staticmethod
    def is_store(path: str | Path) -> bool:
        """Whether ``path`` looks like a model store directory."""
        path = Path(path)
        if not path.is_dir():
            return False
        if (path / CURRENT_NAME).exists():
            return True
        return any(
            _VERSION_PATTERN.match(entry.name) and entry.is_dir()
            for entry in path.iterdir()
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _write_current(self, name: str) -> None:
        """Atomically repoint ``CURRENT`` (write temp, fsync, rename)."""
        with atomic_write(self.root / CURRENT_NAME, "w", encoding="utf-8") as handle:
            handle.write(name + "\n")

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)
