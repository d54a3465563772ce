"""Fault injection: deterministic failures for chaos testing.

A :class:`FaultInjector` decides, per named *site*, whether a call should
fail. Two modes compose freely:

- **probabilistic** — ``rates={"model.score": 0.3}`` fails ~30 % of calls,
  drawn from an independent :func:`repro.rng.derive_rng` stream per site,
  so a fixed seed replays the exact same failure sequence regardless of
  how other sites interleave;
- **scripted** — ``script={"io.rename": [False, True]}`` fails exactly the
  second call, then never again (precise crash-point placement).

Model faults are injected by wrapping the model (:class:`FaultyModel`).
File-I/O faults use the *ambient* injector: persistence code calls
:func:`repro.resilience.fault_check` at its crash points, which is a no-op
unless a test activated an injector via ``with injector.injecting(): ...``.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Iterator, Sequence

import numpy as np

from repro.core.base import Recommender
from repro.core.interactions import InteractionMatrix
from repro.datasets.merged import MergedDataset
from repro.errors import ConfigurationError, ReproError
from repro.resilience._ambient import set_ambient
from repro.rng import derive_rng


class InjectedFaultError(ReproError):
    """A failure deliberately raised by a :class:`FaultInjector`."""

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"injected fault at {site!r}")


#: The injection site every :class:`FaultyModel` scoring call passes.
SITE_MODEL_SCORE = "model.score"

#: The injection sites that persistence code passes through.
SITE_IO_WRITE = "io.write"
SITE_IO_RENAME = "io.rename"
SITE_IO_READ = "io.read"


class FaultInjector:
    """Decides which calls fail, deterministically under a fixed seed.

    Args:
        seed: seed for the probabilistic streams (``repro.rng`` semantics).
        rates: per-site failure probability in ``[0, 1]``.
        script: per-site explicit schedule; each call consumes one entry
            (``True`` = fail) and calls beyond the schedule succeed.
            A scripted site ignores its rate.
    """

    def __init__(
        self,
        seed: int | None = None,
        rates: dict[str, float] | None = None,
        script: dict[str, Sequence[bool]] | None = None,
    ) -> None:
        rates = dict(rates or {})
        for site, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate for {site!r} must be in [0, 1], got {rate}"
                )
        self.seed = seed
        self._rates = rates
        self._script = {site: list(plan) for site, plan in (script or {}).items()}
        self._cursors: Counter = Counter()
        self._streams: dict[str, np.random.Generator] = {}
        self.checked: Counter = Counter()
        """Calls per site that consulted the injector."""
        self.fired: Counter = Counter()
        """Calls per site that were made to fail."""

    def should_fire(self, site: str) -> bool:
        """Consume one decision for ``site`` (advances schedules/streams)."""
        self.checked[site] += 1
        if site in self._script:
            cursor = self._cursors[site]
            self._cursors[site] += 1
            plan = self._script[site]
            fire = cursor < len(plan) and bool(plan[cursor])
        else:
            rate = self._rates.get(site, 0.0)
            if rate <= 0.0:
                return False
            if site not in self._streams:
                self._streams[site] = derive_rng(self.seed, "fault", site)
            fire = bool(self._streams[site].uniform() < rate)
        if fire:
            self.fired[site] += 1
        return fire

    def check(self, site: str) -> None:
        """Raise :class:`InjectedFaultError` when this call should fail."""
        if self.should_fire(site):
            raise InjectedFaultError(site)

    def reset(self) -> None:
        """Rewind schedules, streams and counters to the initial state."""
        self._cursors.clear()
        self._streams.clear()
        self.checked.clear()
        self.fired.clear()

    @contextlib.contextmanager
    def injecting(self) -> Iterator["FaultInjector"]:
        """Activate this injector for ambient :func:`fault_check` sites."""
        previous = set_ambient(self)
        try:
            yield self
        finally:
            set_ambient(previous)


class FaultyModel(Recommender):
    """A recommender wrapper that injects faults into every scoring call.

    Both scoring paths (``recommend``, ``recommend_batch``) funnel through
    :meth:`score_users`, so one check covers them.
    """

    def __init__(
        self,
        model: Recommender,
        injector: FaultInjector,
        site: str = SITE_MODEL_SCORE,
    ) -> None:
        super().__init__()
        self._model = model
        self._injector = injector
        self._site = site
        self._train = model._train
        self.exclude_seen = model.exclude_seen

    @property
    def name(self) -> str:
        """The wrapped model's name with a fault-injection marker."""
        return f"{self._model.name} [fault-injected]"

    def _fit(self, train: InteractionMatrix, dataset: MergedDataset | None) -> None:
        self._model.fit(train, dataset)

    def score_users(self, user_indices: np.ndarray) -> np.ndarray:
        """Score via the wrapped model, after the injector's fault check."""
        self._injector.check(self._site)
        return self._model.score_users(user_indices)
