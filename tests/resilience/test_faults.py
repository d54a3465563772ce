"""Tests for the fault injector, the faulty-model wrapper, and the ambient
hook."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.resilience import fault_check
from tests.resilience.faults import (
    SITE_MODEL_SCORE,
    FaultInjector,
    FaultyModel,
    InjectedFaultError,
)


class TestScripted:
    def test_schedule_is_followed_exactly(self):
        injector = FaultInjector(script={"s": [False, True, True, False]})
        fired = [injector.should_fire("s") for _ in range(6)]
        assert fired == [False, True, True, False, False, False]

    def test_check_raises_with_site(self):
        injector = FaultInjector(script={"s": [True]})
        with pytest.raises(InjectedFaultError, match="'s'") as info:
            injector.check("s")
        assert info.value.site == "s"

    def test_reset_rewinds_the_schedule(self):
        injector = FaultInjector(script={"s": [True]})
        assert injector.should_fire("s")
        assert not injector.should_fire("s")
        injector.reset()
        assert injector.should_fire("s")


class TestProbabilistic:
    def test_rate_zero_never_fires(self):
        injector = FaultInjector(seed=1, rates={"s": 0.0})
        assert not any(injector.should_fire("s") for _ in range(100))

    def test_rate_one_always_fires(self):
        injector = FaultInjector(seed=1, rates={"s": 1.0})
        assert all(injector.should_fire("s") for _ in range(100))

    def test_same_seed_same_sequence(self):
        def draw(seed):
            injector = FaultInjector(seed=seed, rates={"s": 0.4})
            return [injector.should_fire("s") for _ in range(50)]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    def test_sites_have_independent_streams(self):
        injector = FaultInjector(seed=7, rates={"a": 0.4, "b": 0.4})
        solo = FaultInjector(seed=7, rates={"a": 0.4})
        interleaved = []
        for _ in range(30):
            interleaved.append(injector.should_fire("a"))
            injector.should_fire("b")
        assert interleaved == [solo.should_fire("a") for _ in range(30)]

    def test_counters(self):
        injector = FaultInjector(script={"s": [True, False, True]})
        for _ in range(3):
            injector.should_fire("s")
        assert injector.checked["s"] == 3
        assert injector.fired["s"] == 2

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(rates={"s": 1.5})
        with pytest.raises(ConfigurationError):
            FaultInjector(rates={"s": -0.1})


class TestAmbient:
    def test_noop_without_active_injector(self):
        fault_check("io.write")  # does not raise

    def test_active_injector_fires(self):
        injector = FaultInjector(script={"io.write": [True]})
        with injector.injecting():
            with pytest.raises(InjectedFaultError):
                fault_check("io.write")
        fault_check("io.write")  # deactivated again
        assert injector.checked["io.write"] == 1

    def test_nesting_restores_previous(self):
        outer = FaultInjector()
        inner = FaultInjector()
        with outer.injecting():
            with inner.injecting():
                fault_check("io.write")
            fault_check("io.write")
        assert inner.checked["io.write"] == 1
        assert outer.checked["io.write"] == 1


class TestWrappers:
    def test_faulty_model_passthrough_when_quiet(self, tiny_bpr):
        injector = FaultInjector(seed=1)
        wrapped = FaultyModel(tiny_bpr, injector)
        assert wrapped.is_fitted
        assert "fault-injected" in wrapped.name
        assert np.array_equal(wrapped.recommend(0, 5), tiny_bpr.recommend(0, 5))
        assert injector.checked[SITE_MODEL_SCORE] == 1

    def test_faulty_model_raises_on_scoring(self, tiny_bpr):
        injector = FaultInjector(rates={SITE_MODEL_SCORE: 1.0}, seed=1)
        wrapped = FaultyModel(tiny_bpr, injector)
        with pytest.raises(InjectedFaultError):
            wrapped.recommend(0, 5)
        with pytest.raises(InjectedFaultError):
            wrapped.recommend_batch(np.asarray([0, 1]), 5)
