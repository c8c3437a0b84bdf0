"""Unit tests for the exception hierarchy."""

import pytest

from repro.common.errors import (
    AllocationError,
    ConfigurationError,
    InfeasibleAllocationError,
    ModelLookupError,
    QoSViolationError,
    ReproError,
    SimulationError,
    TraceFormatError,
    UnplaceableJobError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            AllocationError,
            InfeasibleAllocationError,
            QoSViolationError,
            TraceFormatError,
            SimulationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_allocation_family(self):
        assert issubclass(InfeasibleAllocationError, AllocationError)
        assert issubclass(QoSViolationError, AllocationError)


class TestModelLookupError:
    def test_is_a_key_error(self):
        assert issubclass(ModelLookupError, KeyError)

    def test_carries_key(self):
        err = ModelLookupError((1, 2, 3))
        assert err.key == (1, 2, 3)
        assert "(1, 2, 3)" in str(err)

    def test_custom_message(self):
        err = ModelLookupError((0, 0, 1), "boom")
        assert str(err) == "boom"

    def test_catchable_as_key_error(self):
        with pytest.raises(KeyError):
            raise ModelLookupError((1, 1, 1))


class TestTraceFormatError:
    def test_line_number_in_message(self):
        err = TraceFormatError("bad field", line_number=42)
        assert "line 42" in str(err)
        assert err.line_number == 42

    def test_without_line_number(self):
        err = TraceFormatError("bad header")
        assert str(err) == "bad header"
        assert err.line_number is None


class TestUnplaceableJobError:
    def test_is_a_simulation_error_with_the_old_message(self):
        err = UnplaceableJobError(8, "PA-0.5")
        assert isinstance(err, SimulationError)
        assert str(err) == (
            "strategy PA-0.5 rejects job 8 on an idle cluster; it can never be placed"
        )

    def test_pickles_with_its_fields(self):
        # A worker process hands the error back pickled.
        import pickle

        err = pickle.loads(pickle.dumps(UnplaceableJobError(8, "PA-1")))
        assert (err.job_id, err.strategy, str(err)) == (8, "PA-1", str(UnplaceableJobError(8, "PA-1")))
