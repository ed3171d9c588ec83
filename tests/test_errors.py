"""Tests for the exception hierarchy (repro.errors) and doctests."""

import doctest

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj is not errors.ReproError):
                assert issubclass(obj, errors.ReproError), name

    def test_vt_errors(self):
        assert issubclass(errors.NotFoundError, errors.VTError)
        assert issubclass(errors.QuotaExceededError, errors.VTError)
        assert issubclass(errors.InvalidHashError, errors.VTError)

    def test_store_errors(self):
        assert issubclass(errors.UnknownSampleError, errors.StoreError)
        assert issubclass(errors.UnknownSampleError, KeyError)
        assert issubclass(errors.CorruptRecordError, errors.StoreError)
        assert issubclass(errors.ShardClosedError, errors.StoreError)
        # Dual inheritance keeps positional-access callers' idiomatic
        # `except IndexError` working while the store surface exports a
        # ReproError (the RPL104 exception contract).
        assert issubclass(errors.BlockAddressError, errors.StoreError)
        assert issubclass(errors.BlockAddressError, IndexError)

    def test_analysis_errors(self):
        assert issubclass(errors.InsufficientDataError,
                          errors.AnalysisError)

    def test_messages_carry_context(self):
        assert "deadbeef" in str(errors.NotFoundError("deadbeef"))
        quota = errors.QuotaExceededError(used=500, limit=500)
        assert "500/500" in str(quota)
        assert quota.used == 500
        insufficient = errors.InsufficientDataError(3, 1, "points")
        assert insufficient.needed == 3
        assert "points" in str(insufficient)

    def test_single_catch_at_api_boundary(self):
        with pytest.raises(errors.ReproError):
            raise errors.ShardClosedError("x")
        with pytest.raises(errors.ReproError):
            raise errors.InvalidHashError("y")


class TestDoctests:
    """Run the doctests embedded in public docstrings."""

    @pytest.mark.parametrize("module_name", [
        "repro.labeling.tokens",
        "repro.stats.ranking",
    ])
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0


class TestResilienceErrors:
    def test_transient_hierarchy(self):
        # TransientError deliberately sits under ReproError, not VTError:
        # the store's fault layer raises it too.
        assert issubclass(errors.TransientError, errors.ReproError)
        assert not issubclass(errors.TransientError, errors.VTError)
        assert issubclass(errors.ServiceUnavailableError, errors.TransientError)

    def test_transient_status_codes(self):
        assert errors.TransientError().status == 500
        assert errors.TransientError(status=429).status == 429
        assert errors.ServiceUnavailableError().status == 503
        assert "503" in str(errors.ServiceUnavailableError())

    def test_feed_errors(self):
        assert issubclass(errors.ArchiveExpiredError, errors.VTError)
        expired = errors.ArchiveExpiredError(minute=5, horizon=100)
        assert expired.minute == 5 and expired.horizon == 100
        assert "5" in str(expired) and "100" in str(expired)

    def test_collector_errors(self):
        assert issubclass(errors.CollectError, errors.ReproError)
        assert issubclass(errors.CheckpointError, errors.CollectError)
