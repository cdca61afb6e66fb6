"""Exception hierarchy and public API surface tests."""

import importlib

import pytest

import repro
from repro import exceptions


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not exceptions.ReproError:
                    assert issubclass(obj, exceptions.ReproError), name

    def test_domain_parents(self):
        assert issubclass(
            exceptions.AuthenticationError, exceptions.CryptoError
        )
        assert issubclass(exceptions.KeyError_, exceptions.CryptoError)
        assert issubclass(exceptions.PivotError, exceptions.MetricError)

    def test_one_except_clause_catches_everything(self):
        """The promise of the hierarchy: library failures are catchable
        with a single except ReproError."""
        from repro.crypto.cipher import AesCipher
        from repro.metric.distances import L1Distance

        with pytest.raises(exceptions.ReproError):
            AesCipher(b"short")
        with pytest.raises(exceptions.ReproError):
            L1Distance()(
                __import__("numpy").zeros(2), __import__("numpy").zeros(3)
            )

    def test_builtin_shadowing_avoided(self):
        assert exceptions.KeyError_ is not KeyError
        assert exceptions.IndexError_ is not IndexError


class TestPublicApi:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.metric",
            "repro.crypto",
            "repro.wire",
            "repro.net",
            "repro.storage",
            "repro.mindex",
            "repro.core",
            "repro.baselines",
            "repro.privacy",
            "repro.datasets",
            "repro.evaluation",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_strategy_values_stable(self):
        """The strategy names are part of the CLI/serialization
        contract; renaming them is a breaking change."""
        from repro import Strategy

        assert {s.value for s in Strategy} == {
            "precise",
            "approximate",
            "transformed",
        }

    def test_one_socket_transport(self):
        """One in-process channel, one socket stack, two transport
        names: a second stack or a third name must change this test."""
        import repro.net
        from repro.core.cloud import TRANSPORTS

        assert sorted(repro.net.__all__) == [
            "AsyncTcpServer",
            "Channel",
            "Clock",
            "InProcessChannel",
            "PipelinedTcpChannel",
            "RpcClient",
            "RpcDispatcher",
            "SimulatedClock",
            "WallClock",
        ]
        assert TRANSPORTS == ("inprocess", "tcp-async")

    def test_docstrings_on_public_classes(self):
        """Every top-level public item carries documentation."""
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"
