"""Fixtures shared by the test modules."""

import sys

import pytest

from matfac.tensor import tensor


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) wraps every binding of fn in the matfac modules, or
    the class attribute when fn is a method such as `Matrix.block_cyclic`, and
    returns the list its calls are appended to."""

    def count(fn) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        owner, _, attr = fn.__qualname__.rpartition(".")
        if owner:
            monkeypatch.setattr(getattr(sys.modules[fn.__module__], owner), attr, counted)
            return calls
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "matfac" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    return count


@pytest.fixture
def count_tensors(count_calls) -> list:
    """The tensor() calls from every matfac module: the CLI, the
    certificates and reductions, the swap witness and the Ulrich pipeline."""
    return count_calls(tensor)
