"""Fail a test under tests/ that leaks a file or a socket.

An object left for the garbage collector to close warns with
ResourceWarning from its finalizer; pytest reports a warning raised there
as PytestUnraisableExceptionWarning. Both are made errors here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # this hook sees every collected item, bench/tests included
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings(
                    "error::pytest.PytestUnraisableExceptionWarning"
                )
            )
