"""Fail a test under tests/ that warns, leaks a file or leaks a socket.

Every warning a test under tests/ raises is made an error. That includes
ResourceWarning, which an object left for the garbage collector to close
warns from its finalizer; pytest reports a warning raised there as
PytestUnraisableExceptionWarning, an error too. bench/tests is left out:
its workloads still leak sockets.
"""

from __future__ import annotations

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # this hook sees every collected item, bench/tests included
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
