import sys
from pathlib import Path

import pytest

# make the shared test helpers importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """Fail a test that leaves the interpreter's recursion limit changed.

    The deep-term tests rely on running at the interpreter default.
    """
    before = sys.getrecursionlimit()
    yield
    after = sys.getrecursionlimit()
    if after != before:
        sys.setrecursionlimit(before)
        pytest.fail(f"recursion limit left at {after}, was {before}")
