import sys
from pathlib import Path

import pytest
from hypothesis import settings

# make the shared test helpers importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).parent))

# Every property draws the same examples on every run, so a tier-1 result
# does not depend on the run.  Loaded before the test modules are imported,
# so each test's own `settings` inherit it.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


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
