import functools

import pytest

from qhpp import screening


@pytest.fixture(scope="session")
def classified():
    """``screening.classify`` at the default budget, memoised for the session:
    ``classified(3)`` pays for the index-three searches once, however many
    tests read the report."""
    return functools.cache(screening.classify)
