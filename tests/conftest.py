import pytest
from hypothesis import settings

settings.register_profile("lab", deadline=None, derandomize=True)
settings.load_profile("lab")


def _member(A, gamma) -> bool:
    """Whether the configuration gamma lies in the set A, read off the set's
    definition one point at a time: the reference for ``stratum_indicator``."""
    if A.variant == "count":
        n = sum(all(lo <= x <= hi for x, lo, hi in zip(p, A.region.lower, A.region.upper))
                for p in gamma.points)
        return A.at_least <= n and (A.at_most is None or n <= A.at_most)
    if A.count_equals is not None and gamma.count != A.count_equals:
        return False
    value = A.function.value(gamma)
    if A.variant == "level_sheet":
        return value == A.level
    return value > A.level if A.strict else value >= A.level


@pytest.fixture
def member():
    return _member
