import pytest

from softlip import estimator


@pytest.fixture(autouse=True)
def fresh_draw_memo():
    """Each test starts and ends with no held draw block, so a test that
    patches `_generators`, `_seed_states` or `_BLOCK_ELEMENTS` draws and
    hashes every block itself and leaves none of its draws to the tests
    after it."""
    estimator._held_draws.cache_clear()
    yield
    estimator._held_draws.cache_clear()
