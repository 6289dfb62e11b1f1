import pytest

from softlip import estimator


@pytest.fixture(autouse=True)
def fresh_draw_memo():
    """Each test starts and ends with no held draw block and no held row
    scales, so a test that patches `_generators`, `_seed_states` or
    `_BLOCK_ELEMENTS` draws, hashes and rescales every block itself and
    leaves none of its draws or scales to the tests after it."""
    estimator._held_draws.cache_clear()
    estimator._held_scales.clear()
    yield
    estimator._held_draws.cache_clear()
    estimator._held_scales.clear()
