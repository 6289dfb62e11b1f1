import pytest

from softlip import estimator, lipschitz


@pytest.fixture(autouse=True)
def fresh_draw_memo():
    """Each test starts and ends with no held draw block, no held row
    scales and no held conjugate pair, so a test that patches
    `_generators`, `_seed_states` or `_BLOCK_ELEMENTS` draws, hashes and
    rescales every block itself, a test that counts power iterations sees
    each one it causes, and none leaves its draws, scales or pair to the
    tests after it."""
    estimator._held_draws.cache_clear()
    estimator._held_scales.clear()
    lipschitz._held_pair.clear()
    yield
    estimator._held_draws.cache_clear()
    estimator._held_scales.clear()
    lipschitz._held_pair.clear()
