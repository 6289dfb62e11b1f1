from pathlib import Path

import numpy as np
import pytest

from softlip.core import softmax
from softlip.fixtures import (
    attaining_logits,
    attention_scores_8x8,
    example_logits,
    matching_pennies,
    random_payoff_5x5,
    write_fixtures,
)

REPO_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_generators_are_deterministic():
    np.testing.assert_array_equal(random_payoff_5x5(), random_payoff_5x5())
    np.testing.assert_array_equal(attention_scores_8x8(), attention_scores_8x8())


def test_example_logits_shape():
    v = example_logits(10, 20.0)
    np.testing.assert_array_equal(v[:2], [0.0, 0.0])
    np.testing.assert_array_equal(v[2:], np.full(8, -20.0))


def test_attaining_logits_put_half_mass_first():
    v = attaining_logits(10)
    assert v[0] == np.log(9.0)
    np.testing.assert_array_equal(v[1:], np.zeros(9))
    assert softmax(v).probs[0] == pytest.approx(0.5, abs=1e-15)


def test_matching_pennies_is_symmetric_zero_sum():
    a = matching_pennies()
    np.testing.assert_array_equal(a, a.T)
    assert a.sum() == 0.0


@pytest.mark.skipif(not REPO_FIXTURES.is_dir(), reason="repository fixtures not present")
def test_shipped_csvs_match_generators(tmp_path):
    """The committed fixture files must be regenerable byte-for-byte."""
    for path in write_fixtures(tmp_path):
        shipped = REPO_FIXTURES / path.name
        assert shipped.read_bytes() == path.read_bytes(), path.name
