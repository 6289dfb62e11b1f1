"""Deterministic fixture matrices mirrored in the repository's fixtures/ dir.

Everything here is seeded, so `write_fixtures` regenerates the shipped CSV
files byte-for-byte. The fixtures keep the whole verification protocol
offline: a symmetric 2x2 game with a known mixed equilibrium, a seeded
random payoff, a synthetic attention-score block, and the near-attaining
logit vector.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def matching_pennies() -> np.ndarray:
    return np.array([[1.0, -1.0], [-1.0, 1.0]])


def random_payoff_5x5() -> np.ndarray:
    return np.random.default_rng(20250809).uniform(-1.0, 1.0, size=(5, 5))


def attention_scores_8x8() -> np.ndarray:
    return np.random.default_rng(31415).normal(0.0, 2.0, size=(8, 8))


def example_logits(n: int = 10, big_k: float = 20.0) -> np.ndarray:
    """(0, 0, -K, ..., -K): the near-attaining example's base point."""
    v = np.full(n, -float(big_k))
    v[0] = v[1] = 0.0
    return v


def attaining_logits(n: int) -> np.ndarray:
    """(ln(n-1), 0, ..., 0): softmax puts mass 1/2 on the first entry."""
    v = np.zeros(n)
    v[0] = math.log(n - 1.0)
    return v


def _write_csv(path: Path, matrix: np.ndarray) -> None:
    rows = np.atleast_2d(matrix)
    lines = [",".join(format(v, ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_fixtures(directory) -> list[Path]:
    """Write all fixture CSVs into `directory`; returns the paths written."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    files = {
        "matching_pennies.csv": matching_pennies(),
        "random_payoff_5x5.csv": random_payoff_5x5(),
        "attention_scores_8x8.csv": attention_scores_8x8(),
        "example_logits.csv": example_logits(),
    }
    written = []
    for name, matrix in files.items():
        path = base / name
        _write_csv(path, matrix)
        written.append(path)
    return written


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for p in write_fixtures(target):
        print(p)
