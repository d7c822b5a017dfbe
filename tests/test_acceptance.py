"""Release gate: runs every acceptance criterion at its pinned tolerance.

Each test prints the criterion's pass/fail line plus its measured numbers,
so a failing run shows exactly which bound broke and by how much.
"""

import json

import pytest

from lcakit.acceptance import CRITERIA, _shuffled_queries
from lcakit.ranks import Seed


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid):
    result = CRITERIA[cid]()
    print()
    print(result.line())
    print(json.dumps(result.details, indent=2, default=str))
    assert result.passed, result.line()


def test_pinned_shuffled_queries():
    seed = Seed.from_hex("5eed" * 16)
    assert _shuffled_queries(seed, b"pin", 50, 12) == (
        [33, 25, 41, 13, 0, 20, 26, 11, 38, 40, 16],
        [40, 26, 41, 0, 20, 11, 38, 13, 25, 33, 16],
    )
    assert _shuffled_queries(seed, b"pin1", 1, 3) == ([0], [0])
