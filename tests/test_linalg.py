import random

import numpy as np
import pytest

from elimination_oracle import rref_per_pivot
from rmcode import linalg
from rmcode.gf import Field, search_modulus

FIELDS = [
    Field(2),
    Field(3),
    Field(5),
    Field(7),
    Field(2, 2),
    Field(2, 3),
    Field(3, 2),
    Field(3, 3),
    Field(3, 4),
    Field(7, 3, search_modulus(7, 3)),
    Field(2**31 - 1),
]


def _random(rng, F, rows, cols):
    return F.arr([[rng.randrange(F.q) for _ in range(cols)] for _ in range(rows)])


def _matrices(rng, F):
    """Empty, wide, tall, square, rank-deficient, repeated-column and sparse
    matrices over F."""
    yield np.zeros((0, 5), dtype=np.int64)
    yield np.zeros((4, 0), dtype=np.int64)
    yield np.zeros((3, 4), dtype=np.int64)
    for _ in range(4):
        yield _random(rng, F, rng.randint(1, 4), rng.randint(5, 14))
        yield _random(rng, F, rng.randint(5, 14), rng.randint(1, 4))
        n = rng.randint(1, 10)
        yield _random(rng, F, n, n)
        rows, cols, k = rng.randint(2, 12), rng.randint(2, 12), rng.randint(1, 3)
        yield F.matmul(_random(rng, F, rows, k), _random(rng, F, k, cols))
        a = _random(rng, F, rng.randint(2, 10), rng.randint(2, 6))
        yield a[:, [rng.randrange(a.shape[1]) for _ in range(rng.randint(2, 12))]]
        a = _random(rng, F, rng.randint(2, 10), rng.randint(2, 10))
        yield np.where(_random(rng, Field(5), *a.shape) == 0, a, 0)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rref_matches_the_per_pivot_oracle(F):
    """The trailing-block kernel gives the per-pivot kernel's (R, pivots),
    which is the unique RREF, on every shape and rank."""
    rng = random.Random(F.q)
    deficient = 0
    for mat in _matrices(rng, F):
        R, pivots = linalg.rref(F, mat)
        want, want_pivots = rref_per_pivot(F, mat)
        assert pivots == want_pivots
        assert R.shape == want.shape and np.array_equal(R, want)
        deficient += 0 < len(pivots) < min(mat.shape)
    assert deficient >= 4



@pytest.mark.parametrize("F", [Field(2), Field(7), Field(3, 2), Field(2**31 - 1)], ids=repr)
def test_rref_transform_is_the_rref_beside_the_identity(F):
    """``rref_transform(M)`` is ``rref([M | I])`` on every shape: rank
    deficient, with a zero row, with more rows than columns and fewer."""
    rng = random.Random(F.q + 1)
    seen = set()
    for mat in _matrices(rng, F):
        for M in (mat, np.insert(mat, len(mat) // 2, 0, axis=0)):
            n, w = M.shape
            R, pivots = linalg.rref_transform(F, M)
            want, want_pivots = linalg.rref(
                F, np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1)
            )
            assert pivots == want_pivots
            assert R.shape == want.shape == (n, w + n) and np.array_equal(R, want)
            rank = sum(1 for c in pivots if c < w)
            seen.add(("deficient", 0 < rank < min(n, w)))
            seen.add(("zero row", bool(n) and not np.all(np.any(M, axis=1))))
            seen.add(("shape", (n > w) - (n < w)))
    assert {("deficient", True), ("zero row", True)} <= seen
    assert {("shape", 1), ("shape", -1), ("shape", 0)} <= seen
