"""Seeded randomized suites tying the modules together."""

import random

from rmcode.analysis import Analysis
from groebner_oracle import eval_polys
from interpolation_oracle import code_of_degree, indicator_polys
from rmcode.codes import min_distance
from rmcode.errors import BudgetExceeded
from rmcode.gf import Field
from rmcode.indicators import standard_indicators
from rmcode.variety import PointSet, hilbert_data, vanishing_ideal


def _random_pointset(rng, field, s, m_target):
    rows = []
    seen = set()
    while len(rows) < m_target:
        row = tuple(rng.randrange(field.q) for _ in range(s))
        if all(x == 0 for x in row):
            continue
        last = max(i for i, x in enumerate(row) if x)
        key = tuple(field.mul(x, field.inv(row[last])) for x in row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(key)
    return PointSet(field, rows, canonicalize=False)


def test_v_number_is_min_distance_regularity():
    """v(I) equals the first degree where the minimum distance reaches 1."""
    rng = random.Random(13579)
    fields = {2: Field(2), 3: Field(3), 5: Field(5)}
    for trial in range(40):
        q = rng.choice([2, 3, 5])
        f = fields[q]
        s = rng.choice([2, 3])
        m = rng.randint(2, min(8, (q**s - 1) // (q - 1)))
        X = _random_pointset(rng, f, s, m)
        gb = vanishing_ideal(X).gb
        hd = hilbert_data(gb, X.m, nvars=s)
        isx = standard_indicators(Analysis(X))
        try:
            deltas = {
                d: min_distance(code_of_degree(X, gb, d))
                for d in range(1, hd.r0 + 1)
            }
        except BudgetExceeded:
            continue
        reg_delta = min(d for d, v in deltas.items() if v == 1)
        assert reg_delta == isx.v_number
        # the stabilized tail stays at 1 and the head strictly decreases
        vals = [X.m] + [deltas[d] for d in range(1, hd.r0 + 1)]
        for i in range(len(vals) - 1):
            if vals[i] > 1:
                assert vals[i] > vals[i + 1]
            else:
                assert vals[i + 1] == 1


def test_hilbert_strictly_increasing_until_m():
    rng = random.Random(2468)
    fields = {2: Field(2), 3: Field(3), 5: Field(5)}
    for trial in range(40):
        q = rng.choice([2, 3, 5])
        f = fields[q]
        s = rng.choice([2, 3])
        m = rng.randint(2, min(8, (q**s - 1) // (q - 1)))
        X = _random_pointset(rng, f, s, m)
        gb = vanishing_ideal(X).gb
        hd = hilbert_data(gb, X.m, nvars=s)
        assert hd.H[0] == 1 and hd.H[-1] == m
        assert all(hd.H[i] < hd.H[i + 1] for i in range(hd.r0))
        assert sum(hd.h_vector) == m


def test_indicator_uniqueness_and_span_random():
    rng = random.Random(86420)
    f = Field(3)
    for trial in range(20):
        s = rng.choice([2, 3])
        m = rng.randint(2, min(7, (3**s - 1) // 2))
        X = _random_pointset(rng, f, s, m)
        gb = vanishing_ideal(X).gb
        hd = hilbert_data(gb, X.m, nvars=s)
        isx = standard_indicators(Analysis(X))
        assert max(isx.degrees) == hd.r0
        vecs = eval_polys(X, indicator_polys(isx))
        # the indicator matrix is diagonal with nonzero diagonal
        for i in range(m):
            assert vecs[i][i] != 0
            assert all(vecs[i][j] == 0 for j in range(m) if j != i)
