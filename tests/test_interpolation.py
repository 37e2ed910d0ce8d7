"""One elimination per degree against the per-degree routes it replaced:
the basis of I(X) with its generator and term order, every C_X(d), the
staircase layers and the monic indicators with their values and degrees."""

import random

import numpy as np
import pytest

from interpolation_oracle import (
    code_of_degree,
    indicator_polys,
    indicators_by_solving,
    vanishing_ideal_by_steps,
)
from rmcode import variety
from rmcode.analysis import Analysis
from rmcode.artinian import _first_regular_form
from rmcode.errors import InternalInconsistency
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.groebner import standard_monomials_upto
from rmcode.polyring import GREVLEX, TermOrder
from rmcode.variety import PointSet, points_full_projective, points_parse, points_torus


def _assert_matches_the_per_degree_routes(X, order):
    A = Analysis(X, order)
    gb, r0 = A.gb, A.hd.r0
    old = vanishing_ideal_by_steps(X, order)
    assert gb.leads == old.leads
    assert all(np.array_equal(a, b) for a, b in zip(gb.rows, old.rows, strict=True))
    layers = standard_monomials_upto(gb, X.s, r0)
    assert [std for std, _, _ in A.ideal.separators] == layers
    for d in range(-1, r0 + 2):
        C, want = A.code(d), code_of_degree(X, gb, d)
        assert C == want and C.basis.shape == want.basis.shape
    isx = A.isx
    got = (indicator_polys(isx), isx.values, isx.degrees, isx.essential)
    assert got == indicators_by_solving(X, gb, r0)


@pytest.mark.parametrize("order", [GREVLEX, TermOrder("glex")], ids=["grevlex", "glex"])
@pytest.mark.parametrize("name", CORPUS)
def test_one_elimination_per_degree_matches_the_per_degree_routes_on_corpus(name, order):
    X, file_order = points_parse(load_entry(name)[0])
    _assert_matches_the_per_degree_routes(X, file_order or order)
    _assert_matches_the_per_degree_routes(X, order)


def _random_points(rng, F, s, m):
    rows = set()
    while len(rows) < m:
        row = tuple(rng.randrange(F.q) for _ in range(s))
        if any(row):
            rows.add(row)
    return PointSet(F, sorted(rows), dedup=True)


def test_one_elimination_per_degree_matches_the_per_degree_routes_on_random_sets():
    """48 seeded sets over prime and extension fields, half under grevlex
    and half under glex, and whole projective spaces and tori; many have a
    point where t_s is 0, and several have no linear form over F_q without
    a zero on them."""
    rng = random.Random(2323)
    fields = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(3, 2), Field(2, 3)]
    cases = []
    for trial in range(48):
        F = fields[trial % len(fields)]
        s = rng.choice([2, 3, 4] if F.q <= 3 else [2, 3])
        m = rng.randint(2, min(16, (F.q**s - 1) // (F.q - 1)))
        kind = "grevlex" if trial % 2 else "glex"
        perm = tuple(rng.sample(range(1, s + 1), s))
        cases.append((_random_points(rng, F, s, m), TermOrder(kind, perm)))
    for F in (Field(2), Field(3), Field(2, 2)):
        cases.append((points_full_projective(3, F), GREVLEX))
        cases.append((points_full_projective(2, F), TermOrder("glex")))
    cases.append((points_torus(3, Field(5)), GREVLEX))
    cases.append((points_torus(3, Field(2, 2)), TermOrder("glex", (3, 1, 2))))
    ts_zero = no_form = 0
    for X, order in cases:
        _assert_matches_the_per_degree_routes(X, order)
        ts_zero += bool(np.any(X.coords[:, -1] == 0))
        no_form += _first_regular_form(X) is None
    assert len(cases) >= 40 and ts_zero >= 20 and no_form >= 8


@pytest.mark.parametrize(
    "corrupt, read, message",
    [
        # a basis row lost from C_X(d) in a degree below r0
        (lambda out: (out[0][:-1] if len(out[0]) > 1 else out[0], *out[1:]),
         lambda A: [A.code(d) for d in range(A.hd.r0)], "dim C_X"),
        # no point found separated in any degree
        (lambda out: (*out[:3], [], out[4][:0]),
         lambda A: A.isx, "solvable at degree r0"),
    ],
    ids=["code-dimension", "unseparated-point"],
)
def test_a_corrupted_elimination_trips_its_trap(corrupt, read, message, monkeypatch):
    step = variety.transform_step
    monkeypatch.setattr(variety, "transform_step", lambda *a: corrupt(step(*a)))
    X, _ = points_parse(load_entry("ten_points_p2_f3")[0])
    A = Analysis(X, TermOrder("glex", (3, 2, 1)))
    with pytest.raises(InternalInconsistency, match=message):
        read(A)
