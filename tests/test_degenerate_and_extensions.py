"""Edge geometry (points inside a hyperplane), non-table scalar extensions,
and a medium random instance through the whole pipeline."""

import random

import numpy as np

from rmcode.analysis import Analysis
from rmcode.artinian import classify
from rmcode.duality import global_duality, gorenstein_crosscheck
from rmcode.gf import Field, search_modulus
from rmcode.groebner import minimal_generator_count
from rmcode.polyring import parse_poly
from rmcode.variety import PointSet, points_full_projective


def test_search_modulus_outside_table():
    mod = search_modulus(11, 2)
    F121 = Field(11, 2, mod)
    assert F121.q == 121
    assert F121.pow_(F121.generator, 120) == 1
    # x^2 + 1 is the smallest monic irreducible quadratic over F_11
    assert mod == (1, 0, 1)


def test_classification_through_f121():
    F11 = Field(11)
    A = Analysis(points_full_projective(2, F11))
    cls = classify(A)
    assert cls.extension_degree == 2
    assert cls.gorenstein  # principal vanishing ideal, a complete intersection
    assert minimal_generator_count(A.gb, A.hd.r0) == 1


def test_points_inside_hyperplane(F3):
    """Coplanar points: the ideal picks up a linear form and the whole
    pipeline still runs (this is a projective line in disguise)."""
    A = Analysis(PointSet(F3, [[0, 1, 0], [0, 0, 1], [0, 1, 1], [0, 1, 2]]))
    assert A.gb.to_strings() == ["t1", "t2^3*t3-t2*t3^3"]
    assert A.hd.H == (1, 2, 3, 4)
    assert A.isx.degrees == [3, 3, 3, 3]
    cert = global_duality(A)
    assert cert.holds
    cls = classify(A)
    # the full line over F_3 admits no avoiding form over the base field
    assert cls.extension_degree == 2 and cls.gorenstein
    gorenstein_crosscheck(cert, cls)


def test_char2_extension_path():
    F2 = Field(2)
    cls = classify(Analysis(points_full_projective(2, F2)))
    assert cls.extension_degree == 2
    assert cls.h == parse_poly(cls.h.field, 2, "t1+a*t2")
    assert cls.gorenstein


def test_medium_random_instance_crosscheck(F5):
    """A 20-point set in P^3: every certified relation must hold together."""
    rng = random.Random(1)
    rows, seen = [], set()
    while len(rows) < 20:
        row = tuple(rng.randrange(5) for _ in range(4))
        if not any(row):
            continue
        last = max(i for i, x in enumerate(row) if x)
        key = tuple(F5.mul(x, F5.inv(row[last])) for x in row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(key)
    X = PointSet(F5, rows, canonicalize=False)
    A = Analysis(X)
    assert sum(A.hd.h_vector) == 20
    assert max(A.isx.degrees) == A.hd.r0
    cert = global_duality(A)
    cls = classify(A)
    assert gorenstein_crosscheck(cert, cls) in (True, False)
    assert not np.any(X.eval_polys(A.gb.gens))
