"""The golden corpus's comparison of stored generators: a stored ``gb`` is
the reduced basis itself, stored ``ideal_gens`` are compared as an ideal by
linear algebra, and both catch a corrupted or a missing generator."""

import copy
import random

import pytest

from rmcode.analysis import Analysis
from rmcode.golden import CORPUS, load_entry, run_entry
from rmcode.groebner import generates
from rmcode.polyring import GREVLEX, Poly, TermOrder, monomials_of_degree, parse_poly
from rmcode.variety import points_parse

from groebner_oracle import buchberger

STORED = [
    (name, key)
    for name in CORPUS
    for key in ("gb", "ideal_gens")
    if key in load_entry(name)[1]
]


def _failed_checks(name, expected):
    return {check for check, _ in run_entry(name, expected=expected).failures()}


def test_corpus_stores_eleven_generator_lists():
    assert len(STORED) == 11
    assert [n for n, key in STORED if key == "ideal_gens"] == ["selfdual_f4"]


@pytest.mark.parametrize("name,key", STORED)
def test_corrupted_stored_generator_fails(name, key):
    text, expected = load_entry(name)
    X, _ = points_parse(text)
    first = parse_poly(X.field, X.s, expected[key][0])
    bad = copy.deepcopy(expected)
    bad[key][0] += f"+t1^{first.homogeneous_degree()}"
    assert key in _failed_checks(name, bad)


@pytest.mark.parametrize("name,key", [(n, k) for n, k in STORED if len(load_entry(n)[1][k]) > 1])
def test_dropped_stored_generator_fails(name, key):
    _, expected = load_entry(name)
    for i in range(len(expected[key])):
        bad = copy.deepcopy(expected)
        del bad[key][i]
        assert key in _failed_checks(name, bad)


@pytest.mark.parametrize("name", [n for n, key in STORED if key == "gb"])
def test_stored_basis_passes_in_any_order(name):
    _, expected = load_entry(name)
    shuffled = copy.deepcopy(expected)
    random.Random(name).shuffle(shuffled["gb"])
    assert "gb" not in _failed_checks(name, shuffled)


def _random_member(rng, gb, d):
    """A random F_q-combination of the degree-d products g*w of the basis."""
    f, nv = gb.field, gb.nvars
    out = Poly.zero(f, nv)
    for g in gb.gens:
        dw = d - g.homogeneous_degree()
        if dw >= 0:
            for w in monomials_of_degree(nv, dw):
                out = out + g.mul_term(w, rng.randrange(f.q))
    return out


@pytest.mark.parametrize("order", [GREVLEX, TermOrder("glex")], ids=["grevlex", "glex"])
def test_generates_agrees_with_buchberger(order):
    """On random lists of ideal members, some generating I(X) and some a
    proper subideal, the linear-algebra verdict is Buchberger's."""
    rng = random.Random(1101)
    verdicts = []
    for name in CORPUS:
        X, _ = points_parse(load_entry(name)[0])
        gb = Analysis(X, order).gb
        degrees = [g.homogeneous_degree() for g in gb.gens]
        for _ in range(3):
            polys = [
                _random_member(rng, gb, d)
                for d in sorted(set(degrees))
                for _ in range(rng.randint(0, degrees.count(d) + 1))
            ]
            got = generates(polys, gb)
            assert got == (buchberger(polys, order).gens == gb.gens)
            verdicts.append(got)
    assert True in verdicts and False in verdicts
