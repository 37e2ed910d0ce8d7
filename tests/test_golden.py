"""The golden corpus: every stored fact is read, by the runner's comparison
table against the ``analyze`` report or here, and a changed stored value
shows up as a divergence on its key.

The facts the report does not carry are checked here on the same JSON
files: footprints, dual pairs built directly, other regular linear forms,
local duality with its spans, and the monomial-equivalence witness of a
monomially self-dual degree."""

import copy
import random

import numpy as np
import pytest

from rmcode.analysis import Analysis
from rmcode.codes import LinearCode
from rmcode import duality
from rmcode.golden import CORPUS, TABLE, load_entry, run_entry, stored_facts
from rmcode.groebner import generates, standard_monomials_upto
from rmcode.polyring import GREVLEX, Poly, TermOrder, monomials_of_degree, parse_monomial, parse_poly
from rmcode.variety import points_parse

from duality_oracle import monomially_equivalent
from groebner_oracle import buchberger

ENTRIES = {name: load_entry(name) for name in CORPUS}


def _analysis(name):
    X, order = points_parse(ENTRIES[name][0])
    return Analysis(X, order or GREVLEX)


def _elements(f, texts):
    return [f.parse_element(t) for t in texts]


# -- the facts that the report does not carry ---------------------------------


def check_footprints(A, entry):
    s = A.X.s
    return all(
        sorted(parse_monomial(s, t) for t in monos)
        == sorted(standard_monomials_upto(A.gb, s, int(d))[int(d)])
        for d, monos in entry["footprints"].items()
    )


def check_dual_pairs_direct(A, entry):
    return all(A.dual(d1) == A.code(d2) for d1, d2 in entry["dual_pairs_direct"])


def check_other_regular_forms(A, entry):
    """Each form vanishes at no point, so it is regular on S/I(X)."""
    f, s = A.X.field, A.X.s
    return all(
        np.all(A.X.eval_polys([parse_poly(f, s, t)])) for t in entry["other_regular_forms"]
    )


def _gammas(A, lx):
    s = A.X.s
    return [parse_monomial(s, t) for t in lx["gamma1"]], [parse_monomial(s, t) for t in lx["gamma2"]]


def check_local_duality(A, entry):
    lx = entry["local_duality"]
    g1, g2 = _gammas(A, lx)
    t_e = parse_monomial(A.X.s, lx["t_e"])
    # called through its module, so a test that rebinds it sees this call
    rep = duality.local_duality_verify(A, g1, g2, t_e, projective_mode=lx["projective_mode"])
    return rep["gamma"] == _elements(A.X.field, lx["gamma"])


def _check_span(i):
    def check(A, entry):
        """ev(Gamma_i) spans the stored rows."""
        lx = entry["local_duality"]
        X, f = A.X, A.X.field
        rows = [_elements(f, row) for row in lx[f"ev_gamma{i}_span"]]
        got = LinearCode.from_rows(f, X.eval_monomials(_gammas(A, lx)[i - 1]), length=X.m)
        return LinearCode.from_rows(f, rows, length=X.m) == got

    return check


TEST_SIDE = {
    "footprints": check_footprints,
    "dual_pairs_direct": check_dual_pairs_direct,
    "other_regular_forms": check_other_regular_forms,
    "local_duality.gamma": check_local_duality,
    "local_duality.ev_gamma1_span": _check_span(1),
    "local_duality.ev_gamma2_span": _check_span(2),
}
# read by the local-duality checks as their input, not compared
LOCAL_DUALITY_INPUTS = {f"local_duality.{k}" for k in ("gamma1", "gamma2", "t_e", "projective_mode")}
# read by the runner into its request: the regular linear form of the
# Artinian reduction
REQUEST_KEYS = {"artinian_h"}

STORED_KEYS = [(name, key) for name in CORPUS for key, _ in stored_facts(ENTRIES[name][1])]
TABLE_STORED = [(n, k) for n, k in STORED_KEYS if k in TABLE]
TEST_STORED = [(n, k) for n, k in STORED_KEYS if k in TEST_SIDE]


def test_every_stored_key_is_read():
    """A mistyped key would be read by nothing and pass unchecked."""
    read = set(TABLE) | set(TEST_SIDE) | LOCAL_DUALITY_INPUTS | REQUEST_KEYS
    assert sorted({k for _, k in STORED_KEYS} - read) == []
    # and every comparison has a fact to compare
    assert set(TABLE) | set(TEST_SIDE) <= {k for _, k in STORED_KEYS}


def test_corpus_counts():
    assert len(TABLE_STORED) == 175
    assert len(TEST_STORED) == 9


@pytest.mark.parametrize("name,key", TEST_STORED)
def test_test_side_fact_holds(name, key):
    assert TEST_SIDE[key](_analysis(name), ENTRIES[name][1])


def _monomial_witnesses(name):
    entry = ENTRIES[name][1]
    return entry.get("monomially_self_dual_degrees", []), entry["duality"].get("beta")


WITNESSED = [n for n in CORPUS if all(_monomial_witnesses(n))]


@pytest.mark.parametrize("name", WITNESSED)
def test_monomially_self_dual_degrees_carry_the_duality_witness(name):
    """C_X(d)^perp = beta . C_X(d) in each monomially self-dual degree d,
    with the stored beta."""
    A = _analysis(name)
    degrees, beta = _monomial_witnesses(name)
    beta = _elements(A.X.field, beta)
    assert all(monomially_equivalent(A.code(d), A.dual(d), beta) for d in degrees)
    # beta with one entry doubled, still nonzero over F_5
    bad = [A.X.field.mul(beta[0], 2)] + beta[1:]
    assert not any(monomially_equivalent(A.code(d), A.dual(d), bad) for d in degrees)


def test_corpus_has_a_witnessed_degree():
    assert WITNESSED == ["torus_p1_f5"]


# -- a changed stored value is a divergence on its key -------------------------


def _failed_checks(name, expected):
    return {check for check, _ in run_entry(name, expected=expected).failures()}


def _get(entry, key):
    for part in key.split("."):
        entry = entry[part]
    return entry


def _with(entry, key, value):
    out = copy.deepcopy(entry)
    *parents, last = key.split(".")
    node = out
    for part in parents:
        node = node[part]
    node[last] = value
    return out


POLY_LISTS = {"gb", "ideal_gens", "indicators"}
ELEMENT_LISTS = {"indicator_values", "duality.beta", "socle.remainder_lambdas", "local_duality.gamma"}


def _vanishing_form(X):
    """A nonzero linear form that vanishes at the first point of X."""
    P = [int(x) for x in X.coords[0]]
    k = max(i for i, x in enumerate(P) if x)  # P[k] = 1
    if k == 0:
        return "t2"
    return f"t1-({X.field.format_element(P[0])})*t{k + 1}"


def _corrupted(name, key):
    """The stored value of ``key`` changed into another valid value."""
    text, entry = ENTRIES[name]
    X, _ = points_parse(text)
    f, value = X.field, _get(entry, key)

    def bumped(t):
        return f.format_element(f.add(f.parse_element(t), 1))

    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if key in POLY_LISTS:
        first = parse_poly(f, X.s, value[0])
        return [f"{value[0]}+t1^{first.homogeneous_degree()}"] + value[1:]
    if key in ELEMENT_LISTS:
        return [bumped(value[0])] + value[1:]
    if key.startswith("local_duality.ev_gamma"):
        return [[bumped(value[0][0])] + value[0][1:]] + value[1:]
    if key == "essential":
        return value + ["t1^99"]
    if key == "socle.socle_monomial":
        return f"{value}*t1"
    if key == "duality.failure_reason":
        return "not_" + value
    if key == "min_distance":
        return {d: v + 1 for d, v in value.items()}
    if key == "footprints":
        return {d: v + ["t1^99"] for d, v in value.items()}
    if key == "weight_matrix":
        return [[value[0][0] + 1] + value[0][1:]] + value[1:]
    if key == "dual_pairs_direct":
        return [[d1, d2 + 1] for d1, d2 in value]
    if key == "other_regular_forms":
        return value + [_vanishing_form(X)]
    if all(isinstance(v, int) for v in value):
        return value + [max(value, default=0) + 1]
    raise AssertionError(f"no corruption for {key}")


@pytest.mark.parametrize("name,key", TABLE_STORED)
def test_changed_stored_value_diverges(name, key):
    bad = _with(ENTRIES[name][1], key, _corrupted(name, key))
    assert _failed_checks(name, bad) == {key}


@pytest.mark.parametrize("name,key", TEST_STORED)
def test_changed_test_side_fact_fails(name, key):
    bad = _with(ENTRIES[name][1], key, _corrupted(name, key))
    assert not TEST_SIDE[key](_analysis(name), bad)


# -- stored generators ----------------------------------------------------------

STORED = [(n, k) for n, k in TABLE_STORED if k in ("gb", "ideal_gens")]


def test_corpus_stores_eleven_generator_lists():
    assert len(STORED) == 11
    assert [n for n, key in STORED if key == "ideal_gens"] == ["selfdual_f4"]


@pytest.mark.parametrize("name,key", [(n, k) for n, k in STORED if len(ENTRIES[n][1][k]) > 1])
def test_dropped_stored_generator_fails(name, key):
    expected = ENTRIES[name][1]
    for i in range(len(expected[key])):
        bad = copy.deepcopy(expected)
        del bad[key][i]
        assert key in _failed_checks(name, bad)


@pytest.mark.parametrize("name", [n for n, key in STORED if key == "gb"])
def test_stored_basis_passes_in_any_order(name):
    shuffled = copy.deepcopy(ENTRIES[name][1])
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
        X, _ = points_parse(ENTRIES[name][0])
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
