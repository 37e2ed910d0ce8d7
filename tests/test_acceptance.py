"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line (run with -s to see them live).  All comparisons are exact;
runtime ceilings are asserted with the stated budgets."""

import random
import time

import numpy as np

from rmcode import linalg
from rmcode.analysis import Analysis
from rmcode.artinian import classify, verify_socle_identities
from rmcode.codes import (
    code_of_degree,
    dual_code,
    gaussian_binomial,
    ghw,
    min_distance,
    weight_matrix,
)
from rmcode.duality import global_duality, gorenstein_crosscheck, self_dual_report
from rmcode.errors import BudgetExceeded, InternalInconsistency
from rmcode.gf import BUILTIN_MODULI, Field
from rmcode.golden import PRIMARY_EXAMPLES, load_entry, run_corpus
from rmcode.indicators import standard_indicators
from rmcode.polyring import GREVLEX, TermOrder, parse_poly
from rmcode.variety import PointSet, hilbert_data, points_parse, vanishing_ideal

from gf_oracle import pow_arr
from pointwise_oracle import rescaled


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _pipeline(name):
    text, expected = load_entry(name)
    X, order = points_parse(text)
    return Analysis(X, order or GREVLEX), expected


def test_criterion_1_golden_corpus():
    t0 = time.time()
    results = run_corpus()
    elapsed = time.time() - t0
    failures = [(r.name, r.failures()) for r in results if not r.passed]
    checks = sum(len(r.checks) for r in results)
    _report(
        1,
        not failures and elapsed < 5.0,
        f"{len(results)} corpus entries, {checks} checks, {elapsed:.2f}s"
        + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_2_weight_matrices():
    t0 = time.time()
    budget = 10**6
    ok = True
    details = []
    for name in ("ten_points_p2_f3", "seven_points_p2_f3"):
        A, expected = _pipeline(name)
        X, hd = A.X, A.hd
        wm = weight_matrix(A, budget=budget)
        want = expected["weight_matrix"]
        for d in range(1, hd.r0 + 1):
            k = hd.H[d]
            for r in range(1, X.m + 1):
                cell = wm.cell(d, r)
                w = want[d - 1][r - 1]
                if w == "inf":
                    ok = ok and cell.kind == "infinity"
                    continue
                ok = ok and cell.kind == "exact" and cell.value == w
                if gaussian_binomial(k, r, X.field.q) <= budget:
                    ok = ok and cell.method == "brute"
        ok = ok and wm.all_exact()
        if expected.get("footprint_equals_weights"):
            for d in range(1, hd.r0 + 1):
                for r in range(1, hd.H[d] + 1):
                    ok = ok and wm.fp[d - 1][r - 1] == want[d - 1][r - 1]
        details.append(f"{name}: {hd.r0}x{X.m} all exact")
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 60.0, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_3_duality_certificates():
    t0 = time.time()
    ok = True
    details = []
    holding = {
        "ci_four_points": ("-1", "-1", "1", "1"),
        "affine_plane_f3": ("1",) * 9,
        "gorenstein_five_points": ("-1", "-1", "-1", "1", "-1"),
        "torus_p1_f5": ("-1", "3", "-3", "1"),
    }
    for name, beta_text in holding.items():
        A, _ = _pipeline(name)
        X, hd = A.X, A.hd
        cert = global_duality(A)
        good = cert.holds and cert.verified_degrees == list(range(hd.r0 + 1))
        want = [X.field.parse_element(t) for t in beta_text]
        ratios = {X.field.div(int(g), int(e)) for g, e in zip(cert.beta, want)}
        good = good and len(ratios) == 1 and 0 not in ratios
        ok = ok and good
        details.append(f"{name}: holds, beta up to scalar")
    cert = global_duality(_pipeline("ten_points_p2_f3")[0])
    good = (
        not cert.holds
        and cert.failure_witness["reason"] == "v_number_below_regularity"
        and cert.failure_witness["v"] == 3
        and cert.failure_witness["r0"] == 4
    )
    ok = ok and good
    details.append("ten_points_p2_f3: fails with v=3 < r0=4")
    elapsed = time.time() - t0
    _report(3, ok and elapsed < 5.0, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_4_self_dual_classification():
    t0 = time.time()
    ok = True
    details = []
    for name, so, sd in (
        ("projective_line_f9", [4], [4]),
        ("projective_plane_f3", [1, 2], []),
        ("selfdual_f4", [0, 1], [1]),
    ):
        rep = self_dual_report(_pipeline(name)[0])
        ok = ok and rep["self_orthogonal_degrees"] == so
        ok = ok and rep["self_dual_degrees"] == sd
        details.append(f"{name}: so={rep['self_orthogonal_degrees']} sd={rep['self_dual_degrees']}")
    elapsed = time.time() - t0
    _report(4, ok and elapsed < 10.0, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_5_gorenstein_pipeline():
    t0 = time.time()
    ok = True
    details = []

    A, _ = _pipeline("gorenstein_not_ci")
    X, gb, hd = A.X, A.gb, A.hd
    cls = classify(A, h=parse_poly(X.field, X.s, "t1+t4"))
    from rmcode.groebner import minimal_generator_count
    from rmcode.polyring import parse_monomial

    good = cls.gorenstein and minimal_generator_count(gb, hd.r0) != X.s - 1
    good = good and cls.socle_monomial == parse_monomial(4, "t3*t4")
    good = good and [g.to_str() for _, g in cls.socle] == ["t3*t4"]
    rep = verify_socle_identities(A, cls)
    good = good and all(lam != 0 for lam in rep["lambdas"])
    ok = ok and good
    details.append("socle K(t3*t4+J), every f_i remainder a unit multiple of t3*t4")

    cls = classify(_pipeline("projective_plane_f3")[0])
    good = cls.type_ == 2 and cls.s_number == 3 and not cls.level
    ok = ok and good
    details.append(f"plane: type={cls.type_} s_number={cls.s_number} level={cls.level}")

    # the duality <-> Gorenstein equivalence must hold on every example
    # (no InternalInconsistency, i.e. nothing that would exit 4)
    agree = 0
    for name in PRIMARY_EXAMPLES:
        A, _ = _pipeline(name)
        cert = global_duality(A)
        cls = classify(A)
        try:
            gorenstein_crosscheck(cert, cls)
        except InternalInconsistency:
            ok = False
            details.append(f"{name}: crosscheck contradiction")
            continue
        agree += 1
    details.append(f"crosscheck agreed on {agree}/{len(PRIMARY_EXAMPLES)} examples")
    elapsed = time.time() - t0
    _report(5, ok and agree == len(PRIMARY_EXAMPLES), "; ".join(details) + f", {elapsed:.2f}s")


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _field_for(q):
    for p in (2, 3, 5, 7):
        if q % p == 0 and q != p:
            k = 0
            qq = q
            while qq > 1:
                qq //= p
                k += 1
            return Field(p, k)
    return Field(q)


def _random_pointset(rng, field, s, m_target):
    rows, seen = [], set()
    while len(rows) < m_target:
        row = tuple(rng.randrange(field.q) for _ in range(s))
        if all(x == 0 for x in row):
            continue
        last = max(i for i, x in enumerate(row) if x)
        key = tuple(field.mul(x, field.inv(row[last])) for x in row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
    return PointSet(field, rows, canonicalize=False)


def test_criterion_6_property_suites():
    t0 = time.time()
    notes = []

    # field axioms, exhaustive for every q <= 81
    for q in sorted([p for p in range(2, 82) if _is_prime(p)] + sorted(BUILTIN_MODULI)):
        F = _field_for(q)
        xs = np.arange(q)
        A = np.broadcast_to(xs[:, None, None], (q, q, q))
        B = np.broadcast_to(xs[None, :, None], (q, q, q))
        C = np.broadcast_to(xs[None, None, :], (q, q, q))
        assert np.array_equal(
            F.add_arr(F.add_arr(A, B), C), F.add_arr(A, F.add_arr(B, C))
        )
        assert np.array_equal(
            F.mul_arr(F.mul_arr(A, B), C), F.mul_arr(A, F.mul_arr(B, C))
        )
        assert np.array_equal(
            F.mul_arr(A, F.add_arr(B, C)),
            F.add_arr(F.mul_arr(A, B), F.mul_arr(A, C)),
        )
        assert np.all(pow_arr(F, xs[1:], q - 1) == 1)
    notes.append("field axioms exhaustive q<=81")

    # order axioms: 1000 random triples per order
    rng = random.Random(11111)
    for order in (
        TermOrder("grevlex"),
        TermOrder("glex"),
        TermOrder("grevlex", (4, 2, 6, 1, 3, 5)),
        TermOrder("glex", (6, 5, 4, 3, 2, 1)),
    ):
        s, one = 6, (0,) * 6

        def rand_mono():
            m = [0] * s
            for _ in range(rng.randint(0, 8)):
                m[rng.randrange(s)] += 1
            return tuple(m)

        for _ in range(1000):
            u, v, w = rand_mono(), rand_mono(), rand_mono()
            assert order.compare(u, v) == -order.compare(v, u)
            if order.compare(u, v) <= 0 and order.compare(v, w) <= 0:
                assert order.compare(u, w) <= 0
            assert order.compare(one, u) <= 0
            if order.compare(u, v) < 0:
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert order.compare(uw, vw) < 0
    notes.append("order axioms 1000 triples x 4 orders")

    # representative independence on 100 random point sets, with the
    # Macaulay identity and v(I) = first degree of unit minimum distance
    rng = random.Random(55555)
    fields = {2: Field(2), 3: Field(3), 5: Field(5)}
    checked_delta = 0
    from footprint_oracle import footprint
    from rmcode.polyring import monomials_of_degree

    for trial in range(100):
        q = rng.choice([2, 3, 5])
        f = fields[q]
        s = rng.choice([2, 3])
        m = rng.randint(2, min(8, (q**s - 1) // (q - 1)))
        X = _random_pointset(rng, f, s, m)
        gb = vanishing_ideal(X)
        hd = hilbert_data(gb, X.m, nvars=s)
        lam = [rng.randrange(1, q) for _ in range(m)]
        Y = rescaled(X, lam)
        gb2 = vanishing_ideal(Y)
        assert gb2.gens == gb.gens
        assert hilbert_data(gb2, m, nvars=s) == hd
        # Macaulay identity via the full evaluation-matrix kernel
        for d in range(1, hd.r0 + 2):
            monos = list(monomials_of_degree(s, d))
            kernel = linalg.nullspace(f, X.eval_monomials(monos).T)
            H_d = hd.H[d] if d <= hd.r0 else m
            assert len(monos) - kernel.shape[0] == H_d
        if trial % 5 == 0:
            isx = standard_indicators(Analysis(X))
            try:
                deltas = {
                    d: min_distance(code_of_degree(X, gb, d))
                    for d in range(1, hd.r0 + 1)
                }
                deltas2 = {
                    d: min_distance(code_of_degree(Y, gb2, d))
                    for d in range(1, hd.r0 + 1)
                }
            except BudgetExceeded:
                continue
            assert deltas == deltas2
            assert min(d for d, v in deltas.items() if v == 1) == isx.v_number
            for d in range(1, hd.r0 + 1):
                assert footprint(gb, d, 1, nvars=s) == footprint(gb2, d, 1, nvars=s)
            checked_delta += 1
    notes.append(f"100 rescaled point sets ({checked_delta} with full delta profile)")

    # dual involution on 200 random codes
    rng = random.Random(99999)
    pool = [Field(2), Field(3), Field(5), Field(2, 2)]
    for _ in range(200):
        f = rng.choice(pool)
        m = rng.randint(2, 7)
        k = rng.randint(0, m)
        rows = [[rng.randrange(f.q) for _ in range(m)] for _ in range(k)]
        from rmcode.codes import LinearCode

        C = LinearCode.from_rows(f, rows, length=m)
        assert dual_code(dual_code(C)) == C
    notes.append("dual involution on 200 random codes")

    elapsed = time.time() - t0
    _report(6, True, "; ".join(notes) + f", {elapsed:.2f}s")


def test_criterion_7_ghw_regularity_indices():
    t0 = time.time()
    A, _ = _pipeline("seven_points_p2_f3")
    X, hd = A.X, A.hd
    values = {}
    for d in range(1, hd.r0 + 1):
        C = A.code(d)
        assert gaussian_binomial(C.dimension, C.dimension // 2, X.field.q) <= 10**6
        for r in range(1, C.dimension + 1):
            values[(d, r)] = ghw(C, r, limit=10**6)
    R = [
        min(d for d in range(1, hd.r0 + 1) if values.get((d, r)) == r)
        for r in range(1, X.m + 1)
    ]
    ok = R == list(A.isx.v_sorted)
    elapsed = time.time() - t0
    _report(7, ok, f"brute-force R={R} equals sorted v-numbers, {elapsed:.2f}s")
