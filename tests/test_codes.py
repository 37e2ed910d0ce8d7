import itertools
import random
from math import comb

import numpy as np
import pytest

from rmcode import codes, linalg
from rmcode.analysis import Analysis
from rmcode.codes import (
    LinearCode,
    code_of_degree,
    dual_code,
    dual_sweep_size,
    footprint_matrix,
    gaussian_binomial,
    ghw,
    ghw_hierarchy_via_dual,
    macwilliams,
    min_distance,
    monomially_equivalent,
    projective_count,
    weight_distribution,
    weight_matrix,
)
from rmcode.duality import self_orthogonal
from rmcode.errors import BudgetExceeded, InternalInconsistency
from rmcode.gf import Field
from rmcode.golden import CORPUS, load_entry
from rmcode.polyring import GREVLEX, TermOrder
from rmcode.variety import (
    PointSet,
    hilbert_data,
    points_full_projective,
    points_parse,
    vanishing_ideal,
)

from footprint_oracle import footprint, initial_ideal, is_saturated
from pointwise_oracle import rescaled


def test_code_of_degree_zero_and_r0(nine_points):
    X, gb, hd = nine_points.X, nine_points.gb, nine_points.hd
    C0 = code_of_degree(X, gb, 0)
    assert C0.dimension == 1 and C0.basis.tolist() == [[1] * 9]
    Cr = code_of_degree(X, gb, hd.r0)
    assert Cr.dimension == 9


def test_code_dimension_is_hilbert_value(nine_points, seven_points, ten_points):
    for A in (nine_points, seven_points, ten_points):
        X, gb, hd = A.X, A.gb, A.hd
        for d in range(hd.r0 + 2):
            expected = hd.H[d] if d <= hd.r0 else X.m
            assert code_of_degree(X, gb, d).dimension == expected


def test_dual_code_basics(F3):
    full = LinearCode.from_rows(F3, np.eye(4, dtype=np.int64))
    assert dual_code(full).dimension == 0
    ones = LinearCode.from_rows(F3, [[1, 1, 1, 1]])
    D = dual_code(ones)
    assert D.dimension == 3
    assert all(sum(row) % 3 == 0 for row in D.basis.tolist())
    assert dual_code(D) == ones  # involution


def test_dual_one_dimensional_for_four_points(four_points, F3):
    X, gb, hd = four_points.X, four_points.gb, four_points.hd
    D = dual_code(code_of_degree(X, gb, 1))
    gamma = [F3.parse_element(t) for t in ("-1", "-1", "1", "1")]
    assert D == LinearCode.from_rows(F3, [gamma])


def test_min_distance_profile(nine_points):
    X, gb, hd = nine_points.X, nine_points.gb, nine_points.hd
    assert [min_distance(code_of_degree(X, gb, d)) for d in (1, 2, 3, 4)] == [6, 3, 2, 1]


def test_min_distance_full_space(F3):
    assert min_distance(LinearCode.from_rows(F3, np.eye(5, dtype=np.int64))) == 1


def test_min_distance_torus_mds(F5):
    X = PointSet(F5, [[1, 1], [2, 1], [3, 1], [4, 1]])
    gb = vanishing_ideal(X)
    C = code_of_degree(X, gb, 1)
    assert min_distance(C) == 3 == X.m - C.dimension + 1


def test_ghw_examples(ten_points):
    X, gb, hd = ten_points.X, ten_points.gb, ten_points.hd
    assert ghw(code_of_degree(X, gb, 2), 2) == 5
    assert ghw(code_of_degree(X, gb, 1), 3) == 10


def test_ghw_full_space_r(F3):
    full = LinearCode.from_rows(F3, np.eye(6, dtype=np.int64))
    assert [ghw(full, r) for r in range(1, 7)] == list(range(1, 7))


def test_ghw_matches_min_distance(nine_points, seven_points):
    for A in (nine_points, seven_points):
        X, gb, hd = A.X, A.gb, A.hd
        for d in range(1, hd.r0 + 1):
            C = code_of_degree(X, gb, d)
            assert ghw(C, 1) == min_distance(C)


def test_scalar_class_enumeration_oracle(F3, F4):
    """Projective-class minimum and weight distribution equal the full q^k
    sweep on tiny codes."""
    rng = random.Random(31337)
    for f in (F3, F4):
        for _ in range(10):
            k, m = rng.randint(1, 3), rng.randint(2, 6)
            rows = [[rng.randrange(f.q) for _ in range(m)] for _ in range(k)]
            C = LinearCode.from_rows(f, rows, length=m)
            if C.dimension == 0:
                continue
            dist = [0] * (m + 1)
            for msg in itertools.product(range(f.q), repeat=C.dimension):
                cw = np.zeros(m, dtype=np.int64)
                for c, row in zip(msg, C.basis):
                    cw = f.add_arr(cw, f.mul_arr(c, row))
                dist[int((cw != 0).sum())] += 1
            assert weight_distribution(C) == dist
            assert min_distance(C) == _minimum(dist)


def _message_digits(q, n):
    """Every message of n digits base q, digit t of message i in column t."""
    return np.arange(q**n)[:, None] // q ** np.arange(n) % q


def _weight_distribution_per_digit(C):
    """Oracle: the scalar-class sweep adding one digit's row at a time."""
    f, G = C.field, C.basis
    k, m = C.dimension, C.length
    classes = np.zeros(m + 1, dtype=np.int64)
    for lead in range(k):
        digs = _message_digits(f.q, k - lead - 1)
        cw = np.broadcast_to(G[lead], (len(digs), m)).copy()
        for t in range(digs.shape[1]):
            cw = f.add_arr(cw, f.mul_arr(digs[:, t][:, None], G[lead + 1 + t][None, :]))
        classes += np.bincount((cw != 0).sum(axis=1), minlength=m + 1)
    return [1] + [(f.q - 1) * int(c) for c in classes[1:]]


def _ghw_per_slot(C, r):
    """Oracle: the RREF subspace sweep adding one free slot at a time."""
    f, G = C.field, C.basis
    k, m = C.dimension, C.length
    best = m
    for pivots in itertools.combinations(range(k), r):
        slots = [
            (row, col)
            for col in range(k)
            if col not in pivots
            for row, p in enumerate(pivots)
            if p < col
        ]
        digs = _message_digits(f.q, len(slots))
        cw = np.empty((len(digs), r, m), dtype=np.int64)
        for i, p in enumerate(pivots):
            cw[:, i, :] = G[p]
        for t, (row, col) in enumerate(slots):
            cw[:, row, :] = f.add_arr(
                cw[:, row, :], f.mul_arr(digs[:, t][:, None], G[col][None, :])
            )
        best = min(best, int((cw != 0).any(axis=1).sum(axis=1).min()))
    return best


@pytest.mark.parametrize("chunk", [codes._CHUNK, 5])
def test_span_sweeps_match_the_per_digit_oracles(monkeypatch, chunk):
    """weight_distribution and ghw for r = 1..k equal the per-digit and
    per-slot sweeps on random codes over prime and extension fields, in
    one chunk and in chunks of 5 generators."""
    monkeypatch.setattr(codes, "_CHUNK", chunk)
    rng = random.Random(8080)
    fields = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(2, 3), Field(3, 2)]
    for trial in range(42):
        F = fields[trial % len(fields)]
        m = rng.randint(2, 8)
        C = _random_code(rng, F, rng.randint(1, min(m, 4 if F.q < 7 else 3)), m)
        assert weight_distribution(C) == _weight_distribution_per_digit(C)
        for r in range(1, C.dimension + 1):
            assert ghw(C, r) == _ghw_per_slot(C, r)


def test_budget_exceeded(F3):
    C = LinearCode.from_rows(F3, np.eye(10, dtype=np.int64))
    # the dual is zero, yet the budget counts the codewords of C itself
    assert dual_code(C).dimension == 0
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(C, limit=10)
    assert exc.value.required == projective_count(10, 3)
    with pytest.raises(BudgetExceeded):
        ghw(C, 5, limit=10)
    assert gaussian_binomial(10, 5, 3) > 10


def test_dual_involution_random(F3, F4, F5):
    rng = random.Random(424242)
    fields = [F3, F4, F5]
    for _ in range(200):
        f = rng.choice(fields)
        m = rng.randint(2, 7)
        k = rng.randint(0, m)
        rows = [[rng.randrange(f.q) for _ in range(m)] for _ in range(k)]
        C = LinearCode.from_rows(f, rows, length=m)
        assert dual_code(dual_code(C)) == C
        assert dual_code(C).dimension == m - C.dimension


def test_footprint_examples(ten_points):
    X, gb, hd = ten_points.X, ten_points.gb, ten_points.hd
    assert footprint(gb, hd.r0, 1, nvars=X.s) == 1
    assert footprint(gb, hd.r0, 10, nvars=X.s) == 10
    assert footprint(gb, 2, 2, nvars=X.s) == 5


def test_weight_matrix_rows_at_r0(seven_points):
    X, hd = seven_points.X, seven_points.hd
    wm = weight_matrix(seven_points)
    last_row = [wm.cell(hd.r0, r) for r in range(1, X.m + 1)]
    assert [c.value for c in last_row] == list(range(1, X.m + 1))


def test_weight_matrix_honest_intervals_under_tiny_budget(seven_points):
    """With brute force starved, unresolved cells must stay intervals that
    bracket the true value, never a wrong exact value."""
    X, hd = seven_points.X, seven_points.hd
    full = weight_matrix(seven_points)
    starved = weight_matrix(seven_points, budget=1)
    for d in range(1, hd.r0 + 1):
        for r in range(1, X.m + 1):
            truth = full.cell(d, r)
            cell = starved.cell(d, r)
            if truth.kind == "infinity":
                assert cell.kind == "infinity"
                continue
            if cell.kind == "exact":
                assert cell.value == truth.value
            else:
                assert cell.lo <= truth.value <= cell.hi


def test_weight_matrix_traps_a_footprint_above_the_truth(seven_points):
    """A footprint row above delta trips the brute-force check, and, with no
    cell enumerated, the interval check of the propagation."""
    X, gb, hd = seven_points.X, seven_points.gb, seven_points.hd
    fp = [[X.m] * len(row) for row in footprint_matrix(X, gb, hd.r0)]
    with pytest.raises(InternalInconsistency, match="footprint bound violated"):
        weight_matrix(seven_points, fp=fp)
    with pytest.raises(InternalInconsistency, match="bound contradiction"):
        weight_matrix(seven_points, budget=0, fp=fp)


def test_weight_matrix_propagation_with_nothing_enumerated():
    """With a budget of 0 the cells below the regularity pins come from the
    footprint, Singleton and the row and column rules alone."""
    X, order = points_parse(load_entry("affine_plane_f3")[0])
    wm = weight_matrix(Analysis(X, order or GREVLEX), budget=0)
    assert wm.render().splitlines() == [
        "[4,7]  [5,8]  [6,9]      ∞      ∞      ∞  ∞  ∞  ∞",
        "[3,4]  [4,5]  [5,6]  [6,7]  [7,8]  [8,9]  ∞  ∞  ∞",
        "    2      3      4      5      6      7  8  9  ∞",
        "    1      2      3      4      5      6  7  8  9",
    ]
    assert [c.method for c in wm.cells[2][:8]] == ["bounds"] * 8


def test_weight_matrix_column_rule_tightens_an_interval(F4):
    """On P^2(F_4) the column rule delta(2, 1) <= delta(1, 1) - 1 is what
    caps cell (2, 1): without it the interval would be [11, 16]."""
    A = Analysis(points_full_projective(3, F4), GREVLEX)
    cell = weight_matrix(A, budget=100).cell(2, 1)
    assert (cell.kind, cell.lo, cell.hi) == ("interval", 11, 15)
    assert min_distance(A.code(2)) == 12  # Sorensen's value for P^2(F_4), d = 2


def test_weight_matrix_infinity_convention(seven_points):
    X, hd = seven_points.X, seven_points.hd
    wm = weight_matrix(seven_points)
    for d in range(1, hd.r0 + 1):
        for r in range(1, X.m + 1):
            assert (wm.cell(d, r).kind == "infinity") == (r > hd.H[d])


def test_representative_independence_of_weights(F3, F5):
    """Rescaled representatives give monomially equivalent codes with the
    same minimum distances and footprint values."""
    rng = random.Random(777)
    for trial in range(12):
        q = rng.choice([3, 5])
        f = Field(q) if q != 3 else F3
        s = rng.choice([2, 3])
        mmax = min(7, (q**s - 1) // (q - 1))
        m = rng.randint(2, mmax)
        rows = []
        seen = set()
        while len(rows) < m:
            row = tuple(rng.randrange(q) for _ in range(s))
            if all(x == 0 for x in row):
                continue
            last = max(i for i, x in enumerate(row) if x)
            key = tuple(f.mul(x, f.inv(row[last])) for x in row)
            if key in seen:
                continue
            seen.add(key)
            rows.append(row)
        X = PointSet(f, rows, canonicalize=False)
        lam = [rng.randrange(1, q) for _ in range(m)]
        Y = rescaled(X, lam)
        gbX, gbY = vanishing_ideal(X), vanishing_ideal(Y)
        hdX = hilbert_data(gbX, m, nvars=s)
        for d in range(1, hdX.r0 + 1):
            CX, CY = code_of_degree(X, gbX, d), code_of_degree(Y, gbY, d)
            lam_d = [f.pow_(c, d) for c in lam]
            assert monomially_equivalent(CX, CY, lam_d)
            assert min_distance(CX) == min_distance(CY)
            for r in (1, min(2, CX.dimension)):
                assert footprint(gbX, d, r, nvars=s) == footprint(gbY, d, r, nvars=s)


def test_monomial_equivalence_identity(F3):
    C = LinearCode.from_rows(F3, [[1, 0, 2], [0, 1, 1]])
    assert monomially_equivalent(C, C, [1, 1, 1])


def test_monomial_equivalence_torus_witness(F5):
    X = PointSet(F5, [[1, 1], [2, 1], [3, 1], [4, 1]])
    gb = vanishing_ideal(X)
    C1 = code_of_degree(X, gb, 1)
    beta = [F5.parse_element(t) for t in ("-1", "3", "-3", "1")]
    assert monomially_equivalent(C1, dual_code(C1), beta)


def _golden_point_sets():
    for name in CORPUS:
        X, order = points_parse(load_entry(name)[0])
        yield name, X, order or GREVLEX


def _random_point_set(f, s, m, rng):
    rows = set()
    while len(rows) < m:
        row = tuple(rng.randrange(f.q) for _ in range(s))
        if any(row):
            rows.add(row)
    return PointSet(f, sorted(rows), dedup=True)


def _direct_hierarchy(C, limit):
    """{r: d_r(C)} by direct enumeration, for the r within the limit."""
    k, q = C.dimension, C.field.q
    return {
        r: ghw(C, r, limit=limit)
        for r in range(1, k + 1)
        if gaussian_binomial(k, r, q) <= limit
    }


def _check_wei(C, limit):
    """The Wei-route hierarchy equals direct enumeration on every cell within
    the limit; returns whether the partition was checked in full."""
    k, m = C.dimension, C.length
    direct = _direct_hierarchy(C, limit)
    if dual_sweep_size(C) <= limit:
        row = ghw_hierarchy_via_dual(C)
        assert len(row) == k
        assert all(row[r - 1] == w for r, w in direct.items())
    dual = _direct_hierarchy(dual_code(C), limit)
    if len(direct) < k or len(dual) < m - k:
        return False
    mirrored = {m + 1 - w for w in dual.values()}
    assert len(mirrored) == m - k
    assert set(direct.values()) | mirrored == set(range(1, m + 1))
    assert not set(direct.values()) & mirrored
    return True


def test_wei_route_on_golden_codes():
    for _, X, order in _golden_point_sets():
        gb = vanishing_ideal(X, order)
        hd = hilbert_data(gb, X.m, nvars=X.s)
        for d in range(0, hd.r0 + 2):
            _check_wei(code_of_degree(X, gb, d), limit=20_000)


def test_wei_route_on_random_codes(F3, F4, F5):
    rng = random.Random(20230826)
    fields = [Field(2), F3, F4, F5]
    full = 0
    kinds = set()
    for trial in range(240):
        f = fields[trial % 4]
        m = rng.randint(1, 8)
        k = rng.randint(0, m)
        rows = [[rng.randrange(f.q) for _ in range(m)] for _ in range(k)]
        C = LinearCode.from_rows(f, rows, length=m)
        kinds.add("zero" if C.dimension == 0 else "full" if C.dimension == m else "proper")
        full += _check_wei(C, limit=20_000)
    assert kinds == {"zero", "full", "proper"}
    assert full >= 200


def test_wei_route_rejects_a_broken_partition(F3, monkeypatch):
    import rmcode.codes as codes
    from rmcode.errors import InternalInconsistency

    C = LinearCode.from_rows(F3, [[1, 1, 1, 1]])
    monkeypatch.setattr(codes, "ghw", lambda D, s, limit=None: 1)
    with pytest.raises(InternalInconsistency):
        ghw_hierarchy_via_dual(C)


def _footprint_oracle(X, gb, hd, budget):
    return [
        [
            footprint(gb, d, r, nvars=X.s) if comb(hd.H[d], r) <= budget else None
            for r in range(1, hd.H[d] + 1)
        ]
        for d in range(1, hd.r0 + 1)
    ]


def test_footprint_matrix_matches_per_cell_footprint(F3, F4, F5):
    """The one-pass bitmask rows equal the per-cell definition, budget
    Nones included, under grevlex and glex; some cases have an unsaturated
    in(I), which takes the exact colon/length rule."""
    cases = [(X, order, 60) for _, X, order in _golden_point_sets()]
    rng = random.Random(4242)
    fields = [Field(2), F3, F4, F5]
    for trial in range(24):
        f = fields[trial % 4]
        s = rng.choice([3, 4])
        X = _random_point_set(f, s, rng.randint(3, min(8, (f.q**s - 1) // (f.q - 1))), rng)
        if X.m < 3:
            continue
        reverse = tuple(range(s, 0, -1))
        for order in (GREVLEX, TermOrder("glex"), TermOrder("glex", reverse)):
            cases.append((X, order, 20))
    unsaturated = 0
    for X, order, budget in cases:
        gb = vanishing_ideal(X, order)
        hd = hilbert_data(gb, X.m, nvars=X.s)
        assert footprint_matrix(X, gb, hd.r0, budget=budget) == _footprint_oracle(
            X, gb, hd, budget
        )
        unsaturated += not is_saturated(initial_ideal(gb))
    assert unsaturated >= 1


def _minimum(A):
    """The smallest nonzero weight of a weight distribution."""
    return next(w for w in range(1, len(A)) if A[w])


def _check_macwilliams(C):
    """The dual-route distribution and min_distance equal direct enumeration."""
    k, q = C.dimension, C.field.q
    A = weight_distribution(C)
    assert macwilliams(weight_distribution(dual_code(C)), k, q) == A
    assert min_distance(C) == _minimum(A)


def _mds_distribution(m, k, q):
    """The weight distribution of an [m, k, m - k + 1] MDS code."""
    d = m - k + 1
    return [1] + [
        comb(m, w)
        * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1))
        for w in range(1, m + 1)
    ]


def test_macwilliams_route_on_golden_codes():
    """Every golden C_X(d), d = 1..r0, under grevlex and glex.  C_X(d) does
    not depend on the order, which is asserted, so each code is checked
    once.  A code whose dual is too big to sweep takes the direct route and
    is compared by its minimum alone.  The codes too big to sweep directly
    are MDS (the full space and Reed-Solomon codes of P^1) and are checked
    against the MDS weight distribution instead."""
    codes = {}
    too_big = set()
    for name, X, order in _golden_point_sets():
        for o in (order, GREVLEX, TermOrder("glex")):
            gb = vanishing_ideal(X, o)
            hd = hilbert_data(gb, X.m, nvars=X.s)
            for d in range(1, hd.r0 + 1):
                C = code_of_degree(X, gb, d)
                if (name, d) in codes:
                    assert C == codes[name, d]
                    continue
                codes[name, d] = C
                k, q = C.dimension, C.field.q
                if projective_count(k, q) <= 3 * 10**5:
                    if projective_count(X.m - k, q) <= 3 * 10**5:
                        _check_macwilliams(C)
                    else:
                        assert min_distance(C) == _minimum(weight_distribution(C))
                    continue
                too_big.add((name, d))
                A = macwilliams(weight_distribution(dual_code(C)), k, q)
                assert A == _mds_distribution(X.m, k, q)
                assert min_distance(C, limit=projective_count(k, q)) == X.m - k + 1
    assert too_big == {("projective_plane_f3", 5)} | {
        ("projective_line_f9", d) for d in (6, 7, 8, 9)
    }


def test_macwilliams_route_on_random_codes(F3, F4, F5, F9):
    rng = random.Random(19630501)
    fields = [Field(2), F3, F4, F5, Field(7), F9]
    max_length = {2: 9, 3: 9, 4: 8, 5: 7, 7: 6, 9: 6}
    kinds = set()
    checked = 0
    for trial in range(240):
        f = fields[trial % 6]
        m = rng.randint(1, max_length[f.q])
        k = rng.choice([m, m // 2, rng.randint(1, m)])
        rows = [[rng.randrange(f.q) for _ in range(m)] for _ in range(k)]
        C = LinearCode.from_rows(f, rows, length=m)
        if C.dimension == 0:
            continue
        kinds.add(
            "full" if C.dimension == m
            else "boundary" if 2 * C.dimension == m
            else "dual" if 2 * C.dimension > m
            else "direct"
        )
        _check_macwilliams(C)
        checked += 1
    assert kinds == {"full", "boundary", "dual", "direct"}
    assert checked >= 200


def test_macwilliams_rejects_a_corrupted_dual_distribution(F3, monkeypatch):
    import rmcode.codes as codes

    C = LinearCode.from_rows(F3, [[1, 0, 0, 1, 2], [0, 1, 0, 2, 2], [0, 0, 1, 1, 1]])
    B = weight_distribution(dual_code(C))
    assert macwilliams(B, 3, 3) == weight_distribution(C)
    # +1 breaks an exact division; +9 = +|C^perp| keeps them exact, but
    # A_0 becomes 2
    for i, delta in itertools.product(range(len(B)), (1, 9)):
        bad = list(B)
        bad[i] += delta
        with pytest.raises(InternalInconsistency):
            macwilliams(bad, 3, 3)
    real = codes.weight_distribution

    def corrupted(D):
        A = real(D)
        if D.dimension < C.dimension:
            A[-1] += 2
        return A

    monkeypatch.setattr(codes, "weight_distribution", corrupted)
    with pytest.raises(InternalInconsistency):
        min_distance(C)


def _random_code(rng, F, k, m):
    """The code spanned by k random rows of length m, rank k or less."""
    rows = [[rng.randrange(F.q) for _ in range(m)] for _ in range(k)]
    return LinearCode.from_rows(F, rows, length=m)


def _row_space_contains(field, a, rows):
    """Oracle: the row space of a contains every given row, by two RREFs."""
    Ra, _ = linalg.rref(field, a)
    stacked = np.concatenate([Ra, field.arr(rows).reshape(-1, Ra.shape[1])])
    return linalg.rank(field, stacked) == Ra.shape[0]


RANDOM_CODE_FIELDS = [Field(2), Field(3), Field(5), Field(2, 2), Field(3, 2), Field(2, 3)]


def test_dual_from_the_rref_matches_the_nullspace_oracle():
    rng = random.Random(4242)
    for trial in range(120):
        F = RANDOM_CODE_FIELDS[trial % len(RANDOM_CODE_FIELDS)]
        m = rng.randint(1, 9)
        # k = 0 gives the zero code, k = m + 2 most often the full code
        k = (0, m, m + 2, rng.randint(1, m))[trial % 4]
        C = _random_code(rng, F, k, m)
        assert dual_code(C) == LinearCode(F, m, linalg.nullspace(F, C.basis))


def _self_orthogonal_by_elimination(F, C):
    """Oracle: C lies in C^perp, the nullspace of its basis."""
    return _row_space_contains(F, linalg.nullspace(F, C.basis), C.basis)


def test_containment_and_scaling_match_the_elimination_oracles():
    """G.G^T = 0 for the basis G of C exactly when C lies in C^perp, on
    random codes and, through ``self_orthogonal``, on every golden C_X(d),
    some of which are self-orthogonal."""
    rng = random.Random(4343)
    outcomes = set()
    for trial in range(120):
        F = RANDOM_CODE_FIELDS[trial % len(RANDOM_CODE_FIELDS)]
        m = rng.randint(1, 8)
        C = _random_code(rng, F, rng.randint(0, m), m)
        want = _self_orthogonal_by_elimination(F, C)
        assert (not np.any(F.matmul(C.basis, C.basis.T))) == want
        outcomes.add(want)
        beta = [rng.randrange(1, F.q) for _ in range(m)]
        want = LinearCode.from_rows(F, F.mul_arr(C.basis, F.arr(beta)[None, :]), length=m)
        assert C.scaled(beta) == want
    assert outcomes == {True, False}
    outcomes = set()
    for name in CORPUS:
        X, order = points_parse(load_entry(name)[0])
        A = Analysis(X, order or GREVLEX)
        for d in range(A.hd.r0 + 1):
            want = _self_orthogonal_by_elimination(X.field, A.code(d))
            assert self_orthogonal(A, d) == want
            outcomes.add(want)
    assert outcomes == {True, False}
