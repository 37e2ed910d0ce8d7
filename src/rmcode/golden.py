"""Embedded corpus of worked examples with stored expected values.

Each entry is a points file plus a JSON file of expected invariants; the
runner recomputes everything and reports divergences.  A stored ``gb`` must
be the reduced Groebner basis under the entry's order, which is unique, and
is compared generator by generator; stored ``ideal_gens`` are compared as an
ideal, by linear algebra against the certified basis.  Indicator functions
are compared up to scalar (leading coefficient 1), numeric invariants
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources

import numpy as np

from .analysis import Analysis, affine_duality
from .artinian import classify, verify_socle_identities
from .codes import LinearCode, min_distance, monomially_equivalent, weight_matrix
from .duality import (
    global_duality,
    gorenstein_crosscheck,
    gorenstein_selfdual_classify,
    local_duality_verify,
    self_dual_report,
)
from .errors import InternalInconsistency
from .groebner import generates, minimal_generator_count, standard_monomials_upto
from .polyring import GREVLEX, parse_monomial, parse_poly
from .variety import points_parse

CORPUS = (
    "ci_four_points",
    "gorenstein_not_ci",
    "gorenstein_not_ci_invlex",
    "affine_plane_f3",
    "gorenstein_five_points",
    "selfdual_f4",
    "projective_line_f9",
    "projective_plane_f3",
    "torus_p1_f5",
    "ten_points_p2_f3",
    "seven_points_p2_f3",
)

# names of the ten distinct underlying examples (the invlex entry revisits
# one of them under another order)
PRIMARY_EXAMPLES = tuple(n for n in CORPUS if n != "gorenstein_not_ci_invlex")


def load_entry(name):
    pkg = resources.files(__package__) / "golden"
    points_text = (pkg / f"{name}.points").read_text(encoding="utf-8")
    expected = json.loads((pkg / f"{name}.json").read_text(encoding="utf-8"))
    return points_text, expected


@dataclass
class ExampleResult:
    name: str
    checks: list = dc_field(default_factory=list)

    def record(self, check, ok, detail=""):
        self.checks.append((check, bool(ok), detail))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(c, d) for c, ok, d in self.checks if not ok]


def _beta_proportional(field, got, expected_codes):
    if len(got) != len(expected_codes):
        return False
    ref = None
    for g, e in zip(got, expected_codes):
        if e == 0 or g == 0:
            return False
        ratio = field.div(int(g), int(e))
        if ref is None:
            ref = ratio
        elif ratio != ref:
            return False
    return True


def run_entry(name, expected=None, budget=None):
    points_text, stored = load_entry(name)
    exp = stored if expected is None else expected
    res = ExampleResult(name)

    X, file_order = points_parse(points_text)
    order = file_order or GREVLEX
    f = X.field
    s = X.s

    res.record("m", X.m == exp["m"], f"m={X.m}")
    A = Analysis(X, order)
    gb, hd, isx = A.gb, A.hd, A.isx

    res.record("r0", hd.r0 == exp["r0"], f"r0={hd.r0}")
    res.record("H", list(hd.H) == exp["H"], f"H={list(hd.H)}")
    if "h_vector" in exp:
        res.record("h_vector", list(hd.h_vector) == exp["h_vector"], str(hd.h_vector))

    if "gb" in exp:
        # a reduced basis is unique for the ideal and the order
        parsed = [parse_poly(f, s, t) for t in exp["gb"]]
        want = sorted(
            (g.monic(order) for g in parsed if not g.is_zero()),
            key=lambda g: order.key(g.leading_monomial(order)),
        )
        res.record("gb", tuple(want) == gb.gens, f"computed {gb.to_strings()}")
    if "ideal_gens" in exp:
        parsed = [parse_poly(f, s, t) for t in exp["ideal_gens"]]
        res.record("ideal_gens", generates(parsed, gb), f"computed {gb.to_strings()}")

    if "indicators" in exp:
        want = [parse_poly(f, s, t).monic(order) for t in exp["indicators"]]
        res.record(
            "indicators",
            want == isx.fs,
            "; ".join(g.to_str(order) for g in isx.fs),
        )
    if "indicator_values" in exp:
        want = [f.parse_element(t) for t in exp["indicator_values"]]
        res.record("indicator_values", want == isx.values, str(isx.values))
    if "v_local" in exp:
        res.record("v_local", list(isx.degrees) == exp["v_local"], str(isx.degrees))
    if "v_number" in exp:
        res.record("v_number", isx.v_number == exp["v_number"], str(isx.v_number))
    if "essential" in exp:
        want = sorted(parse_monomial(s, t) for t in exp["essential"])
        res.record("essential", want == sorted(isx.essential), str(isx.essential))

    if "footprints" in exp:
        ok = True
        for dstr, monos in exp["footprints"].items():
            d = int(dstr)
            want = sorted(parse_monomial(s, t) for t in monos)
            got = sorted(standard_monomials_upto(gb, s, d)[d])
            ok = ok and want == got
        res.record("footprints", ok)

    if "min_distance" in exp:
        ok = True
        detail = []
        for dstr, val in exp["min_distance"].items():
            got = min_distance(A.code(int(dstr)))
            detail.append(f"d{dstr}={got}")
            ok = ok and got == val
        res.record("min_distance", ok, " ".join(detail))

    if "mds_at_1" in exp:
        delta1 = min_distance(A.code(1))
        is_mds = delta1 == X.m - hd.H[1] + 1
        res.record("mds_at_1", is_mds == exp["mds_at_1"], f"delta(1)={delta1}")

    if "R" in exp:
        res.record("R", list(isx.v_sorted) == exp["R"], str(isx.v_sorted))

    cert = None
    if "duality" in exp:
        cert = global_duality(A)
        dx = exp["duality"]
        ok = cert.holds == dx["holds"]
        detail = f"holds={cert.holds}"
        if ok and dx.get("beta") is not None and cert.holds:
            want = [f.parse_element(t) for t in dx["beta"]]
            ok = _beta_proportional(f, cert.beta, want)
            detail += f" beta={cert.beta}"
        if ok and not dx["holds"]:
            w = cert.failure_witness
            if "failure_reason" in dx:
                ok = w["reason"] == dx["failure_reason"]
            if ok and "failure_v" in dx:
                ok = w.get("v") == dx["failure_v"] and w.get("r0") == hd.r0
            if ok and "failure_d" in dx:
                ok = w.get("d") == dx["failure_d"] and w.get("sum") == dx["failure_sum"]
            detail += f" witness={w}"
        res.record("duality", ok, detail)

    if "dual_pairs_direct" in exp:
        ok = all(
            A.dual(d1) == A.code(d2)
            for d1, d2 in exp["dual_pairs_direct"]
        )
        res.record("dual_pairs_direct", ok)

    sd_report = None
    if "self_orthogonal_degrees" in exp or "self_dual_degrees" in exp:
        sd_report = self_dual_report(A)
        for key in ("self_orthogonal_degrees", "self_dual_degrees"):
            if key in exp:
                res.record(key, sd_report[key] == exp[key], str(sd_report[key]))

    cls = None
    if "gorenstein" in exp:
        h_override = (
            parse_poly(f, s, exp["artinian_h"]) if "artinian_h" in exp else None
        )
        cls = classify(A, h=h_override)
        gx = exp["gorenstein"]
        ok = cls.gorenstein == gx["gorenstein"]
        detail = f"gorenstein={cls.gorenstein} type={cls.type_}"
        if ok and "type" in gx:
            ok = cls.type_ == gx["type"]
        if ok and "level" in gx:
            ok = cls.level == gx["level"]
        if ok and "s_number" in gx:
            ok = cls.s_number == gx["s_number"]
        if ok and "socle_degrees" in gx:
            ok = cls.socle_degrees == gx["socle_degrees"]
        res.record("gorenstein", ok, detail)
        if "min_gens" in gx or "complete_intersection" in gx:
            mg = minimal_generator_count(gb, hd.r0)
            is_ci = mg == s - 1
            ok = True
            if "min_gens" in gx:
                ok = ok and mg == gx["min_gens"]
            if "complete_intersection" in gx:
                ok = ok and is_ci == gx["complete_intersection"]
            if is_ci and not cls.gorenstein:
                ok = False
            res.record("generators", ok, f"min_gens={mg} ci={is_ci}")
        if cert is not None:
            res.record(
                "duality_gorenstein_crosscheck",
                gorenstein_crosscheck(cert, cls) in (True, False),
                f"shared verdict {cert.holds}",
            )
        if "other_regular_forms" in exp:
            ok = True
            for t in exp["other_regular_forms"]:
                hpoly = parse_poly(f, s, t)
                ok = ok and bool(np.all(X.eval_polys([hpoly])))
            res.record("other_regular_forms", ok)

    if "socle" in exp and cls is not None and cls.gorenstein:
        sx = exp["socle"]
        rep = verify_socle_identities(A, cls)
        ok = True
        if "socle_monomial" in sx:
            ok = cls.socle_monomial == parse_monomial(s, sx["socle_monomial"])
        if ok and "remainder_lambdas" in sx:
            want = [f.parse_element(t) for t in sx["remainder_lambdas"]]
            ok = rep["lambdas"] == want
        res.record("socle", ok, f"t^a={cls.socle_monomial} lambdas={rep['lambdas']}")

    classified = None
    if cls is not None and (
        "point_matrix_self_dual_at_1" in exp or "monomially_self_dual_degrees" in exp
    ):
        classified = gorenstein_selfdual_classify(A, cls, sd_report)
    if "point_matrix_self_dual_at_1" in exp and classified is not None:
        entry = next(e for e in classified if e["d"] == 1)
        res.record(
            "point_matrix_self_dual_at_1",
            entry.get("point_matrix_self_dual") == exp["point_matrix_self_dual_at_1"],
            str(entry),
        )
    if "monomially_self_dual_degrees" in exp and classified is not None:
        got = [e["d"] for e in classified if e["monomially_self_dual"]]
        res.record(
            "monomially_self_dual_degrees",
            got == exp["monomially_self_dual_degrees"],
            str(got),
        )
        # a monomially self-dual degree carries a verified witness
        for e in classified:
            if e["monomially_self_dual"] and cert is not None and cert.holds:
                ok = monomially_equivalent(A.code(e["d"]), A.dual(e["d"]), cert.beta)
                res.record("monomial_equivalence_witness", ok, f"d={e['d']}")

    if "local_duality" in exp:
        lx = exp["local_duality"]
        g1 = [parse_monomial(s, t) for t in lx["gamma1"]]
        g2 = [parse_monomial(s, t) for t in lx["gamma2"]]
        te = parse_monomial(s, lx["t_e"])
        rep = local_duality_verify(A, g1, g2, te, projective_mode=lx["projective_mode"])
        want = [f.parse_element(t) for t in lx["gamma"]]
        res.record("local_duality", rep["gamma"] == want, f"gamma={rep['gamma']}")
        if "ev_gamma1_span" in lx:
            rows = [[f.parse_element(t) for t in row] for row in lx["ev_gamma1_span"]]
            want_code = LinearCode.from_rows(f, rows)
            got_code = LinearCode.from_rows(f, X.eval_monomials(g1), length=X.m)
            ok = want_code == got_code
            rows2 = [[f.parse_element(t) for t in row] for row in lx["ev_gamma2_span"]]
            ok = ok and LinearCode.from_rows(f, rows2) == LinearCode.from_rows(
                f, X.eval_monomials(g2), length=X.m
            )
            res.record("local_duality_spans", ok)

    if "weight_matrix" in exp:
        wm = weight_matrix(A, budget=budget)
        ok = True
        for d in range(1, hd.r0 + 1):
            for r in range(1, X.m + 1):
                cell = wm.cell(d, r)
                want = exp["weight_matrix"][d - 1][r - 1]
                if want == "inf":
                    ok = ok and cell.kind == "infinity"
                else:
                    ok = ok and cell.kind == "exact" and cell.value == want
        res.record("weight_matrix", ok, "all cells exact" if wm.all_exact() else "intervals left")
        if exp.get("footprint_equals_weights"):
            okfp = all(
                wm.fp[d - 1][r - 1] == exp["weight_matrix"][d - 1][r - 1]
                for d in range(1, hd.r0 + 1)
                for r in range(1, X.m + 1)
                if exp["weight_matrix"][d - 1][r - 1] != "inf"
            )
            res.record("footprint_equals_weights", okfp)

    if exp.get("affine_source"):
        # the same certificate must come out of the affine route
        last = s - 1
        if not np.all(X.coords[:, last] == 1):
            raise InternalInconsistency(
                f"golden entry {name} has an affine source but a last coordinate != 1"
            )
        affine_rows = [list(map(int, row[:-1])) for row in X.coords]
        acert, ainfo, _ = affine_duality(f, affine_rows)
        ok = (
            acert.holds == cert.holds
            and ainfo["affine_hilbert_function"] == list(hd.H)
            and _beta_proportional(f, acert.beta, cert.beta)
        )
        res.record("affine_duality", ok, f"H^a={ainfo['affine_hilbert_function']}")

    return res


def run_corpus(names=None, budget=None):
    return [run_entry(n, budget=budget) for n in (names or CORPUS)]
