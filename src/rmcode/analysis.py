"""The analyze pipeline: points -> ideal -> invariants -> codes ->
certificates, assembled into a deterministic report.  ``Analysis`` holds
what every step shares, each computed once."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import comb

import numpy as np

from . import __version__
from .artinian import classify, verify_socle_identities
from .codes import (
    DEFAULT_CODEWORD_BUDGET,
    DEFAULT_SUBSPACE_BUDGET,
    LinearCode,
    enumeration_budget,
    footprint_matrix,
    ghw,
    min_distance,
    weight_matrix,
)
from .duality import (
    global_duality,
    gorenstein_crosscheck,
    gorenstein_selfdual_classify,
    self_dual_report,
)
from .errors import BudgetExceeded, InternalInconsistency, InvalidParams, ParseError
from .groebner import minimal_generator_count
from .indicators import standard_indicators
from .polyring import GREVLEX, TermOrder, format_monomial, parse_poly
from .variety import (
    PointSet,
    hilbert_data,
    parse_points_text,
    projective_closure,
    symmetry_equiv_check,
    vanishing_ideal,
)


@dataclass(eq=False)
class Analysis:
    """One point set X under one order.

    The vanishing ideal ``ideal`` with its certified basis ``gb``, the
    Hilbert data ``hd`` (checked by ``symmetry_equiv_check``) and the
    indicator functions ``isx`` are computed on first use.  ``code(d)``
    and ``dual(d)`` give C_X(d) and its dual, each built once, with
    read-only bases: the zero code for d < 0, the code that the
    interpolation of I(X) eliminated for 0 <= d < r0, and all of F_q^m
    from r0 on.  The indicators are read off the same eliminations, and
    each dual off the RREF basis of its code.
    """

    X: PointSet
    order: TermOrder = GREVLEX
    _codes: dict = dc_field(default_factory=dict, init=False, repr=False)

    @cached_property
    def ideal(self):
        return vanishing_ideal(self.X, self.order)

    @cached_property
    def gb(self):
        return self.ideal.gb

    @cached_property
    def hd(self):
        hd = hilbert_data(self.gb, self.X.m, nvars=self.X.s)
        symmetry_equiv_check(hd)
        if len(self.ideal.codes) != hd.r0 + 1:
            raise InternalInconsistency(
                f"the interpolation reached F_q^m in degree {len(self.ideal.codes) - 1}, "
                f"the staircase in degree r0 = {hd.r0}"
            )
        return hd

    @cached_property
    def isx(self):
        return standard_indicators(self)

    def code(self, d):
        C = self._codes.get(d)
        if C is None:
            f, m, r0 = self.X.field, self.X.m, self.hd.r0
            if d < 0:
                C = LinearCode(f, m, np.zeros((0, m), dtype=np.int64))
            elif d >= r0:
                C = LinearCode(f, m, np.eye(m, dtype=np.int64))
            else:
                C = self.ideal.codes[d]
                # the evaluation map is injective on the standard monomials
                if C.dimension != self.hd.value(d):
                    raise InternalInconsistency(
                        f"dim C_X({d}) = {C.dimension} != |footprint_{d}| = "
                        f"{self.hd.value(d)}"
                    )
            C.basis.flags.writeable = False
            self._codes[d] = C
        return C

    def dual(self, d):
        return self.code(d).dual


@dataclass
class AnalysisRequest:
    order: TermOrder | None = None
    affine: bool = False
    duality: bool = False
    gorenstein: bool = False
    selfdual: bool = False
    weights: bool = False
    footprint_matrix: bool = False
    ghw_cells: tuple = ()
    budget: int | None = None
    artinian_h: str | None = None


def _pinned_form(f, s, text):
    """The coefficients of t1..ts of the linear form ``text``."""
    h = parse_poly(f, s, text)
    if h.homogeneous_degree() != 1:
        raise InvalidParams(f"h = {text} is not a nonzero linear form")
    return tuple(h.terms.get(tuple(int(i == j) for j in range(s)), 0) for i in range(s))


def analyze_text(text, req=None):
    """Run the pipeline on a points file; returns (report, negatives).

    ``negatives`` lists requested predicates that came out false (used by the
    CLI's --strict exit code).
    """
    req = req or AnalysisRequest()
    if req.artinian_h and not req.gorenstein:
        raise InvalidParams("--artinian-h pins the form of --gorenstein, which is not requested")
    parsed = parse_points_text(text)
    f = parsed.field
    negatives = []

    if req.affine:
        if parsed.order is not None:
            raise ParseError(
                "affine mode fixes the order on the closure ring; "
                "remove the order line"
            )
        X = projective_closure(f, parsed.rows)
        order = GREVLEX
    else:
        X = PointSet(f, parsed.rows, canonicalize=True)
        order = req.order or parsed.order or GREVLEX
    s = X.s

    requested = ["vanishing_ideal", "hilbert", "indicators", "min_distance"]
    for flag, label in (
        (req.duality, "duality"),
        (req.gorenstein, "gorenstein"),
        (req.selfdual, "selfdual"),
        (req.weights, "weight_matrix"),
        (req.footprint_matrix, "footprint"),
        (bool(req.ghw_cells), "ghw"),
    ):
        if flag:
            requested.append(label)
    report = {
        "version": __version__,
        "requested": requested,
        "budgets": {
            "override": req.budget,
            "codeword_default": enumeration_budget(DEFAULT_CODEWORD_BUDGET),
            "subspace_default": enumeration_budget(DEFAULT_SUBSPACE_BUDGET),
        },
        "input": {
            "field": {"p": f.p, "k": f.k, "q": f.q, "modulus": list(f.modulus)},
            "vars": s,
            "order": order.descriptor(s),
            "m": X.m,
            "affine_closure": req.affine,
            "points": [
                [f.format_element(int(x)) for x in row] for row in X.coords
            ],
        },
    }

    A = Analysis(X, order)
    gb, hd = A.gb, A.hd
    for d, r in req.ghw_cells:
        if d < 1:
            raise InvalidParams(f"ghw cell {d},{r}: d must be at least 1")
        k = hd.value(d)
        if not 1 <= r <= k:
            raise InvalidParams(f"ghw cell {d},{r}: r must be in 1..{k} = dim C_X({d})")
    isx = A.isx
    mingens = minimal_generator_count(gb, hd.r0)

    report["vanishing_ideal"] = {
        "groebner_basis": gb.to_strings(),
        "initial_ideal": [format_monomial(u) for u in gb.leads],
        "minimal_generators": mingens,
        "complete_intersection": mingens == s - 1,
    }
    report["hilbert"] = hd.as_dict()
    if req.affine:
        report["hilbert"]["affine_hilbert_function"] = list(hd.H)
    report["indicators"] = isx.as_dict()

    budget = req.budget
    deltas = {}
    for d in range(1, hd.r0 + 1):
        try:
            deltas[d] = min_distance(A.code(d), limit=budget)
        except BudgetExceeded as exc:
            deltas[d] = f"budget_exceeded({exc.required})"
    report["codes"] = {
        "dimensions": {d: hd.value(d) for d in range(hd.r0 + 1)},
        "min_distance": deltas,
    }
    finite = [d for d, v in deltas.items() if isinstance(v, int)]
    if finite and all(isinstance(v, int) for v in deltas.values()):
        reg_delta = min(d for d in finite if deltas[d] == 1)
        report["codes"]["min_distance_regularity"] = reg_delta

    if req.ghw_cells:
        cells = {}
        for d, r in req.ghw_cells:
            try:
                cells[f"{d},{r}"] = ghw(A.code(d), r, limit=budget)
            except BudgetExceeded as exc:
                cells[f"{d},{r}"] = f"budget_exceeded({exc.required})"
                negatives.append("budget")
        report["codes"]["ghw"] = cells

    fp = None
    if req.footprint_matrix or req.weights:
        fp = footprint_matrix(X, gb, hd.r0, budget=budget)
    if req.footprint_matrix:
        report["codes"]["footprint"] = {
            d: [
                v if v is not None else f"budget_exceeded({comb(len(row), r)})"
                for r, v in enumerate(row, 1)
            ]
            for d, row in enumerate(fp, 1)
        }

    if req.weights:
        wm = weight_matrix(A, budget=budget, fp=fp)
        report["codes"]["weight_matrix"] = wm.as_dict()
        report["codes"]["weight_matrix_rendered"] = wm.render().splitlines()

    cert = None
    if req.duality or req.gorenstein:
        cert = global_duality(A)
        report["duality"] = cert.as_dict(f)
        if req.duality and not cert.holds:
            negatives.append("duality")

    cls = None
    if req.gorenstein:
        cls = classify(A, h=_pinned_form(f, s, req.artinian_h) if req.artinian_h else None)
        report["artinian"] = cls.as_dict(order)
        report["artinian"]["crosscheck_with_duality"] = gorenstein_crosscheck(
            cert, cls
        )
        if cls.gorenstein:
            rep = verify_socle_identities(A, cls)
            report["artinian"]["socle_identities"] = {
                "lambdas": [
                    cls.J_basis.field.format_element(c, signed=True)
                    for c in rep["lambdas"]
                ],
                "special_form": rep["special_form"],
            }
        else:
            negatives.append("gorenstein")

    if req.selfdual:
        rep = self_dual_report(A)
        report["self_duality"] = rep
        if not rep["self_dual_degrees"]:
            negatives.append("selfdual")
        if cls is not None and cls.gorenstein:
            rep["gorenstein_classification"] = gorenstein_selfdual_classify(
                A, cls, rep
            )

    return report, negatives
