"""Embedded corpus of worked examples with stored expected values.

Each entry is a points file plus a JSON file of expected facts.  The runner
analyses the points once with ``analyze_text``, the pipeline behind
``rmcode analyze``: duality, Gorenstein and self-duality always, the weight
matrix only when one is stored, the regular linear form from the entry's
``artinian_h``.  It then compares every stored fact with one path of that
report through ``TABLE``.  The fields of a stored record (``duality``,
``gorenstein``, ``socle``) are facts of their own, under dotted keys such
as ``gorenstein.type``.

A stored ``gb`` must be the reduced Groebner basis under the entry's order,
which is unique; stored ``ideal_gens`` are compared as an ideal, by linear
algebra against the report's basis.  Indicator functions are compared up to
scalar (leading coefficient 1), the parity-check vector beta up to scalar,
minimum distances in the stored degrees, everything else exactly.  An
``affine_source`` entry also runs the affine route on its chart rows, which
must give the projective report's Hilbert function, duality verdict and
beta.  The facts that the report does not carry (footprints, direct dual
pairs, other regular forms, local duality) are checked by the test suite on
the same files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
from importlib import resources

from .analysis import AnalysisRequest, analyze_text
from .errors import InternalInconsistency
from .groebner import GroebnerBasis, generates
from .polyring import GREVLEX, parse_monomial, parse_poly
from .variety import format_points, parse_points_text

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


def stored_facts(entry, prefix=""):
    """The (dotted key, value) facts of a golden JSON entry: a record's
    fields are facts of their own, a map keyed by degree is one fact."""
    for key, value in entry.items():
        if isinstance(value, dict) and not all(k.isdigit() for k in value):
            yield from stored_facts(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


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


# normalizers: a stored or reported value in the form both are compared in;
# ``ring`` is the entry's parsed points file with its order resolved


def _polys(texts, ring):
    return [parse_poly(ring.field, ring.s, t).monic(ring.order) for t in texts]


def _reduced_basis(texts, ring):
    gens = [parse_poly(ring.field, ring.s, t) for t in texts]
    o = ring.order
    return sorted(
        (g.monic(o) for g in gens if not g.is_zero()),
        key=lambda g: o.key(g.leading_monomial(o)),
    )


def _elements(texts, ring):
    return [ring.field.parse_element(t) for t in texts]


def _monomials(texts, ring):
    return sorted(parse_monomial(ring.s, t) for t in texts)


def _monomial(text, ring):
    return parse_monomial(ring.s, text)


def _normalized(norm):
    """Agreement once both values are normalized; an absent report value
    agrees with nothing."""
    return lambda want, got, ring: got is not None and norm(want, ring) == norm(got, ring)


def _same(want, got, ring):
    return want == got


def _generate_the_ideal(want, got, ring):
    basis = GroebnerBasis.from_polys(ring.order, ring.field, ring.s, _polys(got, ring))
    return generates(_polys(want, ring), basis)


def _proportional(want, got, ring):
    f = ring.field
    return got is not None and _beta_proportional(f, _elements(got, ring), _elements(want, ring))


def _in_stored_degrees(want, got, ring):
    return all(got.get(int(d)) == v for d, v in want.items())


def _at_degree_1(want, got, ring):
    """``got`` holds one value per degree d = 1..r0."""
    return got is not None and got[:1] == [want]


# computed report values: functions of (report, ring) where a path would do


def _mds_at_1(report, ring):
    return (
        report["codes"]["min_distance"][1]
        == report["input"]["m"] - report["hilbert"]["H"][1] + 1
    )


def _monomially_self_dual_degrees(report, ring):
    entries = report["self_duality"].get("gorenstein_classification", ())
    return [e["d"] for e in entries if e["monomially_self_dual"]]


def _weights(report, ring):
    """The weight matrix as the corpus stores it: exact values, "inf", and
    an open interval as its report dict."""
    wm = report["codes"]["weight_matrix"]
    return [
        [c["value"] if c["kind"] == "exact" else "inf" if c["kind"] == "infinity" else c
         for c in row]
        for row in wm["cells"]
    ]


def _footprint_equals_weights(report, ring):
    wm = report["codes"]["weight_matrix"]
    return [[c.get("value") for c in row] for row in wm["cells"]] == wm["footprint"]


def _affine_route_agrees(report, ring):
    """The affine route on the chart rows (the points with their last
    coordinate, always 1, dropped) gives the projective report's Hilbert
    function, duality verdict and beta."""
    f = ring.field
    points = [_elements(row, ring) for row in report["input"]["points"]]
    if any(row[-1] != 1 for row in points):
        raise InternalInconsistency("an affine source needs every last coordinate 1")
    text = format_points(f, ring.s - 1, [row[:-1] for row in points])
    affine, _ = analyze_text(text, AnalysisRequest(affine=True, duality=True))
    cert, acert = report["duality"], affine["duality"]
    return (
        affine["hilbert"]["affine_hilbert_function"] == report["hilbert"]["H"]
        and acert["holds"] == cert["holds"]
        and (
            acert["beta"] is None
            if cert["beta"] is None
            else _proportional(cert["beta"], acert["beta"], ring)
        )
    )


# stored key -> (report path, agreement of the stored and the reported value)
TABLE = {
    "m": ("input.m", _same),
    "r0": ("hilbert.r0", _same),
    "H": ("hilbert.H", _same),
    "h_vector": ("hilbert.h_vector", _same),
    "gb": ("vanishing_ideal.groebner_basis", _normalized(_reduced_basis)),
    "ideal_gens": ("vanishing_ideal.groebner_basis", _generate_the_ideal),
    "indicators": ("indicators.indicators.polynomial", _normalized(_polys)),
    "indicator_values": ("indicators.indicators.value_at_own_point", _normalized(_elements)),
    "v_local": ("indicators.v_local", _same),
    "v_number": ("indicators.v_number", _same),
    "R": ("indicators.v_sorted", _same),
    "essential": ("indicators.essential_monomials", _normalized(_monomials)),
    "min_distance": ("codes.min_distance", _in_stored_degrees),
    "mds_at_1": (_mds_at_1, _same),
    "duality.holds": ("duality.holds", _same),
    "duality.beta": ("duality.beta", _proportional),
    "duality.failure_reason": ("duality.failure_witness.reason", _same),
    "duality.failure_v": ("duality.failure_witness.v", _same),
    "duality.failure_d": ("duality.failure_witness.d", _same),
    "duality.failure_sum": ("duality.failure_witness.sum", _same),
    "gorenstein.gorenstein": ("artinian.gorenstein", _same),
    "gorenstein.type": ("artinian.type", _same),
    "gorenstein.level": ("artinian.level", _same),
    "gorenstein.s_number": ("artinian.s_number", _same),
    "gorenstein.socle_degrees": ("artinian.socle_degrees", _same),
    "gorenstein.min_gens": ("vanishing_ideal.minimal_generators", _same),
    "gorenstein.complete_intersection": ("vanishing_ideal.complete_intersection", _same),
    "socle.socle_monomial": ("artinian.socle_monomial", _normalized(_monomial)),
    "socle.remainder_lambdas": ("artinian.socle_identities.lambdas", _normalized(_elements)),
    "self_orthogonal_degrees": ("self_duality.self_orthogonal_degrees", _same),
    "self_dual_degrees": ("self_duality.self_dual_degrees", _same),
    "point_matrix_self_dual_at_1": (
        "self_duality.gorenstein_classification.point_matrix_self_dual",
        _at_degree_1,
    ),
    "monomially_self_dual_degrees": (_monomially_self_dual_degrees, _same),
    "weight_matrix": (_weights, _same),
    "footprint_equals_weights": (_footprint_equals_weights, _same),
    "affine_source": (_affine_route_agrees, _same),
}


def _read(report, path, ring):
    """The report value at a dotted path (a key read on a list is read on
    each of its items), None where it is absent; or a computed value."""
    if callable(path):
        return path(report, ring)
    node = report
    for key in path.split("."):
        if isinstance(node, list):
            node = [item.get(key) for item in node]
        elif isinstance(node, dict):
            node = node.get(key)
    return node


def run_entry(name, expected=None):
    points_text, stored = load_entry(name)
    exp = stored if expected is None else expected
    parsed = parse_points_text(points_text)
    ring = replace(parsed, order=parsed.order or GREVLEX)
    req = AnalysisRequest(
        duality=True,
        gorenstein=True,
        selfdual=True,
        weights="weight_matrix" in exp,
        artinian_h=exp.get("artinian_h"),
    )
    report, _ = analyze_text(points_text, req)
    res = ExampleResult(name)
    for key, want in stored_facts(exp):
        if key in TABLE:
            path, agree = TABLE[key]
            got = _read(report, path, ring)
            res.record(key, agree(want, got, ring), f"report {got}")
    return res


def run_corpus(names=None):
    return [run_entry(n) for n in (names or CORPUS)]
