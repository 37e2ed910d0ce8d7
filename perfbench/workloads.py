"""The benchmark's workloads: fixed lists of point sets, each with the
analysis request that the pass sends to ``rmcode.analysis.analyze_text``.

Seed 0 gives the sets as listed.  Any other seed applies a random invertible
linear change of coordinates over F_q to each set and shuffles its points,
which keeps every coordinate-free invariant.  The program only ever sees the
generated points text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "rmcode" / "golden"


@dataclass(frozen=True)
class PointSource:
    """One input of a workload: a generated family or a golden points file."""

    name: str
    kind: str          # "projective" | "torus" | "golden"
    p: int = 0
    k: int = 1
    vars: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    sources: tuple
    request: dict      # keyword arguments of AnalysisRequest


WORKLOADS = {
    w.name: w
    for w in (
        # algebra and certificates on large m; budget 0 keeps enumeration
        # out.  The tori meet the duality criterion, the full planes need
        # scalar extension (degrees 3 and 4); prime and table-driven fields.
        # The 100-point torus over F_11 would take half of a pass alone,
        # leaving too few passes in a run for a steady median.
        Workload(
            "certify",
            (
                PointSource("torus_p2_f7", "torus", 7, 1, 3),
                PointSource("torus_p2_f9", "torus", 3, 2, 3),
                PointSource("projective_p2_f7", "projective", 7, 1, 3),
                PointSource("projective_p3_f3", "projective", 3, 1, 4),
            ),
            {"duality": True, "gorenstein": True, "selfdual": True, "budget": 0},
        ),
        # every C_X(d) fits the default budget, so each minimum distance is
        # an exact enumeration, and that enumeration is almost all the work
        Workload(
            "mindist",
            (
                PointSource("projective_p2_f3", "projective", 3, 1, 3),
                PointSource("torus_p1_f9", "torus", 3, 2, 2),
                PointSource("projective_p1_f7", "projective", 7, 1, 2),
                PointSource("projective_p3_f2", "projective", 2, 1, 4),
                PointSource("torus_p2_f4", "torus", 2, 2, 3),
            ),
            {},
        ),
        # GHW and footprint kernels and small monomial-ideal operations;
        # every weight-matrix cell is exact at seed 0
        Workload(
            "weights",
            (
                PointSource("affine_plane_f3", "golden"),
                PointSource("ten_points_p2_f3", "golden"),
                PointSource("seven_points_p2_f3", "golden"),
            ),
            {"weights": True, "footprint_matrix": True},
        ),
    )
}


def _base_points(src):
    """(field, s, rows, order) of a source at seed 0."""
    from rmcode.gf import Field
    from rmcode.variety import parse_points_text, points_full_projective, points_torus

    if src.kind == "golden":
        parsed = parse_points_text((GOLDEN_DIR / f"{src.name}.points").read_text())
        return parsed.field, parsed.s, parsed.rows, parsed.order
    field = Field(src.p, src.k)
    make = points_full_projective if src.kind == "projective" else points_torus
    X = make(src.vars, field)
    return field, X.s, [[int(x) for x in row] for row in X.coords], None


def _random_invertible(field, s, rng):
    from rmcode.linalg import rank

    while True:
        M = [[rng.randrange(field.q) for _ in range(s)] for _ in range(s)]
        if rank(field, M) == s:
            return M


def _apply(field, M, row):
    out = []
    for coeffs in M:
        acc = 0
        for c, x in zip(coeffs, row):
            acc = field.add(acc, field.mul(c, x))
        out.append(acc)
    return out


def points_text(src, seed):
    """The points file text of one source under ``seed``."""
    from rmcode.variety import format_points

    field, s, rows, order = _base_points(src)
    if seed:
        rng = random.Random(f"{seed}:{src.name}")
        M = _random_invertible(field, s, rng)
        rows = [_apply(field, M, row) for row in rows]
        rng.shuffle(rows)
    return format_points(field, s, rows, order=order, header=(src.name,))


def workload_inputs(name, seed):
    """[(source name, points text)] of a workload under ``seed``."""
    return [(src.name, points_text(src, seed)) for src in WORKLOADS[name].sources]
