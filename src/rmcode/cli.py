"""Command-line front end: analyze points files, generate point sets, and
run the embedded golden corpus.

Exit codes: 0 success; 1 a requested predicate came out false (only with
--strict); 2 input error; 3 enumeration budget exceeded; 4 internal
inconsistency (a certified fact failed direct verification).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .analysis import AnalysisRequest, analyze_text
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    InvalidParams,
    ParseError,
    RMCodeError,
    Unsupported,
)
from .gf import PRIME_LIMIT, TABLE_LIMIT, Field, is_prime, search_modulus
from .golden import CORPUS, run_corpus
from .polyring import TermOrder
from .variety import format_points, points_full_projective, points_parameterized, points_torus

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


def _parse_order(text):
    if ":" in text:
        kind, permtext = text.split(":", 1)
        perm = tuple(int(x) for x in permtext.split(","))
    else:
        kind, perm = text, ()
    return TermOrder(kind, perm)


def _parse_ghw_cell(spec):
    """The (d, r) of one ``--ghw d,r`` value."""
    try:
        d, r = (int(t) for t in spec.split(","))
    except ValueError:
        raise ValueError(f"ghw cell {spec!r} must be d,r with integers d and r") from None
    return d, r


def _render_table(report, elapsed):
    out = []
    inp = report["input"]
    fld = inp["field"]
    out.append(
        f"field F_{fld['q']}  vars {inp['vars']}  points {inp['m']}  "
        f"order {inp['order']['kind']} {inp['order']['perm']}"
    )
    vi = report["vanishing_ideal"]
    out.append("vanishing ideal:")
    for g in vi["groebner_basis"]:
        out.append(f"  {g}")
    out.append(
        f"minimal generators: {vi['minimal_generators']}"
        + ("  (complete intersection)" if vi["complete_intersection"] else "")
    )
    h = report["hilbert"]
    out.append(
        f"H = {h['H']}  r0 = {h['r0']}  h-vector = {h['h_vector']}"
        + ("  (symmetric)" if h["symmetric_h_vector"] else "")
    )
    ind = report["indicators"]
    out.append(f"v(I) = {ind['v_number']}  local v-numbers = {ind['v_local']}")
    out.append("standard indicator functions:")
    for e in ind["indicators"]:
        out.append(
            f"  deg {e['degree']}  {e['polynomial']}"
            f"   [value {e['value_at_own_point']}]"
        )
    out.append(
        "essential monomials: "
        + (", ".join(ind["essential_monomials"]) or "(none)")
    )
    codes = report.get("codes", {})
    if codes.get("min_distance"):
        out.append(
            "minimum distance: "
            + "  ".join(f"delta({d})={v}" for d, v in codes["min_distance"].items())
        )
    if "ghw" in codes:
        out.append(
            "generalized Hamming weights: "
            + "  ".join(f"delta({c})={v}" for c, v in codes["ghw"].items())
        )
    if "weight_matrix_rendered" in codes:
        out.append("weight matrix:")
        out.extend("  " + line for line in codes["weight_matrix_rendered"])
    if "footprint" in codes:
        out.append("footprint matrix:")
        for d, row in codes["footprint"].items():
            out.append(f"  d={d}: {row}")
    if "duality" in report:
        dd = report["duality"]
        if dd["holds"]:
            out.append(f"duality: holds  beta = {dd['beta']}")
        else:
            out.append(f"duality: fails  witness = {dd['failure_witness']}")
    if "artinian" in report:
        ar = report["artinian"]
        out.append(
            f"artinian reduction by h = {ar['h']} (extension degree "
            f"{ar['extension_degree']}): type {ar['type']}"
            f"  level {ar['level']}  gorenstein {ar['gorenstein']}"
            f"  s-number {ar['s_number']}"
        )
        if ar.get("socle_monomial"):
            out.append(f"socle monomial: {ar['socle_monomial']}")
    if "self_duality" in report:
        sd = report["self_duality"]
        out.append(
            f"self-orthogonal degrees: {sd['self_orthogonal_degrees']}  "
            f"self-dual degrees: {sd['self_dual_degrees']}"
        )
    out.append(f"elapsed: {elapsed:.2f}s")
    return "\n".join(out)


def cmd_analyze(args):
    try:
        if args.points == "-":
            text = sys.stdin.read()
        else:
            with open(args.points, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        cells = [_parse_ghw_cell(spec) for spec in args.ghw or ()]
        order = _parse_order(args.order) if args.order else None
        if args.budget is not None and args.budget < 0:
            raise ValueError(f"--budget must be non-negative, got {args.budget}")
    except ValueError as exc:
        raise InvalidParams(str(exc)) from exc
    req = AnalysisRequest(
        order=order,
        affine=args.affine,
        duality=args.duality,
        gorenstein=args.gorenstein,
        selfdual=args.selfdual,
        weights=args.weight_matrix,
        footprint_matrix=args.footprint,
        ghw_cells=tuple(cells),
        budget=args.budget,
        artinian_h=args.artinian_h,
    )
    t0 = time.time()
    report, negatives = analyze_text(text, req)
    elapsed = time.time() - t0
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_table(report, elapsed))
    if "budget" in negatives:
        return EXIT_BUDGET
    if negatives and args.strict:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_generate(args):
    if args.kind != "parameterized" and not args.vars:
        raise InvalidParams(f"{args.kind} needs --vars")
    p, k = _prime_power(args.q)
    # the built-in modulus where there is one, else the smallest irreducible;
    # Field rejects an extension field above the table limit
    f = Field(p, k, search_modulus(p, k) if args.q <= TABLE_LIMIT else None)
    if args.kind == "projective":
        ps = points_full_projective(args.vars, f)
        header = (f"all points of P^{args.vars - 1} over F_{f.q}",)
    elif args.kind == "torus":
        ps = points_torus(args.vars, f)
        header = (f"projective torus in P^{args.vars - 1} over F_{f.q}",)
    elif args.kind == "parameterized":
        if not args.exponents:
            raise InvalidParams("parameterized needs --exponents")
        try:
            vs = [tuple(int(x) for x in v.split(",")) for v in args.exponents.split(";")]
        except ValueError as exc:
            raise InvalidParams(f"bad --exponents: {exc}") from exc
        n = len(vs[0])
        ps = points_parameterized(vs, n, f)
        header = (f"toric set of {len(vs)} monomials over F_{f.q}",)
    else:  # affine-grid
        import itertools

        rows = [list(t) for t in itertools.product(range(f.q), repeat=args.vars)]
        text = format_points(
            f, args.vars, rows, header=(f"the affine grid F_{f.q}^{args.vars}",)
        )
        print(text, end="")
        return EXIT_OK
    text = format_points(ps.field, ps.s, ps.coords, header=header)
    print(text, end="")
    return EXIT_OK


def _prime_power(q):
    """(p, k) with q = p^k and p prime.  p is the exact k-th root of q for
    the largest such k, so q is a prime power iff p is prime."""
    if q < 2:
        raise InvalidParams(f"bad field size {q}")
    for k in range(q.bit_length(), 0, -1):
        p = _iroot(q, k)
        if p**k == q:
            break
    if p >= PRIME_LIMIT:
        raise Unsupported(f"the characteristic must be below 2**31 (got {p})")
    if not is_prime(p):
        raise InvalidParams(f"{q} is not a prime power")
    return p, k


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def cmd_golden(args):
    names = [args.name] if args.name else None
    if args.name and args.name not in CORPUS:
        print(
            f"error: unknown example {args.name!r}; known: {', '.join(CORPUS)}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    if args.list:
        for n in CORPUS:
            print(n)
        return EXIT_OK
    t0 = time.time()
    results = run_corpus(names)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}  ({len(res.checks)} checks)")
        for check, detail in res.failures():
            failures += 1
            print(f"      divergence in {check}: {detail}")
    print(f"{len(results)} examples, {failures} divergences, "
          f"{time.time() - t0:.2f}s")
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rmcode",
        description="exact invariants, duality certificates and evaluation "
        "codes of finite projective point sets",
    )
    ap.add_argument("--version", action="version", version=f"rmcode {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="run the full pipeline on a points file")
    a.add_argument("points", help="points file (- for stdin)")
    a.add_argument("--order", help="grevlex|glex[:i1,i2,...] override")
    a.add_argument("--affine", action="store_true",
                   help="treat input as affine points; analyze the closure")
    a.add_argument("--duality", action="store_true", help="global duality certificate")
    a.add_argument("--gorenstein", action="store_true",
                   help="Artinian classification and crosscheck")
    a.add_argument("--selfdual", action="store_true",
                   help="self-orthogonal / self-dual classification")
    a.add_argument("--weight-matrix", action="store_true", help="resolve all GHW cells")
    a.add_argument("--footprint", action="store_true", help="footprint matrix")
    a.add_argument("--ghw", action="append", metavar="d,r",
                   help="one generalized Hamming weight (repeatable)")
    a.add_argument("--budget", type=int, help="enumeration budget override")
    a.add_argument("--artinian-h", help="pin the regular linear form, e.g. t1+t4")
    a.add_argument("--json", action="store_true", help="machine-readable output")
    a.add_argument("--table", action="store_true", help="human-readable output (default)")
    a.add_argument("--strict", action="store_true",
                   help="exit 1 when a requested predicate is false")
    a.set_defaults(func=cmd_analyze)

    g = sub.add_parser("generate", help="emit a points file")
    g.add_argument("kind", choices=["projective", "torus", "parameterized", "affine-grid"])
    g.add_argument("--q", type=int, required=True, help="field size")
    g.add_argument("--vars", type=int, help="ambient variable count s")
    g.add_argument("--exponents", help="semicolon-separated exponent vectors, e.g. 1,0;0,1")
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("golden", help="run the embedded example corpus")
    d.add_argument("name", nargs="?", help="run a single example")
    d.add_argument("--list", action="store_true", help="list example names")
    d.set_defaults(func=cmd_golden)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except RMCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
