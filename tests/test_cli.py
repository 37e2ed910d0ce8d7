import itertools
import json
import time

import pytest

from rmcode import golden
from rmcode.analysis import AnalysisRequest, analyze_text
from rmcode.cli import main
from rmcode.errors import InvalidParams
from rmcode.golden import load_entry


@pytest.fixture()
def frame_points_file(tmp_path):
    text, _ = load_entry("gorenstein_five_points")
    p = tmp_path / "frame.points"
    p.write_text(text)
    return str(p)


def test_analyze_json_deterministic(frame_points_file, capsys):
    assert main(["analyze", frame_points_file, "--duality", "--gorenstein", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", frame_points_file, "--duality", "--gorenstein", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical
    report = json.loads(first)
    assert report["version"]
    assert report["duality"]["holds"] is True
    assert report["artinian"]["gorenstein"] is True
    assert report["vanishing_ideal"]["minimal_generators"] == 5


def test_analyze_table_output(frame_points_file, capsys):
    assert main(["analyze", frame_points_file, "--selfdual"]) == 0
    out = capsys.readouterr().out
    assert "vanishing ideal" in out and "h-vector" in out


def test_analyze_parse_error(tmp_path, capsys):
    p = tmp_path / "empty.points"
    p.write_text("")
    assert main(["analyze", str(p)]) == 2
    p2 = tmp_path / "dup.points"
    p2.write_text("field 3 1\nvars 2\n1 1\n2 2\n")
    assert main(["analyze", str(p2)]) == 2


def test_analyze_strict_negative(tmp_path, capsys):
    text, _ = load_entry("ten_points_p2_f3")
    p = tmp_path / "ten.points"
    p.write_text(text)
    assert main(["analyze", str(p), "--duality"]) == 0
    assert main(["analyze", str(p), "--duality", "--strict"]) == 1


def test_analyze_budget_exceeded_with_partial_results(frame_points_file, capsys):
    assert main(
        ["analyze", frame_points_file, "--ghw", "2,2", "--budget", "1", "--json"]
    ) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["codes"]["ghw"]["2,2"].startswith("budget_exceeded")
    assert report["hilbert"]["r0"] == 2  # the rest of the report survives


def test_analyze_ghw_cell(frame_points_file, capsys):
    assert main(["analyze", frame_points_file, "--ghw", "1,2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["codes"]["ghw"]["1,2"] >= 2


def test_analyze_affine(tmp_path, capsys):
    grid = "field 3 1\nvars 2\n" + "\n".join(
        f"{a} {b}" for a in range(3) for b in range(3)
    )
    p = tmp_path / "grid.points"
    p.write_text(grid + "\n")
    assert main(["analyze", str(p), "--affine", "--duality", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["vars"] == 3
    assert report["hilbert"]["affine_hilbert_function"] == [1, 3, 6, 8, 9]
    assert report["duality"]["holds"] is True


def test_analyze_affine_rejects_order_line(tmp_path, capsys):
    p = tmp_path / "bad.points"
    p.write_text("field 3 1\nvars 2\norder grevlex\n0 0\n1 1\n")
    assert main(["analyze", str(p), "--affine"]) == 2


def test_analyze_internal_inconsistency_exit(monkeypatch, frame_points_file):
    from rmcode import cli
    from rmcode.errors import InternalInconsistency

    def boom(text, req):
        raise InternalInconsistency("simulated")

    monkeypatch.setattr(cli, "analyze_text", boom)
    assert main(["analyze", frame_points_file]) == 4


def test_analyze_failed_certification_exit(monkeypatch, frame_points_file, capsys):
    """A basis that fails Buchberger's criterion is a bug, not bad input."""
    from rmcode import variety

    monkeypatch.setattr(variety, "gb_certify", lambda gb: False)
    assert main(["analyze", frame_points_file]) == 4
    assert "failed certification" in capsys.readouterr().err


def test_analyze_bad_flag_values(frame_points_file, capsys):
    assert main(["analyze", frame_points_file, "--ghw", "nonsense"]) == 2
    assert main(["analyze", frame_points_file, "--order", "lex"]) == 2


def test_generate_missing_vars(capsys):
    assert main(["generate", "torus", "--q", "5"]) == 2


def test_generate_torus(capsys):
    assert main(["generate", "torus", "--q", "5", "--vars", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 6 and "field 5 1" in out
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "field", "vars"))]
    assert len(lines) == 4


def test_generate_projective(capsys):
    assert main(["generate", "projective", "--q", "3", "--vars", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "field", "vars"))]
    assert len(lines) == 13


def test_generate_parameterized_torus(capsys):
    assert main(
        ["generate", "parameterized", "--q", "5", "--exponents", "1,0;0,1"]
    ) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "field", "vars"))]
    assert len(lines) == 4  # the torus again


def test_generate_rejects_a_characteristic_option(capsys):
    # the characteristic comes from --q alone
    with pytest.raises(SystemExit) as exc:
        main(["generate", "torus", "--q", "9", "--p", "5", "--vars", "2"])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err


def test_generate_roundtrips_through_analyze(tmp_path, capsys):
    assert main(["generate", "torus", "--q", "5", "--vars", "2"]) == 0
    text = capsys.readouterr().out
    p = tmp_path / "torus.points"
    p.write_text(text)
    assert main(["analyze", str(p), "--duality", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hilbert"]["r0"] == 3


@pytest.mark.parametrize(
    "text",
    [
        "field 2 2\nvars 2\na 1\nfield 3 1\n1 1\n",
        "field 3 1\nvars 2\n1 0\nvars 3\n1 0 1\n",
        "field 3 1\nvars 2\norder glex\norder grevlex\n1 0\n0 1\n",
        "field 3 1\nvars 2\norder\n1 0\n0 1\n",
    ],
)
def test_analyze_rejects_a_misplaced_header_line(tmp_path, capsys, text):
    _assert_parse_error_exit(tmp_path, capsys, text)


@pytest.mark.parametrize(
    "text",
    [
        "field 3 1\nvars 3\norder glex prem=3,2,1\n1 0 0\n0 1 0\n",
        "field 3 1\nvars 2\norder glex perm=1,2 perm=2,1\n1 0\n0 1\n",
        "field 3 1\nvars 2 9\n1 0\n0 1\n",
        "field 5 1 7 7 7\nvars 2\n1 0\n0 1\n",
    ],
)
def test_analyze_rejects_a_header_line_with_unread_tokens(tmp_path, capsys, text):
    _assert_parse_error_exit(tmp_path, capsys, text)


def _assert_parse_error_exit(tmp_path, capsys, text):
    path = tmp_path / "header.points"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "(line " in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_generate_searches_a_modulus_outside_the_table(tmp_path, capsys):
    assert main(["generate", "torus", "--q", "125", "--vars", "2"]) == 0
    text = capsys.readouterr().out
    assert "field 5 3 " in text
    path = tmp_path / "f125.points"
    path.write_text(text)
    assert main(["analyze", str(path), "--json", "--budget", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["m"] == 124 and report["input"]["field"]["q"] == 125


def test_generate_output_with_a_builtin_modulus_is_unchanged(capsys):
    assert main(["generate", "torus", "--q", "9", "--vars", "2"]) == 0
    assert capsys.readouterr().out == (
        "# projective torus in P^1 over F_9\nfield 3 2 2 2 1\nvars 2\n"
        "1 1\n2 1\na 1\n1+a 1\n2+a 1\n2*a 1\n1+2*a 1\n2+2*a 1\n"
    )


def test_generate_rejects_an_extension_field_above_the_tables(capsys):
    assert main(["generate", "torus", "--q", "2048", "--vars", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "q <= 1024" in captured.err


def test_golden_command(capsys):
    assert main(["golden", "ci_four_points"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0 divergences" in out
    assert main(["golden", "--list"]) == 0
    capsys.readouterr()
    assert main(["golden", "nonexistent"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: unknown example 'nonexistent'; known: ci_four_points")


def test_golden_exits_1_on_a_divergence(monkeypatch, capsys):
    """A wrong stored value surfaces as a divergence and exit code 1."""
    text, expected = load_entry("ci_four_points")
    expected["r0"] = 3
    monkeypatch.setattr(golden, "load_entry", lambda name: (text, expected))
    assert main(["golden", "ci_four_points"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  ci_four_points")
    assert "      divergence in r0: report 2\n" in out
    assert "1 examples, 1 divergences" in out


def test_json_report_matches_schema(frame_points_file, tmp_path, capsys):
    import jsonschema
    from importlib import resources

    schema = json.loads(
        (resources.files("rmcode") / "report_schema.json").read_text()
    )
    for extra in ([], ["--duality", "--gorenstein", "--selfdual"],
                  ["--weight-matrix", "--footprint", "--ghw", "1,1"]):
        assert main(["analyze", frame_points_file, "--json"] + extra) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema)


def test_selfdual_classification_via_cli(tmp_path, capsys):
    text, _ = load_entry("projective_line_f9")
    p = tmp_path / "line.points"
    p.write_text(text)
    assert main(["analyze", str(p), "--selfdual", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["self_duality"]["self_dual_degrees"] == [4]
    assert report["self_duality"]["self_orthogonal_degrees"] == [4]


def test_order_override_flag(tmp_path, capsys):
    text, _ = load_entry("gorenstein_not_ci")
    p = tmp_path / "five.points"
    p.write_text(text)
    assert main(["analyze", str(p), "--order", "glex:4,3,2,1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["order"] == {"kind": "glex", "perm": [4, 3, 2, 1]}
    # under this order there is no essential monomial
    assert report["indicators"]["essential_monomials"] == []


def test_budget_env_override(frame_points_file, capsys, monkeypatch):
    monkeypatch.setenv("RMCODE_BUDGET", "123456")
    assert main(["analyze", frame_points_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["budgets"]["codeword_default"] == 123456
    assert report["budgets"]["subspace_default"] == 123456


@pytest.mark.parametrize("cell", ["x", "1,2,3", "a,b", "1", ""])
def test_analyze_ghw_cell_malformed(frame_points_file, capsys, cell):
    assert main(["analyze", frame_points_file, "--ghw", cell]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"ghw cell {cell!r} must be d,r with integers d and r" in err
    assert "unpack" not in err and "invalid literal" not in err


@pytest.mark.parametrize("cell", ["9,9", "1,0", "0,1", "2,6"])
def test_analyze_ghw_cell_out_of_range(frame_points_file, capsys, cell):
    # the five-point frame has H = (1, 4, 5), so dim C_X(d) is 4 or 5
    assert main(["analyze", frame_points_file, "--ghw", cell]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ghw cell" in err


def test_analyze_rejects_negative_budget(frame_points_file, capsys):
    assert main(["analyze", frame_points_file, "--budget", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--budget" in err


@pytest.mark.parametrize("value", ["abc", "-3", "1e6"])
def test_analyze_rejects_malformed_budget_env(frame_points_file, capsys, monkeypatch, value):
    monkeypatch.setenv("RMCODE_BUDGET", value)
    assert main(["analyze", frame_points_file]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RMCODE_BUDGET" in err


@pytest.mark.parametrize("form", ["t1+", "t1*", "2*"])
def test_analyze_rejects_a_pinned_form_with_a_dangling_operator(tmp_path, capsys, form):
    path = tmp_path / "two.points"
    path.write_text("field 3 1\nvars 2\n1 0\n0 1\n")
    assert main(["analyze", str(path), "--gorenstein", "--artinian-h", form]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and form in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_analyze_rejects_a_pinned_form_without_gorenstein(tmp_path, capsys):
    """--artinian-h pins the form of the Artinian reduction, which only
    --gorenstein runs: alone it is an input error, from the library too."""
    path = tmp_path / "plane.points"
    path.write_text(load_entry("projective_plane_f3")[0])
    assert main(["analyze", str(path), "--artinian-h", "t1+"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--gorenstein" in captured.err
    assert "Traceback" not in captured.out + captured.err
    with pytest.raises(InvalidParams):
        analyze_text(path.read_text(), AnalysisRequest(artinian_h="t1+t3"))


@pytest.mark.parametrize("form", ["t1^2+t2^2", "2", "0"])
def test_analyze_rejects_a_pinned_form_that_is_not_linear(tmp_path, capsys, form):
    # [1:0] and [0:1] of P^1(F_3): t1^2 + t2^2 vanishes at neither point
    path = tmp_path / "two.points"
    path.write_text("field 3 1\nvars 2\n1 0\n0 1\n")
    assert main(["analyze", str(path), "--gorenstein", "--artinian-h", form]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "not a nonzero linear form" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_analyze_rejects_input_that_is_not_utf8(tmp_path, capsys, monkeypatch, source):
    import io

    data = "field 3 1\nvars 2\n1 0\n0 1\n".encode() + b"# \xff\xfe\n"
    path = tmp_path / "latin.points"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["analyze", str(path) if source == "file" else "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "decode" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("p", [2**31 + 11, 2**61 - 1])
def test_analyze_rejects_characteristic_above_bound(tmp_path, capsys, p):
    path = tmp_path / "big.points"
    path.write_text(f"field {p} 1\nvars 2\n1 0\n0 1\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "2**31" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_gorenstein_over_a_large_prime_field(tmp_path, capsys):
    path = tmp_path / "big.points"
    path.write_text(f"field {2**31 - 1} 1\nvars 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    t0 = time.perf_counter()
    code = main(["analyze", str(path), "--gorenstein", "--duality", "--selfdual", "--json"])
    assert code == 0 and time.perf_counter() - t0 < 5
    report = json.loads(capsys.readouterr().out)
    assert report["artinian"]["h"] == "t1+t2+t3"
    assert report["artinian"]["extension_degree"] == 1


@pytest.mark.parametrize("q", [2147483659, (2**31 + 11) ** 2, 2**61 - 1])
def test_generate_rejects_a_characteristic_above_bound(capsys, q):
    t0 = time.perf_counter()
    assert main(["generate", "torus", "--q", str(q), "--vars", "2"]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "2**31" in captured.err


def _prime_power_by_trial_division(q):
    """Oracle: (p, k) by scanning every p <= q, or None."""
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    if p is None:
        return None
    k = 0
    while q > 1:
        if q % p:
            return None
        q //= p
        k += 1
    return p, k


def test_prime_power_matches_trial_division():
    from rmcode.cli import _prime_power
    from rmcode.errors import InvalidParams

    for q in range(-2, 2001):
        want = _prime_power_by_trial_division(q)
        if want is None:
            with pytest.raises(InvalidParams) as err:
                _prime_power(q)
            assert str(q) in str(err.value).split()
        else:
            assert _prime_power(q) == want


# valid element literals of each field, and faults to put into a valid file
_FIELDS = {
    "field 2 1": ["0", "1"],
    "field 3 1": ["0", "1", "-1"],
    "field 5 1": ["0", "1", "2", "4"],
    "field 2 2": ["0", "1", "a", "1+a"],
}
_BAD_FIELD_LINES = [
    "field 4 1", "field 1 1", "field 0 1", "field -3 1", "field 3 0", "field 3",
    "field x 1", "field 3 2 1 0 2", f"field {2**31 + 11} 1", f"field {2**61 - 1} 1", "",
]
_BAD_VARS_LINES = ["vars 0", "vars -1", "vars x", "vars", "vars 4"]
_BAD_TOKENS = ["x", "1.5", "a^", "3*b", "a"]
_ORDER_LINES = ["", "", "order grevlex", "order glex", "order glex perm=2,1",
                "order glex perm=3,1,2", "order glex perm=1,1", "order lex"]
_OPTIONS = {
    "--order": ["grevlex", "glex", "glex:2,1", "glex:3,2,1", "lex", "glex:x"],
    "--ghw": ["1,1", "2,1", "1,2", "0,1", "1", "x,y", "1,1,1"],
    "--budget": ["0", "3", "50", "-1", "abc"],
    "--artinian-h": ["t1", "t1+t2", "t9", "zz"],
}
_FLAGS = ["--affine", "--duality", "--gorenstein", "--selfdual", "--weight-matrix",
          "--footprint", "--json", "--strict"]


def _cli_inputs():
    from hypothesis import strategies as st

    @st.composite
    def points_text(draw):
        field = draw(st.sampled_from(sorted(_FIELDS)))
        s = draw(st.integers(2, 3))
        # distinct projective points: the last nonzero coordinate is 1
        points = [
            " ".join(r) for r in itertools.product(_FIELDS[field], repeat=s)
            if next((t for t in reversed(r) if t != "0"), None) == "1"
        ]
        rows = draw(st.lists(st.sampled_from(points), unique=True, min_size=2, max_size=5))
        lines = [field, f"vars {s}", draw(st.sampled_from(_ORDER_LINES)), *rows]
        fault = draw(st.sampled_from(
            ["none", "none", "none", "field", "vars", "token", "drop", "repeat"]
        ))
        if fault == "field":
            lines[0] = draw(st.sampled_from(_BAD_FIELD_LINES))
        elif fault == "vars":
            lines[1] = draw(st.sampled_from(_BAD_VARS_LINES))
        elif fault == "token":
            i = draw(st.integers(3, len(lines) - 1))
            lines[i] += " " + draw(st.sampled_from(_BAD_TOKENS))
        elif fault == "drop":
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif fault == "repeat":
            lines.append(draw(st.sampled_from(["0 " * (s - 1) + "0", lines[-1]])))
        return "\n".join(lines) + "\n"

    options = st.dictionaries(
        st.sampled_from(sorted(_OPTIONS)), st.integers(0, 6), max_size=2
    ).map(lambda d: [x for k, i in sorted(d.items())
                     for x in (k, _OPTIONS[k][i % len(_OPTIONS[k])])])
    flags = st.lists(st.sampled_from(_FLAGS), unique=True, max_size=4)
    return st.tuples(points_text(), options, flags)


def test_analyze_exit_codes_property(tmp_path_factory):
    """Malformed files, moduli, orders and flag combinations: the exit code
    is documented, no traceback is printed, and 1 only comes with --strict."""
    import contextlib
    import io

    from hypothesis import HealthCheck, given, settings

    path = tmp_path_factory.mktemp("prop") / "in.points"

    @settings(max_examples=120, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cli_inputs())
    def check(case):
        text, options, flags = case
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["analyze", str(path), *options, *flags])
            except SystemExit as exc:  # argparse rejects a malformed option value
                code = exc.code
        assert code in (0, 1, 2, 3), (text, options, flags, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert code != 1 or "--strict" in flags

    check()
