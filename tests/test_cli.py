import json
from fractions import Fraction

import pytest

from kleinwiman.cli import dispatch, jsonable


def run_cli(args):
    code, report = dispatch(args)
    return code, report


def test_series_command_matches_recorded_values():
    code, rep = run_cli(["series", "--preset", "wiman", "--d", "90",
                         "--m4", "4", "--m3", "8"])
    assert code == 0
    assert rep["results"]["dim"] == 1
    assert rep["results"]["edim"] == 0


WIMAN_90_BASIS = (
    "1482*v1^15 + 3056*v1^13*v2 + 3318*v1^11*v2^2 + 2996*v1^10*v3"
    " + 447*v1^9*v2^3 + 177*v1^8*v2*v3 + 4109*v1^7*v2^4 + 1915*v1^6*v2^2*v3"
    " + 4938*v1^5*v2^5 + 4299*v1^5*v3^2 + 4088*v1^4*v2^3*v3 + 3270*v1^3*v2^6"
    " + 1834*v1^3*v2*v3^2 + 1054*v1^2*v2^4*v3 + 2089*v1*v2^7"
    " + 1099*v1*v2^2*v3^2 + 4387*v2^5*v3 + v3^3")


@pytest.mark.parametrize("argv, field, dim, edim, basis", [
    (["--preset", "wiman", "--d", "90", "--m4", "4", "--m3", "8"],
     "F4951", 1, 0, [WIMAN_90_BASIS]),
    (["--preset", "klein", "--d", "18", "--m4", "4"],
     "Q(zeta7)", 1, 1, ["-14*v1^3*v2 + (-1/4)*v1*v3 + v2^3"]),
], ids=["wiman-modp", "klein-exact"])
def test_series_basis_command_pinned(argv, field, dim, edim, basis):
    """--basis adds the kernel basis to the report; without it the
    dimension comes from a rank and the report is the same less the basis."""
    want = {"field": field, "dim": dim, "edim": edim, "source": "computed"}
    code, rep = run_cli(["series", *argv])
    assert code == 0 and rep["results"] == want
    code, rep = run_cli(["series", *argv, "--basis"])
    assert code == 0 and rep["results"] == {**want, "basis": basis}


def test_config_show_char7_counts():
    code, rep = run_cli(["config", "show", "--preset", "klein-char7"])
    assert code == 0
    sizes = [c["size"] for c in rep["results"]["classes"]]
    assert rep["results"]["num_lines"] == 21 and sizes == [21, 28]


@pytest.mark.parametrize("flag", ["exact", "modp:7"])
def test_char7_field_flags(flag):
    """The char-7 model is over F_7 whichever way that field is named."""
    code, rep = run_cli(["config", "show", "--preset", "klein-char7",
                         "--field", flag])
    assert code == 0 and rep["results"]["field"] == "F7"
    assert [c["size"] for c in rep["results"]["classes"]] == [21, 28]


def test_usage_error_exit_code():
    code, _ = run_cli(["series", "--preset", "nonsense", "--d", "10"])
    assert code == 2
    code, _ = run_cli(["unknown-subcommand"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["series", "--preset", "klein", "--d", "8", "--field", "modp:abc"],
    ["series", "--preset", "klein", "--d", "8", "--field", "modp:15"],
    ["series", "--preset", "wiman", "--d", "8", "--field", "modp:1048601"],
    ["series", "--preset", "klein", "--d", "8", "--field", "modp:2"],
    ["fatideal", "contain", "--preset", "klein-char7", "--r", "0"],
    ["series", "--preset", "klein", "--d", "-3"],
    ["negsearch", "--preset", "klein", "--dmax", "-5"],
    ["series", "--preset", "klein", "--d", "8", "--m3", "2", "--field", "modp:11"],
    ["fatideal", "alpha", "--preset", "klein-char7", "--dhint", "10"],
    ["fatideal", "resurgence", "--preset", "klein-char7", "--ledger-dmax", "20"],
    ["fatideal", "alpha", "--preset", "klein", "--ledger-dmax", "20"],
    ["waldschmidt", "--preset", "wiman", "--ledger-dmax", "36"],
    ["fatideal", "resurgence", "--preset", "wiman", "--ledger-dmax", "36"],
    ["series", "--preset", "wiman", "--field", "modp:19", "--d", "30", "--m3", "20"],
    ["fatideal", "generators", "--preset", "klein-char7", "--field", "modp:4733",
     "--depth", "9"],
    ["config", "show", "--preset", "klein-char7", "--field", "mod4733"],
    ["fatideal", "resurgence", "--preset", "klein", "--ledger-dmax", "20"],
    ["waldschmidt", "--preset", "klein", "--ledger-dmax", "20"],
    ["config", "show", "--preset", "klein", "--field", "modp:2311", "--special"],
    ["config", "show", "--preset", "klein", "--verify", "--special"],
    ["config", "show", "--preset", "klein-char7", "--verify", "--special"],
    ["waldschmidt", "--preset", "klein", "--curve-only", "--ledger-dmax", "60"],
    ["waldschmidt", "--preset", "wiman", "--curve-only"],
    ["series", "--preset", "klein", "--d", "10", "--m5", "1"],
    ["series", "--preset", "klein", "--d", "10", "--m3b", "1"],
], ids=["field-not-a-number", "field-not-prime", "field-prime-too-large",
        "field-even-prime", "r-zero", "d-negative", "dmax-negative",
        "field-lacks-preset-constants", "removed-dhint",
        "resurgence-char7-ledger", "alpha-ledger", "waldschmidt-wiman-ledger",
        "resurgence-wiman-ledger", "series-mult-above-p", "char7-other-field",
        "char7-config-other-field", "resurgence-klein-ledger-below-30",
        "waldschmidt-klein-ledger-below-30", "special-without-verify",
        "special-exact-field", "special-char7", "curve-only-with-ledger",
        "curve-only-wiman", "klein-series-m5", "klein-series-m3b"])
def test_bad_input_is_usage_error(argv):
    """Rejected before any engine work: exit 2, no report."""
    assert run_cli(argv) == (2, None)


def test_reports_deterministic():
    out = []
    for _ in range(2):
        code, rep = run_cli(["series", "--preset", "klein", "--d", "42",
                             "--m3", "8", "--field", "modp:4733", "--basis"])
        assert code == 0
        out.append(json.dumps(jsonable(rep), sort_keys=True))
    assert out[0] == out[1]


def test_waldschmidt_command():
    code, rep = run_cli(["waldschmidt", "--preset", "wiman"])
    assert code == 0
    assert rep["results"]["exact"] == Fraction(27, 2)
    assert jsonable(rep)["results"]["exact"] == "27/2"


def test_negsearch_command():
    code, rep = run_cli(["negsearch", "--preset", "klein", "--dmax", "20",
                         "--field", "modp:4733"])
    assert code == 0
    assert rep["results"]["ledger"] == ["21H - 4E4 - 3E3", "18H - 4E4"]
    assert rep["results"]["recorded_classes_beyond_200"]["source"] \
        == "reference-constant"


def test_fatideal_alpha_command():
    code, rep = run_cli(["fatideal", "alpha", "--preset", "klein-char7",
                         "--m", "1"])
    assert code == 0
    results = rep["results"]
    assert results["alpha"] == 8 and "scanned_from" not in results
    below = results["empty_below"]
    assert below["degree"] == 7 and below["rank"] == below["columns"] == 36
    assert results["witness"]["degree"] == 8
    assert jsonable(rep)["results"]["witness"]["form"] == "x^7*y + 6*x*y^7"
    code, _ = run_cli(["fatideal", "alpha", "--preset", "klein-char7",
                       "--m", "3", "--cap", "10"])
    assert code == 1


def test_fatideal_alpha_progress(capsys):
    """One stderr line per probed degree of the bisection; the upper end 16
    is alpha without a probe, so it has no line."""
    code, rep = run_cli(["fatideal", "alpha", "--preset", "klein-char7",
                         "--m", "2"])
    assert code == 0 and rep["results"]["alpha"] == 16
    assert capsys.readouterr().err == (
        "degree 8: rank 45 of 45 columns\n"
        "degree 12: rank 91 of 91 columns\n"
        "degree 14: rank 120 of 120 columns\n"
        "degree 15: rank 136 of 136 columns\n")


def test_fatideal_contain_dmax_below_alpha():
    """A --dmax below alpha(I) = 8 checks no degree, like one below
    alpha(I^(m)) only: no symbolic element is found, so none is uncontained."""
    code, rep = run_cli(["fatideal", "contain", "--preset", "klein-char7",
                         "--m", "2", "--r", "3", "--dmax", "3"])
    assert code == 0
    results = rep["results"]
    assert results["alpha_symbolic"] is None
    assert results["degrees_checked"] == []
    assert results["contained_degreewise"] is True
    assert "witness" not in results


@pytest.mark.parametrize("preset, degree, bounds", [
    ("klein-char7", 21, ["32/25", "36/25"]),
    ("klein", 21, ["16/13", "36/29"]),
    ("wiman", 45, ["32/27", "32/27"]),
], ids=["klein-char7", "klein", "wiman"])
def test_resurgence_command(preset, degree, bounds):
    code, rep = run_cli(["fatideal", "resurgence", "--preset", preset])
    assert code == 0
    results = jsonable(rep["results"])
    assert results["resurgence"] == "3/2"
    assert results["certificates"]["extreme_failure"] == {
        "pair": [3, 2], "element_degree": degree,
        "in_symbolic_cube": True, "in_square": False}
    asym = results["asymptotic_resurgence_bounds"]
    assert [asym["lower"], asym["upper"]] == bounds
    if preset == "klein-char7":
        assert results["alpha_symbolic_8"] == 50
        assert results["certificates"]["literal_small_failure"][
            "witness_degree"] == 16


def test_resurgence_ledger_consistent():
    """One lower bound on alpha_hat throughout the report: the larger of the
    curve certificate, 58/9, and the ledger certificate, 103/16 at degree 60."""
    from kleinwiman.fatideals import containment_inequality_certificate

    code, rep = run_cli(["fatideal", "resurgence", "--preset", "klein",
                         "--ledger-dmax", "60"])
    assert code == 0
    results = rep["results"]
    assert results["alpha_hat_lower"] == Fraction(58, 9)
    assert results["alpha_hat_bounds"]["lower"] == Fraction(58, 9)
    assert results["inequality_certificate"] == \
        containment_inequality_certificate(Fraction(58, 9), (8, 6), 2)
    assert results["asymptotic_resurgence_bounds"]["upper"] == Fraction(36, 29)


def test_invariants_verify_klein_modp():
    code, rep = run_cli(["invariants", "--preset", "klein",
                         "--field", "modp:4733", "--verify"])
    assert code == 0
    checks = rep["results"]["verification"]
    assert checks["degree42_relation"]["holds"]
    assert checks["image_of_triple_point"] == ["3", "4731", "4685"]


@pytest.mark.parametrize("suite", ["klein-core", "wiman-core", "char7"])
def test_golden_suites(suite):
    code, rep = run_cli(["golden", "--suite", suite])
    assert code == 0
    assert rep["results"]["failed"] == 0 and rep["results"]["passed"] > 0


def test_jsonable_fractions():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable({1: Fraction(1, 3)}) == {"1": "1/3"}
