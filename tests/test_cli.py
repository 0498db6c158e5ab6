import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import kleinwiman
from kleinwiman import invariants
from kleinwiman.cli import dispatch, jsonable, main


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


@pytest.mark.parametrize("preset, field", [
    ("klein", "modp:29"), ("klein", "modp:43"),
    ("wiman", "modp:19"), ("wiman", "modp:31")])
def test_config_verify_small_primes(preset, field):
    """Over small primes no closure checks the generators; the build's own
    line and point counts do, and the audit finds every class one orbit."""
    code, rep = run_cli(["config", "show", "--preset", preset, "--field", field,
                         "--verify"])
    assert code == 0 and rep["results"]["verification"]["ok"]


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
    ["fatideal", "generators", "--preset", "klein-char7", "--depth", "127"],
    ["fatideal", "contain", "--preset", "klein-char7", "--dmax", "127"],
    ["fatideal", "alpha", "--preset", "klein-char7", "--m", "127", "--cap", "200"],
    ["series", "--preset", "klein", "--d", "20000", "--m3", "1", "--field", "mod4733"],
    ["series", "--preset", "klein", "--d", "200000", "--m3", "1", "--field",
     "mod4733"],
], ids=["field-not-a-number", "field-not-prime", "field-prime-too-large",
        "field-even-prime", "r-zero", "d-negative", "dmax-negative",
        "field-lacks-preset-constants", "removed-dhint",
        "resurgence-char7-ledger", "alpha-ledger", "waldschmidt-wiman-ledger",
        "resurgence-wiman-ledger", "series-mult-above-p", "char7-other-field",
        "char7-config-other-field", "resurgence-klein-ledger-below-30",
        "waldschmidt-klein-ledger-below-30", "special-without-verify",
        "special-exact-field", "special-char7", "curve-only-with-ledger",
        "curve-only-wiman", "klein-series-m5", "klein-series-m3b",
        "generators-depth-above-126", "contain-dmax-above-126",
        "alpha-m-above-126", "series-d-past-width", "series-d-far-past-width"])
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


def test_fatideal_alpha_m_above_cap(capsys):
    """alpha >= m, so an --m above --cap fails before any matrix is built:
    the chain to degree 120 alone would take tens of GiB."""
    code, rep = run_cli(["fatideal", "alpha", "--preset", "klein-char7",
                         "--m", "127"])
    assert (code, rep) == (1, None)
    assert capsys.readouterr().err == ("verification failure: no element of "
                                       "the symbolic power found up to degree "
                                       "120\n")


def test_fatideal_alpha_progress(capsys):
    """One stderr line per chain of the unit form: the degrees modulo 2 up
    to 16, the least degree whose monomials outnumber the conditions, and
    up to 15; the first free column of each chain's kernel is the least
    nonzero degree of its class."""
    code, rep = run_cli(["fatideal", "alpha", "--preset", "klein-char7",
                         "--m", "2"])
    assert code == 0 and rep["results"]["alpha"] == 16
    assert capsys.readouterr().err == (
        "chain of x^2 + y^2 + z^2 to degree 16: rank 144 of 153 columns, "
        "empty through degree 14, nonzero at degree 16\n"
        "chain of x^2 + y^2 + z^2 to degree 15: rank 136 of 136 columns, "
        "empty through degree 15\n")


def test_fatideal_alpha_progress_after_peel(capsys):
    """At m = 6 every line carries 8 * 6 = 48 > 44 conditions through the
    top degree, 44: one line for the peel of the 21 lines, then one per
    chain of the residual system (degree 23, orders 2 and 3), its degrees
    read with the 21 added back and its columns those of the residual."""
    code, rep = run_cli(["fatideal", "alpha", "--preset", "klein-char7",
                         "--m", "6"])
    assert code == 0 and rep["results"]["alpha"] == 42
    assert capsys.readouterr().err == (
        "the product of 21 lines divides every form through degree 44: "
        "residual degree 23, order 2 at 21 points, order 3 at 28 points\n"
        "chain of x^2 + y^2 + z^2 to degree 44: rank 231 of 300 columns, "
        "empty through degree 40, nonzero at degree 42\n"
        "chain of x^2 + y^2 + z^2 to degree 41: rank 231 of 231 columns, "
        "empty through degree 41\n")


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


def test_wrong_klein_relation_fails(monkeypatch, capsys):
    """Mutation check: with one frozen coefficient of the degree-42 relation
    changed, the residual is nonzero and the relation fails, although the
    exact solve still re-derives the true coefficients."""
    monkeypatch.setattr(invariants, "KLEIN_RELATION",
                        {**invariants.KLEIN_RELATION, (9, 1, 0): 2049})
    code, rep = run_cli(["invariants", "--preset", "klein", "--field", "mod4733",
                         "--verify"])
    relation = rep["results"]["verification"]["degree42_relation"]
    assert code == 1
    assert not relation["holds"] and relation["rederived"]
    assert relation["coefficients"]["(9, 1, 0)"] == 2048
    code, rep = run_cli(["golden", "--suite", "klein-core"])
    assert code == 1 and rep["results"]["failed"] == 1
    assert "[FAIL] degree-42 relation: rederived=True\n" in capsys.readouterr().err


def test_fatideal_generators_command():
    """The minimal generators of the char-7 ideal of 49 points: three of
    degree 8 and one of degree 9."""
    code, rep = run_cli(["fatideal", "generators", "--preset", "klein-char7",
                         "--depth", "13"])
    assert code == 0
    results = rep["results"]
    assert results["generators_by_degree"] == {"8": 3, "9": 1}
    assert (results["alpha"], results["omega"]) == (8, 9)


def test_main_prints_the_dispatched_report(capsys):
    """main prints the report as sorted-key JSON and returns the exit code;
    a usage error prints nothing on stdout."""
    argv = ["waldschmidt", "--preset", "wiman"]
    code, rep = dispatch(argv)
    assert main(argv) == code == 0
    out = capsys.readouterr().out
    assert out == json.dumps(jsonable(rep), sort_keys=True, indent=1) + "\n"
    assert json.loads(out)["results"] == jsonable(rep["results"])
    assert main(["series", "--preset", "klein", "--d", "-3"]) == 2
    assert capsys.readouterr().out == ""


# address space of the child below: numpy and the engine fit in it, the
# 3.78 GiB matrix the command below would ask for does not
CHILD_AS_BYTES = 3_000_000 * 1024


def _limit_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = CHILD_AS_BYTES if hard == resource.RLIM_INFINITY \
        else min(CHILD_AS_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# Runs the alpha certificate of the 50th symbolic power of klein-char7 to
# degree 126 on a copy without its lines, which nothing peels, and reports a
# usage error as the CLI does.
UNPEELED_ALPHA_50 = """
import sys
from kleinwiman.configs import build_config
from kleinwiman.errors import UsageError
from kleinwiman.fatideals import PointSet, certified_alpha
ps = PointSet.from_config(build_config("klein-char7"))
ps.lines = []
try:
    certified_alpha(ps, 50, cap=126)
except UsageError as e:
    print(f"usage error: {e}", file=sys.stderr)
    sys.exit(2)
"""


def _run_limited(argv):
    src = os.path.dirname(os.path.dirname(kleinwiman.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable] + argv, env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=_limit_address_space)


def test_oversized_fat_point_input_is_usage_error():
    """A chain of 49 x 1275 rows by 8128 columns (3.78 GiB), at order 50 on
    the 49 points with no line to peel, is refused by the byte bound before
    numpy is asked for it: a UsageError, no traceback."""
    proc = _run_limited(["-c", UNPEELED_ALPHA_50])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage error: a 62475 x 8128 int64 matrix")
    assert "Traceback" not in proc.stderr


def test_peeled_fat_point_input_needs_no_matrix():
    """With its lines, the same order is settled by the peel: every line
    divides every form of I^(50) through degree 126 until the degree is
    used up, so alpha lies above the cap, and the command exits 0 with
    alpha_symbolic null, within the child's address-space limit."""
    proc = _run_limited(["-m", "kleinwiman.cli", "fatideal", "contain",
                         "--preset", "klein-char7", "--m", "50", "--r", "1",
                         "--dmax", "126"])
    assert proc.returncode == 0 and proc.stderr == ""
    results = json.loads(proc.stdout)["results"]
    assert results["alpha_symbolic"] is None and results["degrees_checked"] == []


def test_series_past_width_is_usage_error():
    """A degree of 119,061,905 weighted monomials is counted, not listed, and
    refused against the 8192 columns of the mod-p kernels: exit 2 within the
    child's address-space limit, no traceback."""
    proc = _run_limited(["-m", "kleinwiman.cli", "series", "--preset", "klein",
                         "--d", "200000", "--m3", "1", "--field", "mod4733"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("usage error: degree 200000 has 119061905 weighted "
                           "monomials, more than the 8192 columns of the mod-p "
                           "kernels\n")


# Runs each argv of the JSON list in argv[1] in a process forked from one
# that has imported the CLI (with no BLAS threads, which a fork would not
# copy), under an alarm of argv[2] seconds, with its stdout discarded, and
# reports an uncaught exception as the interpreter would: a traceback on
# stderr and exit code 1.  Prints [exit code, stderr] per argv as JSON.
SWEEP = """
import os
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
import json, signal, sys, tempfile, traceback
from kleinwiman.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    with tempfile.TemporaryFile() as err:
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            os.dup2(err.fileno(), 2)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            signal.alarm(int(sys.argv[2]))
            code = 1
            try:
                code = main(argv)
            except Exception:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        err.seek(0)
        results.append([os.waitstatus_to_exitcode(status), err.read().decode()])
print(json.dumps(results))
"""

# (command, prime of its field, first degree past the width bound, options):
# each option at 0, 1, p, p + 1 and that degree
SWEEP_CASES = [
    (["series", "--preset", "klein", "--field", "modp:29"], 29, 1648, ["--d"]),
    (["series", "--preset", "klein", "--field", "modp:29", "--d", "60"], 29, 1648,
     ["--m4", "--m3"]),
    (["series", "--preset", "wiman", "--field", "modp:19", "--d", "60"], 19, 2406,
     ["--m5", "--m4", "--m3", "--m3b"]),
    (["negsearch", "--preset", "klein", "--field", "modp:29"], 29, 1648,
     ["--dmax"]),
]


def test_option_boundary_sweep():
    """The options the series and the search read, each at 0, 1, p, p + 1
    and the first degree past the width bound, one process per value under
    the address-space limit and a 20 s alarm: exit 0, 1 or 2, never a
    traceback."""
    argvs = [base + [option, str(value)]
             for base, p, wide, options in SWEEP_CASES for option in options
             for value in (0, 1, p, p + 1, wide)]
    proc = _run_limited(["-c", SWEEP, json.dumps(argvs), "20"])
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs) == 40
    for argv, (code, err) in zip(argvs, results):
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    # p + 1 and past the width bound are refused, p is not
    codes = {tuple(argv[-2:]): code for argv, (code, _) in zip(argvs, results)}
    assert codes[("--m3", "30")] == codes[("--d", "1648")] == 2
    assert codes[("--m5", "19")] == codes[("--dmax", "29")] == 0


def test_wiman_psi_built_only_when_read():
    """The Wiman search, series and certificates read phi alone, so psi24
    and psi30 stay unbuilt; `invariants` builds them at its read, and its
    report is the one pinned from the eager build."""
    script = (
        "import contextlib, hashlib, io\n"
        "from kleinwiman.cli import dispatch, main\n"
        "from kleinwiman.fields import WIMAN_PRIME, preset_field\n"
        "from kleinwiman.invariants import wiman_invariants\n"
        "inv = wiman_invariants(preset_field('modp', WIMAN_PRIME))\n"
        "for argv in (['negsearch', '--preset', 'wiman', '--dmax', '36'],\n"
        "             ['series', '--preset', 'wiman', '--d', '90', '--m4', '4',\n"
        "              '--m3', '8'], ['waldschmidt', '--preset', 'wiman']):\n"
        "    assert dispatch(argv)[0] == 0\n"
        "print('psi' in vars(inv))\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    main(['invariants', '--preset', 'wiman', '--field', 'modp:4951'])\n"
        "print(hashlib.sha256(out.getvalue().encode()).hexdigest(),\n"
        "      sorted(inv.psi))\n")
    src = os.path.dirname(os.path.dirname(kleinwiman.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-2:] == [
        "False", "704970078a592e415b1423bea4fe6d08309ada35ddf37a55c96d3360857ae474 "
        "[6, 12, 24, 30]"]


@pytest.mark.parametrize("suite", ["klein-core", "wiman-core", "char7"])
def test_golden_suites(suite):
    code, rep = run_cli(["golden", "--suite", suite])
    assert code == 0
    assert rep["results"]["failed"] == 0 and rep["results"]["passed"] > 0


def test_jsonable_fractions():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable({1: Fraction(1, 3)}) == {"1": "1/3"}


def test_engine_leaves_numpy_random_unimported():
    """No engine module, nor a search, imports numpy.random: in a bare
    process that import alone costs about 6 MB of peak RSS."""
    script = (
        "import importlib, pkgutil, sys, kleinwiman\n"
        "for m in pkgutil.iter_modules(kleinwiman.__path__):\n"
        "    importlib.import_module('kleinwiman.' + m.name)\n"
        "from kleinwiman.cli import main\n"
        "assert main(['negsearch', '--preset', 'klein', '--dmax', '20']) == 0\n"
        "print('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(kleinwiman.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"
