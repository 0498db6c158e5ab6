"""Command-line interface: deterministic JSON reports over the preset tasks.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Every numeric
claim in a report carries a source tag: "computed" for values produced by
the engine in this run, "reference-constant" for recorded values that the
engine does not derive (regularity data, search-completeness statements).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from kleinwiman.errors import EngineError, UsageError
from kleinwiman.fields import (WIMAN_PRIME, PrimeField, parse_field_flag,
                               preset_field)

SCHEMA = "kleinwiman-report/4"


def jsonable(v):
    from kleinwiman.poly import Poly

    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    if isinstance(v, Poly):
        return v.text()
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    return str(v)


def emit(report):
    print(json.dumps(jsonable(report), sort_keys=True, indent=1))


def _field_for(preset, flag, default_prime=False):
    if flag is None and default_prime:
        if preset == "klein":
            return preset_field("klein-mod4733")
        if preset == "wiman":
            return preset_field("modp", WIMAN_PRIME)
        return preset_field("klein-mod7")
    return parse_field_flag(flag, preset)


def _check_klein_ledger_dmax(ledger_dmax):
    from kleinwiman.divisors import KLEIN_LEDGER_MIN_DMAX

    if ledger_dmax is not None and ledger_dmax < KLEIN_LEDGER_MIN_DMAX:
        raise UsageError(f"--ledger-dmax must be >= {KLEIN_LEDGER_MIN_DMAX}: the "
                         f"klein ledger bound needs a k >= 1 with 28k + 2 <= "
                         f"{ledger_dmax}")


def _fmt_point(field, p):
    return [field.fmt(c) for c in p]


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


# -- subcommands -------------------------------------------------------------

def cmd_config(args):
    from kleinwiman.configs import build_config, verify_orbit_decomposition
    from kleinwiman.divisors import CLASS_LABELS, CLASS_SIZES, line_class

    field = _field_for(args.preset, args.field)
    if args.special:
        if not args.verify:
            raise UsageError("--special is part of the audit: it needs --verify")
        if args.preset == "klein-char7":
            raise UsageError("--special: no special orbits are recorded for "
                             "klein-char7")
        if not isinstance(field, PrimeField):
            raise UsageError("--special: the special-orbit scan runs over a "
                             "prime field (--field modp:<p>)")
    cfg = build_config(args.preset, field)
    results = {
        "field": field.name,
        "lines": [l.text() for l in cfg.lines],
        "num_lines": cfg.num_lines,
        "classes": [{
            "label": c.label, "multiplicity": c.multiplicity, "size": c.size,
            "representative": _fmt_point(field, c.representative),
            "chart": "xyz"[c.chart],
        } for c in cfg.classes],
        "intersection_form": {
            "H^2": 1,
            **{f"{lbl}^2": -s for lbl, s in
               zip(CLASS_LABELS[args.preset], CLASS_SIZES[args.preset])},
        },
        "line_configuration_class": line_class(args.preset).as_text(),
        "source": "computed",
    }
    ok = True
    if args.verify:
        rep = verify_orbit_decomposition(cfg, check_special=args.special)
        results["verification"] = rep
        ok = rep["ok"]
    return (0 if ok else 1), results


def cmd_invariants(args):
    from kleinwiman.invariants import identity_checks, invariant_set, is_invariant

    field = _field_for(args.preset, args.field)
    inv = invariant_set(args.preset, field)
    results = {"field": field.name, "source": "computed",
               "fundamental": {str(d): f.text() for d, f in sorted(inv.phi.items())},
               "normalized": {str(d): f.text() for d, f in sorted(inv.psi.items())}}
    ok = True
    if args.verify:
        checks = {"generators_fix_invariants": all(is_invariant(inv.config, f)
                                                   for f in inv.phi.values()),
                  **identity_checks(inv)}
        # a check is a flag or a dict with one; the image of the triple
        # point is a reported value, not a check
        ok = all(v["holds"] if isinstance(v, dict) else v
                 for k, v in checks.items() if k != "image_of_triple_point")
        results["verification"] = checks
    return (0 if ok else 1), results


def cmd_series(args):
    from kleinwiman.series import SeriesSpec, edim, series_basis, series_dim

    if args.preset == "klein" and (args.m5 or args.m3b is not None):
        raise UsageError("klein series take only --m4 and --m3")
    field = _field_for(args.preset, args.field,
                       default_prime=(args.preset == "wiman"))
    spec = SeriesSpec(args.preset, args.d, m5=args.m5, m4=args.m4, m3=args.m3,
                      m3b=args.m3b)
    basis = series_basis(spec, field) if args.basis else None
    results = {"field": field.name,
               "dim": series_dim(spec, field) if basis is None else basis.dim,
               "edim": edim(spec), "source": "computed"}
    if basis is not None:
        results["basis"] = [f.text() for f in basis.weighted_polys()]
    return 0, results


def cmd_negsearch(args):
    from kleinwiman.divisors import (RECORDED_EXTENDED_LEDGER,
                                     negative_curve_search)

    field = _field_for(args.preset, args.field, default_prime=True)
    log = []
    ledger = negative_curve_search(args.preset, field, args.dmax, log=log,
                                   progress=_progress)
    results = {"field": field.name, "dmax": args.dmax,
               "ledger": [c.as_text() for c in ledger],
               "candidates_tried": len(log), "source": "computed"}
    if args.preset == "klein":
        results["recorded_classes_beyond_200"] = {
            "classes": [f"{d}H - {m4}E4 - {m3}E3"
                        for d, m4, m3 in RECORDED_EXTENDED_LEDGER],
            "source": "reference-constant",
        }
    return 0, results


def cmd_waldschmidt(args):
    from kleinwiman.divisors import waldschmidt_bounds

    if args.ledger_dmax is not None and args.preset != "klein":
        raise UsageError("--ledger-dmax applies only to klein: the wiman bounds "
                         "read no ledger")
    if args.curve_only and args.preset != "klein":
        raise UsageError("--curve-only applies only to klein: the wiman bounds "
                         "have one certificate")
    if args.curve_only and args.ledger_dmax is not None:
        raise UsageError("--curve-only and --ledger-dmax choose different "
                         "klein lower bounds: give one")
    _check_klein_ledger_dmax(args.ledger_dmax)
    field = _field_for(args.preset, args.field, default_prime=True)
    report = waldschmidt_bounds(args.preset, field, args.ledger_dmax)
    report["field"] = field.name
    report["source"] = "computed"
    return 0, report


def cmd_fatideal(args):
    from kleinwiman.configs import build_config
    from kleinwiman.fatideals import (MAX_DEGREE, PointSet, minimal_generators,
                                      resurgence_certificate)

    if args.ledger_dmax is not None and (args.task != "resurgence"
                                         or args.preset != "klein"):
        raise UsageError("--ledger-dmax applies only to fatideal resurgence "
                         "for klein")
    _check_klein_ledger_dmax(args.ledger_dmax)
    for task, option, degree in (("generators", "--depth", args.depth),
                                 ("contain", "--dmax", args.dmax)):
        if args.task == task and degree > MAX_DEGREE:
            raise UsageError(f"{option} {degree}: pieces go up to degree "
                             f"{MAX_DEGREE}, the widest the mod-p kernels take")
    field = _field_for(args.preset, args.field, default_prime=True)
    cfg = build_config(args.preset, field)
    ps = PointSet.from_config(cfg)
    if args.task == "alpha":
        from kleinwiman.fatideals import certified_alpha

        cert = certified_alpha(ps, args.m, cap=args.cap, progress=_progress)
        return 0, {"field": field.name, "m": args.m, **cert,
                   "source": "computed"}
    if args.task == "generators":
        gens = minimal_generators(ps, args.depth)
        return 0, {"field": field.name, "depth": args.depth,
                   "generators_by_degree": {str(d): len(v) for d, v in
                                            sorted(gens.by_degree.items())},
                   "alpha": gens.alpha, "omega": gens.omega,
                   "source": "computed"}
    if args.task == "contain":
        from kleinwiman.fatideals import containment_report
        rep = containment_report(ps, args.m, args.r, args.dmax)
        rep["field"] = field.name
        rep["source"] = "computed (regularity constants: reference)"
        return 0, rep
    if args.task == "resurgence":
        return resurgence_certificate(cfg, ps, args.ledger_dmax)
    raise UsageError(f"unknown fatideal task {args.task!r}")


def cmd_golden(args):
    from kleinwiman.golden import run_suite

    checks = run_suite(args.suite)
    failed = [c for c in checks if not c["pass"]]
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['detail']}", file=sys.stderr)
    return (1 if failed else 0), {
        "suite": args.suite,
        "checks": checks,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
    }


def _int_at_least(low):
    """argparse type of an integer option that must be >= low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser():
    p = argparse.ArgumentParser(
        prog="kleinwiman",
        description="Exact computations on the Klein and Wiman line "
                    "configurations and their blowups.")
    sub = p.add_subparsers(dest="command", required=True)
    nonnegative = _int_at_least(0)
    positive = _int_at_least(1)

    def add_common(sp, preset_choices=("klein", "wiman", "klein-char7")):
        sp.add_argument("--preset", required=True, choices=preset_choices)
        sp.add_argument("--field", default=None,
                        help="exact | modp:<p> (default depends on the task)")

    c = sub.add_parser("config", help="configuration data")
    c.add_argument("action", choices=["show"])
    add_common(c)
    c.add_argument("--verify", action="store_true")
    c.add_argument("--special", action="store_true",
                   help="also scan the special invariant-pair orbits (prime fields)")
    c.set_defaults(fn=cmd_config)

    i = sub.add_parser("invariants", help="fundamental and normalized invariants")
    add_common(i, ("klein", "wiman"))
    i.add_argument("--verify", action="store_true")
    i.set_defaults(fn=cmd_invariants)

    s = sub.add_parser("series", help="invariant linear series")
    add_common(s, ("klein", "wiman"))
    s.add_argument("--d", type=nonnegative, required=True)
    s.add_argument("--m5", type=nonnegative, default=0)
    s.add_argument("--m4", type=nonnegative, default=0)
    s.add_argument("--m3", type=nonnegative, default=0)
    s.add_argument("--m3b", type=nonnegative, default=None)
    s.add_argument("--basis", action="store_true")
    s.set_defaults(fn=cmd_series)

    n = sub.add_parser("negsearch", help="negative-curve search")
    add_common(n, ("klein", "wiman"))
    n.add_argument("--dmax", type=positive, default=60)
    n.set_defaults(fn=cmd_negsearch)

    w = sub.add_parser("waldschmidt", help="Waldschmidt-constant certificates")
    add_common(w, ("klein", "wiman"))
    w.add_argument("--ledger-dmax", type=positive, default=None)
    # names the default klein route; read only by the usage checks
    w.add_argument("--curve-only", action="store_true")
    w.set_defaults(fn=cmd_waldschmidt)

    f = sub.add_parser("fatideal", help="fat-point ideal computations")
    f.add_argument("task", choices=["alpha", "generators", "contain", "resurgence"])
    add_common(f)
    f.add_argument("--m", type=positive, default=1)
    f.add_argument("--r", type=positive, default=1)
    f.add_argument("--dmax", type=positive, default=30)
    f.add_argument("--depth", type=positive, default=13)
    f.add_argument("--cap", type=positive, default=120)
    f.add_argument("--ledger-dmax", type=positive, default=None)
    f.set_defaults(fn=cmd_fatideal)

    g = sub.add_parser("golden", help="reference-value suites")
    g.add_argument("--suite", default="all",
                   choices=["klein-core", "wiman-core", "char7", "all"])
    g.set_defaults(fn=cmd_golden)
    return p


@functools.cache
def _parser():
    """The one parser of the process, built at the first dispatch (which
    binds the cmd_ functions then); parse_args leaves it unchanged."""
    return build_parser()


def dispatch(argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return (2 if e.code not in (0, None) else 0), None
    try:
        code, results = args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2, None
    except EngineError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1, None
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "results": results,
    }
    return code, report


def main(argv=None):
    code, report = dispatch(sys.argv[1:] if argv is None else argv)
    if report is not None:
        emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
