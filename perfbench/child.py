"""One benchmark process: set up a workload and, in a pass, run its commands.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|pass|plain
                               [--spans PATH]

Run from the root of a checkout with ``src`` on PYTHONPATH (run.py does
this).  Set-up time runs from the first line of this script, before the
engine is imported, to the end of the workload's configuration builds.  A
pass then issues the workload's commands one after another through
``kleinwiman.cli.dispatch``, turns each report to JSON with
``cli.jsonable`` and checks it.

Modes ``setup`` and ``pass`` also refer set-up and pass times to a fixed
machine speed (speed.PassClock).  Mode ``plain`` takes no calibration
samples and times with perf_counter alone; with ``--spans PATH`` it traces
set-up and pass (spans.py) and writes the recorded spans to PATH.

The last line of standard output is one JSON object with the measurements;
progress lines and failure details go to standard error, which run.py
writes to the run log.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from speed import REF_CAL_S, PassClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every engine module, imported during set-up so that no command pays for a
# first import, and so that the tracer can patch every binding up front.
ENGINE_MODULES = ["cli", "configs", "divisors", "fatideals", "fields", "groups",
                  "invariants", "kernels", "linalg", "poly", "series"]


def command_key(argv):
    """`fatideal alpha` -> `fatideal.alpha`; `negsearch` -> `negsearch`."""
    if len(argv) > 1 and not argv[1].startswith("-"):
        return f"{argv[0]}.{argv[1]}"
    return argv[0]


def run_command(cli, cmd):
    """Dispatch one command; returns a failure description or None.  A
    report that raises while it is converted or checked counts as failed."""
    try:
        code, report = cli.dispatch(cmd.argv)
        if code != 0 or report is None:
            return {"exit_code": code}
        mismatch = cmd.check(cli.jsonable(report["results"]))
    except Exception:
        return {"error": traceback.format_exc()}
    return {"mismatch": mismatch} if mismatch else None


def layer_metrics(tracer, dispatch_s):
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.cells"] = st.cells
    kc = tracer.stats["linalg.kernel_certified"]
    out["linalg.kernel_certified.closed_ratio"] = (
        1 - kc.fallbacks / kc.calls if kc.calls else 0.0)
    keys = {command_key(c.argv) for w in WORKLOADS.values() for c in w.commands}
    for key in keys:
        out[f"cli.dispatch.{key}.s"] = dispatch_s.get(key, 0.0)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "pass", "plain"])
    ap.add_argument("--spans", help="trace set-up and pass, and write the spans here")
    args = ap.parse_args()
    if args.spans and args.mode != "plain":
        ap.error("--spans needs --mode plain")
    workload = WORKLOADS[args.workload]

    mods = {m: importlib.import_module(f"kleinwiman.{m}") for m in ENGINE_MODULES}
    cli = mods["cli"]
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out = {"backend": getattr(mods["kernels"], "BACKEND", None),
           "python": sys.version.split()[0],
           "numpy": importlib.import_module("numpy").__version__}
    if args.mode == "plain":
        workload.setup()
        out["setup_s"] = perf_counter() - T_START
    else:
        # the imports are referred to the first calibration sample, the
        # configuration builds like a pass
        import_s = perf_counter() - T_START
        with PassClock() as clock:
            workload.setup()
        build_s, build_ref_s = clock.times()
        out["setup_s"] = import_s + build_s
        out["setup_ref_s"] = import_s * REF_CAL_S / clock.samples[0] + build_ref_s
    if args.mode != "setup":
        plan = workload.plan(args.seed)
        failures = []
        dispatch_s = {}
        command_s = []
        clock = PassClock() if args.mode == "pass" else contextlib.nullcontext()
        t0 = perf_counter()
        with clock:
            for cmd in plan:
                before = tracer.stats["cli.dispatch"].total_s if tracer else 0.0
                tc = perf_counter()
                failure = run_command(cli, cmd)
                command_s.append([" ".join(cmd.argv), perf_counter() - tc])
                if tracer:
                    key = command_key(cmd.argv)
                    dispatch_s[key] = (dispatch_s.get(key, 0.0)
                                       + tracer.stats["cli.dispatch"].total_s
                                       - before)
                if failure is not None:
                    failure["argv"] = cmd.argv
                    failures.append(failure)
                    print(f"FAILED {' '.join(cmd.argv)}: {json.dumps(failure)}",
                          file=sys.stderr)
        if args.mode == "pass":
            out["wall_s"], out["wall_ref_s"] = clock.times()
        else:
            out["wall_s"] = perf_counter() - t0
        out["attempted"] = len(plan)
        out["failed"] = len(failures)
        out["commands"] = command_s     # in mode pass, with calibration pauses
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            out["layers"] = layer_metrics(tracer, dispatch_s)
            tracer.write_spans(args.spans)
    sys.stdout.flush()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
