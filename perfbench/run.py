"""End-to-end and per-layer benchmark of the kleinwiman engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement comes from a fresh
child process (perfbench/child.py), started one at a time, so at most one
engine process runs at once.  Children get ``src`` on PYTHONPATH, a fixed
hash seed, and no KLEINWIMAN_WORKERS or KLEINWIMAN_KERNELS, so they measure
the path the test suite runs: the numpy kernels and one worker.

--trace 0: passes over the workload's commands are repeated, each in a new
child, until S seconds have gone by (at least one pass).  Set-up is timed in
every child; extra set-up-only children are started until there are
SETUP_SAMPLES of them.  Reports the medians of wall_ref_s, setup_s and
peak_rss_mb, and the share of commands that succeeded.  wall_ref_s and
setup_s are referred to a fixed machine speed (speed.py); the summary also
prints both times raw.

--trace 1: one untraced pass, then one traced pass, both timed without
calibration.  Reports the per-layer metrics of the traced pass and
trace.overhead_s, the difference of the two passes' wall times.

The metric names and units come from BENCHMARK.json.  A summary goes to
standard output, followed by the result as one JSON line; child progress
lines, failures and a JSON record of the run go to perfbench/logs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
DEADLINE_S = 170          # the whole run, including every child
PASSES_UNTIL_S = 140      # no pass may end later; the set-up samples follow


def child_env(root):
    env = {k: v for k, v in os.environ.items()
           if k not in ("KLEINWIMAN_WORKERS", "KLEINWIMAN_KERNELS")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env, log, deadline, mode, spans=None):
    """One child to completion; returns its JSON record or None on failure."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    log.write(f"$ {' '.join(cmd[1:])}\n")
    log.flush()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=log,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log.write("child timed out\n")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log.write(f"child exited with {proc.returncode}\n")
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kleinwiman", "__init__.py")):
        sys.exit("perfbench: run from the root of a kleinwiman checkout "
                 "(src/kleinwiman is missing)")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = child_env(root)
    logdir = os.path.join(HERE, "logs")
    os.makedirs(logdir, exist_ok=True)
    stem = os.path.join(logdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    passes, setups = [], []
    with open(stem + ".log", "w") as log:
        if args.trace:
            passes.append(run_child(args, env, log, deadline, "plain"))
            passes.append(run_child(args, env, log, deadline, "plain",
                                    spans=stem + ".spans.jsonl"))
        else:
            while True:
                t0 = time.monotonic()
                passes.append(run_child(args, env, log, deadline, "pass"))
                now = time.monotonic()
                if (passes[-1] is None or now - start >= args.seconds
                        or now + (now - t0) > start + PASSES_UNTIL_S):
                    break
            setups = [p for p in passes if p]
            while len(setups) < SETUP_SAMPLES and passes[-1] is not None:
                s = run_child(args, env, log, deadline, "setup")
                if s is None:
                    break
                setups.append(s)
    done = [p for p in passes if p]
    if len(done) < len(passes) or (not args.trace and len(setups) < SETUP_SAMPLES):
        sys.exit(f"perfbench: a child process failed; see {stem}.log")

    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    if args.trace:
        values = dict(done[1]["layers"])
        values["trace.overhead_s"] = done[1]["wall_s"] - done[0]["wall_s"]
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in done),
            "wall_ref_s": statistics.median(p["wall_ref_s"] for p in done),
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
            "success_rate": (attempted - failed) / attempted,
        }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env_info = {"kernel_backend": done[0]["backend"], "python": done[0]["python"],
                "numpy": done[0]["numpy"], "nproc": len(os.sched_getaffinity(0))}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env_info,
              "passes": done,
              "setup_samples": [[s["setup_s"], s["setup_ref_s"]] for s in setups],
              "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(done)} " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    if not args.trace:
        print(f"  {'wall_s (raw)':<40} {values['wall_s']:.6g} s")
        print(f"  {'setup_s (raw)':<40} {values['raw_setup_s']:.6g} s")
        print(f"  {'error_rate':<40} {failed / attempted:.4f} "
              f"(failed/attempted = {failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
