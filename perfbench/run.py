"""The superdeform benchmark: one workload per invocation.

    python3 perfbench/run.py --workload even_moyal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; superdeform is imported from ``src/``.
The workload runs in a child process of its own (perfbench/workloads.py),
single-threaded; set-up is measured again in SETUP_PROBES further child
processes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the raw wall-clock figures beside the normalised ones.
Everything measured is also written to perfbench/results/.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("even_moyal", "antibracket", "odd_theorem_cli")
SETUP_PROBES = 6
# A check has at least this many checks beyond its tail time.
TAIL_BEYOND = 10
# The child must finish within this many seconds beyond --seconds.
CHILD_SLACK_S = 100
PROBE_TIMEOUT_S = 30
MOYAL_H_MAX = 6


def _child(args, timeout):
    """Run workloads.py with superdeform on the path; returns its JSON."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workloads.py {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values):
    """The highest order statistic with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def _timing(checks, key):
    times = [c[key] for c in checks]
    tuples = sum(c["tuples"] for c in checks)
    return {"tuples_per_s": tuples / sum(times),
            "check_p50_s": statistics.median(times),
            "check_tail_s": _tail(times)}


def _oracle_failures(oracle):
    """Compare superdeform's even-sector Moyal values with sympy."""
    from oracle import matches
    failures = []
    for index, item in enumerate(oracle):
        if not matches(item["f"], item["g"], item["value"], MOYAL_H_MAX):
            failures.append(f"moyal_bracket differs from the sympy "
                            f"reference on pair {index}")
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superdeform", "__init__.py")):
        print(f"error: no superdeform package under {SRC}", file=sys.stderr)
        return 2
    # import from compiled bytecode, as an installed package would
    compileall.compile_dir(os.path.join(SRC, "superdeform"), quiet=1)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run = _child(["run", *common, "--seconds", str(args.seconds),
                  "--trace", str(args.trace)],
                 timeout=args.seconds + CHILD_SLACK_S)

    checks = run["checks"] + run.get("traced_checks", [])
    problems = [f"{c['op']} round {c['round']}: {c['error'] or c['mismatch']}"
                for c in checks if c["error"] or c["mismatch"]]
    problems += [o["name"] for o in run["output_checks"] if not o["ok"]]
    oracle = run["oracle"] or []
    problems += _oracle_failures(oracle)
    attempted = len(checks) + len(run["output_checks"]) + len(oracle)
    errors = sum(1 for c in checks if c["error"])
    failed = len(problems)
    mismatches = failed - errors

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "problems": problems}
    if args.trace:
        untraced = _timing(run["checks"], "norm_s")["tuples_per_s"]
        traced = _timing(run["traced_checks"], "norm_s")["tuples_per_s"]
        metrics = dict(run["layers"])
        metrics["trace.tuples_per_s_change"] = 100 * (traced / untraced - 1)
        report.update(layers=metrics, trace_file=run["trace_file"])
        units = {name: ("count" if name.rsplit(".", 1)[1] in
                        ("calls", "hits", "terms_in", "terms_out")
                        else "s") for name in metrics}
        units["trace.tuples_per_s_change"] = "%"
        print(f"tracing: tuples_per_s {untraced:.4g} untraced, "
              f"{traced:.4g} traced ({metrics['trace.tuples_per_s_change']:+.1f} %)")
    else:
        probes = [_child(["probe", *common], timeout=PROBE_TIMEOUT_S)
                  for _ in range(SETUP_PROBES)]
        setups = [{k: s[k] for k in ("setup_s", "setup_raw_s")}
                  for s in [run] + probes]
        norm = _timing(run["checks"], "norm_s")
        raw = _timing(run["checks"], "raw_s")
        norm["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        raw["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        norm["peak_rss_mb"] = raw["peak_rss_mb"] = run["peak_rss_mb"]
        metrics = norm
        units = {"tuples_per_s": "1/s", "check_p50_s": "s",
                 "check_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        report.update(normalised=norm, raw=raw, setups=setups)
        print(f"{args.workload} seed {args.seed}: {len(run['checks'])} "
              f"checks in {run['checks'][-1]['round'] + 1} rounds")
        for name in units:
            print(f"  {name:14s} normalised {norm[name]:12.6g}   "
                  f"raw {raw[name]:12.6g} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")

    report["run"] = run
    os.makedirs(RESULTS, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = os.path.join(RESULTS, f"{args.workload}-{args.seed}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
