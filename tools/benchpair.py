"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 tools/benchpair.py --parent PARENT_TREE --change CHANGE_TREE \\
        --workloads antibracket,even_moyal --seeds 2401-2410 --out BENCH_N.json

For each seed and workload it runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each tree, one run at a time; the
change runs first on odd seeds and the parent first on even ones.  T and
the end-to-end metrics (with their direction and bound) come from the
parent's BENCHMARK.json.  The output file holds, per workload and metric,
both sides' runs, medians and quartiles, the median and quartiles of the
per-pair change/parent ratios (``pair_ratio``, for information), the
change's wins (ties count for neither), whether a claimed gain is met
(``claim_met``) and whether the change stays within the bound
(``within_bound``), the failed-operation counts and the machine; it is
rewritten after every pair, so an interrupted comparison keeps its
finished pairs.  It prints one ``error:`` line and exits with code 2
before any run when the two trees' perfbench/ or BENCHMARK.json differ
(the sides would run two different benchmarks), when --seeds names no
seed (as "2410-2401" does), or when a workload is not named in the
parent's BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# a run may take this long beyond its --seconds (set-up probes, checks)
SLACK_S = 300


def _seeds(text):
    """"701-704,710" -> [701, 702, 703, 704, 710]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _digest(tree, sub):
    """sha256 (first 16 hex digits) of the files under tree/sub, so that
    the output names the code each side ran without naming its path."""
    h = hashlib.sha256()
    root = os.path.join(tree, sub)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in ("__pycache__", "results"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _benchmark_mismatch(parent, change):
    """What differs between the benchmarks of the two trees, or None."""
    if _digest(parent, "perfbench") != _digest(change, "perfbench"):
        return "perfbench/"
    files = []
    for tree in (parent, change):
        with open(os.path.join(tree, "BENCHMARK.json"), "rb") as fh:
            files.append(fh.read())
    return "BENCHMARK.json" if files[0] != files[1] else None


def _run(tree, workload, seed, seconds):
    """The last-line JSON of one benchmark run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=seconds + SLACK_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench/run.py --workload {workload} --seed "
                         f"{seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _summary(metric, runs):
    """Medians, quartiles and wins of one metric over the finished pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r[side]["metrics"][name]["value"] for r in runs]
              for side in SIDES}
    out = {"unit": metric["unit"], "better": metric["better"],
           "bound": metric["bound"]}
    for side in SIDES:
        q1, q3 = _quartiles(values[side])
        out[side] = {"median": statistics.median(values[side]),
                     "q1": q1, "q3": q3, "runs": values[side]}
    # information only: the median and quartiles of each pair's own
    # change/parent ratio, which the spread between seeds' inputs moves
    # less than the parent's quartiles (it sets no verdict)
    ratios = [b / a for a, b in zip(values["parent"], values["change"]) if a]
    if ratios:
        q1, q3 = _quartiles(ratios)
        out["pair_ratio"] = {"median": statistics.median(ratios),
                             "q1": q1, "q3": q3}
    p, c = out["parent"]["median"], out["change"]["median"]
    wins = sum((b < a) if lower else (b > a)
               for a, b in zip(values["parent"], values["change"]))
    gain = (p - c) if lower else (c - p)
    beyond_iqr = gain > out["parent"]["q3"] - out["parent"]["q1"]
    out.update(
        ratio=c / p if p else None,
        wins=f"{wins}/{len(runs)}",
        gain_beyond_parent_iqr=beyond_iqr,
        # the rule for claiming a gain: at least ten pairs, at least nine
        # tenths of them won, and the medians apart by more than the
        # parent's interquartile range
        claim_met=len(runs) >= 10 and 10 * wins >= 9 * len(runs)
        and beyond_iqr,
        within_bound=-gain <= metric["bound"] * abs(p))
    return out


def _report(args, bench, seconds, pairs):
    workloads = {}
    for workload in args.workloads:
        runs = pairs.get(workload, [])
        if not runs:
            continue
        workloads[workload] = {
            "seeds": [r["seed"] for r in runs],
            "first": [r["first"] for r in runs],
            "attempted": {s: sum(r[s]["attempted"] for r in runs)
                          for s in SIDES},
            "failed_operations": {s: sum(r[s]["failed"] for r in runs)
                                  for s in SIDES},
            "all_correct": all(r[s]["correct"] for r in runs for s in SIDES),
            "metrics": {m["name"]: _summary(m, runs)
                        for m in bench["end_to_end"]}}
    return {
        "what": (f"alternating pairs of `python3 perfbench/run.py --workload "
                 f"W --seed S --seconds {seconds} --trace 0`, one run at a "
                 f"time, the change first on odd seeds; times are "
                 f"reference-normalised (perfbench/README.md)"),
        "trees": {side: {"src_sha256": _digest(tree, "src"),
                         "perfbench_sha256": _digest(tree, "perfbench")}
                  for side, tree in zip(SIDES, (args.parent, args.change))},
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "workloads": workloads}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent's tree")
    ap.add_argument("--change", required=True, help="the change's tree")
    ap.add_argument("--workloads", required=True,
                    type=lambda text: text.split(","),
                    help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, type=_seeds,
                    help='seeds, e.g. "2401-2410" or "5,7,9"')
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)

    differs = _benchmark_mismatch(args.parent, args.change)
    if differs:
        print(f"error: the two trees' {differs} differ, so they run "
              f"different benchmarks", file=sys.stderr)
        return 2
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if not args.seeds:
        print("error: --seeds names no seed", file=sys.stderr)
        return 2
    known = [w["name"] for w in bench["workloads"]]
    for workload in args.workloads:
        if workload not in known:
            print(f"error: unknown workload {workload!r}; the parent's "
                  f"BENCHMARK.json names {', '.join(known)}", file=sys.stderr)
            return 2
    seconds = bench["run_seconds"]
    trees = dict(zip(SIDES, (args.parent, args.change)))
    pairs = {}
    for seed in args.seeds:
        order = ("change", "parent") if seed % 2 else SIDES
        for workload in args.workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(trees[side], workload, seed, seconds)
            pairs.setdefault(workload, []).append(pair)
            name = bench["end_to_end"][0]["name"]
            print(f"{workload} seed {seed}: {name} " + ", ".join(
                f"{side} {pair[side]['metrics'][name]['value']:.6g}"
                for side in SIDES), file=sys.stderr, flush=True)
        with open(args.out, "w") as fh:
            json.dump(_report(args, bench, seconds, pairs), fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
