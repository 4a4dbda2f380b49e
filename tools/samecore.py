"""Check that two checkouts give the same results on the benchmark's inputs.

    python3 tools/samecore.py --parent PARENT_TREE --change CHANGE_TREE

For each tree it starts a child process with ``PYTHONPATH=TREE/src:
TREE/perfbench`` and ``PYTHONHASHSEED=0`` that runs rounds 0-1 of every
workload of ``perfbench/workloads.py`` at seed 1 and hashes, per workload,
what each check returns (a report's ``core_dict()``; a CLI command's exit
code and stdout, without the report's ``elapsed``; an exception's type and
text), and apart from them ``oracle_data()`` and ``output_checks()``.  Then
it runs ``perfbench/run.py --workload W --seed 1 --trace 1`` in each tree
and compares every ``.calls``, ``.hits``, ``.terms_in`` and ``.terms_out``
count.  Nothing is timed, and nothing under perfbench/ is changed (run.py
writes its usual files under perfbench/results/).

It exits 0 when everything is equal, 1 after one line per differing
workload digest or count, and 2 on a usage error (a missing option, or a
tree without src/superdeform or perfbench/run.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

SIDES = ("parent", "change")
SEED = 1
ROUNDS = 2
COUNTS = ("calls", "hits", "terms_in", "terms_out")
# a child may take this long (rounds 0-1 of every workload, or one traced
# benchmark run)
TIMEOUT_S = 1800


def _hash(data):
    """sha256 (first 16 hex digits) of ``data`` as canonical JSON."""
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result):
    """The digest of what one check returned: the core of a report, or the
    exit code and stdout of a CLI command, the report's ``elapsed`` left
    out; the command's stderr is left out too."""
    if hasattr(result, "core_dict"):
        return _hash(["report", result.core_dict()])
    code, out, _err = result
    try:
        out = json.loads(out)
    except ValueError:
        pass  # not one JSON document: hash the text as it is
    if isinstance(out, dict):
        out.pop("elapsed", None)
    return _hash(["cli", code, out])


def _digests():
    """Per workload, the digests of its checks' results over rounds 0-1 at
    seed 1, of its oracle data and of its output checks."""
    import workloads
    out = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = cls(SEED)
        results = []
        for index in range(ROUNDS):
            for op in workload.round_ops(index):
                try:
                    results.append(result_digest(op.call()))
                except Exception as exc:  # a failed check is a result too
                    results.append(_hash(["error", type(exc).__name__,
                                          str(exc)]))
        out[name] = {"checks": _hash(results),
                     "oracle": _hash(workload.oracle_data()),
                     "output_checks": _hash(workload.output_checks())}
    return out


def _child(tree, argv):
    """Run ``argv`` in ``tree`` with its own src/ and perfbench/ on the
    path; returns the JSON of the last line of its stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]))
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode} "
                         f"in one of the trees")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(metrics):
    """The traced counts of a --trace 1 run's metrics."""
    return {name: m["value"] for name, m in metrics.items()
            if name.rsplit(".", 1)[-1] in COUNTS}


def _collect(tree, names):
    """The digests and traced counts of one tree."""
    data = {"digests": _child(tree, [os.path.abspath(__file__),
                                     "--digests"]),
            "counts": {}}
    for name in names:
        run = _child(tree, ["perfbench/run.py", "--workload", name, "--seed",
                            str(SEED), "--seconds", "30", "--trace", "1"])
        data["counts"][name] = _counts(run["metrics"])
    return data


def differences(parent, change):
    """One line per workload digest or traced count that differs between
    the collected data of the two trees."""
    lines = []
    for name in sorted(set(parent["digests"]) | set(change["digests"])):
        p, c = parent["digests"].get(name, {}), change["digests"].get(name, {})
        for part in sorted(set(p) | set(c)):
            if p.get(part) != c.get(part):
                lines.append(f"{name}: {part} digests differ")
    for name in sorted(set(parent["counts"]) | set(change["counts"])):
        p, c = parent["counts"].get(name, {}), change["counts"].get(name, {})
        for count in sorted(set(p) | set(c)):
            if p.get(count) != c.get(count):
                lines.append(f"{name}: {count} parent {p.get(count)} "
                             f"change {c.get(count)}")
    return lines


def _workload_names(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="the parent's tree")
    ap.add_argument("--change", help="the change's tree")
    ap.add_argument("--digests", action="store_true",
                    help=argparse.SUPPRESS)  # the child's mode
    args = ap.parse_args(argv)
    if args.digests:
        print(json.dumps(_digests()))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are both required")
    trees = dict(zip(SIDES, (args.parent, args.change)))
    for side, tree in trees.items():
        if not (os.path.isdir(os.path.join(tree, "src", "superdeform"))
                and os.path.isfile(os.path.join(tree, "perfbench",
                                                "run.py"))):
            ap.error(f"the {side} tree {tree} has no src/superdeform or "
                     f"perfbench/run.py")
    names = _workload_names(args.parent)
    data = {side: _collect(tree, names) for side, tree in trees.items()}
    lines = differences(data["parent"], data["change"])
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"same results: {len(names)} workloads, rounds 0-{ROUNDS - 1} at "
          f"seed {SEED}, and their traced counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
