"""A smoke test of what the benchmark perfbench/ reads from superdeform.

``perfbench/run.py --trace 0`` builds each workload, runs its checks
through their verifiers, then runs its output checks and compares its
oracle data with a sympy reference.  On the way it reads internals that
no other test reaches (``Cochain.flavor``, the ``terms`` views of
``SuperFunction`` and ``Scalar``, ``rational_value()``), so dropping one
from ``src/`` fails here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CODE = """
import json
import workloads
from oracle import matches
out = {}
for name, cls in sorted(workloads.WORKLOADS.items()):
    workload = cls(1)
    op = workload.round_ops(0)[0]
    out[name] = {
        "mismatch": op.verify(op.call()),
        "output_checks": [[check, ok] for check, ok
                          in workload.output_checks()],
        "oracle": [matches(item["f"], item["g"], item["value"], 6)
                   for item in workload.oracle_data() or []]}
print(json.dumps(out))
"""


def test_each_workload_runs_as_the_benchmark_reads_it():
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", _CODE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0"),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert sorted(data) == ["antibracket", "even_moyal", "odd_theorem_cli"]
    for name, got in data.items():
        assert got["mismatch"] is None, (name, got["mismatch"])
        assert all(ok for _check, ok in got["output_checks"]), (name, got)
    assert len(data["antibracket"]["output_checks"]) > 0
    assert data["even_moyal"]["oracle"] == [True, True, True]
