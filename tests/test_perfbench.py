"""Smoke tests of what the benchmark perfbench/ reads from superdeform.

``perfbench/run.py --trace 0`` builds each workload, runs its checks
through their verifiers, then runs its output checks and compares its
oracle data with a sympy reference.  On the way it reads internals that
no other test reaches (``Cochain.flavor``, the ``terms`` views of
``SuperFunction`` and ``Scalar``, ``rational_value()``), so dropping one
from ``src/`` fails here rather than in a benchmark run.  ``--trace 1``
also installs the layer tracer, which wraps names of its own (the
``RadicalNumber`` stub, ``bidiff_power``, ``Cochain.evaluate`` and its
``_cache``); the second test installs it and reaches every traced layer.
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


_TRACED = """
import contextlib, io, json
from layertrace import Tracer
tracer = Tracer()
tracer.install()
import superdeform as sd
from superdeform import cli
ctx = sd.SymplecticContext(2, 2, (1, 1), 1, 4)
sd.Scalar.theta(ctx.scalar_ctx, 1) * 2 + 1
x1, xi1, xi2 = (sd.SuperFunction.x(ctx, 1), sd.SuperFunction.xi(ctx, 1),
                sd.SuperFunction.xi(ctx, 2))
f = sd.sf_mul(sd.SuperFunction.gauss(ctx, 1), xi1)
f.left_deriv(0), f.right_deriv(2), f.number_z()
sd.sf_mul(f, xi2).integral_bar()
for bracket in (sd.moyal_bracket, sd.poisson_bracket, sd.antibracket):
    bracket(x1, f)
sd.bidiff_power(x1, f, 1)
sd.m0_form(ctx)(x1, f)
ctx_flags = ["--nplus", "4", "--nminus", "2", "--k", "1"]
# one command per check entry; whether each passes is not the point here
for argv in (["jacobi", "--deformation", "antiodd()", "--n", "2",
              "--samples", "1"],
             ["theorem", "--nplus", "4", "--nminus", "3", "--k", "2",
              "--zeta", "xi1", "--h1", "th2", "--h2", "1"],
             ["equiv", *ctx_flags,
              "--c1", "c3(zeta=hbar^2*x1*gauss(1) + hbar^2*gauss(1))",
              "--c2", "c3(zeta=hbar^2*x1*gauss(1))",
              "--t1", "bar(gauss(1),-1)", "--order", "2", "--samples", "1"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        cli.run(argv)
print(json.dumps({"calls": tracer.calls, "counts": tracer.counts}))
"""

# every name the layer tracer counts calls under, but the RadicalNumber stub
_LAYERS = [
    "brackets.antibracket", "brackets.bidiff_power", "brackets.moyal_bracket",
    "brackets.poisson_bracket", "cli.parse", "cli.run", "cochains.evaluate",
    "deformations.build", "deformations.check_constraints",
    "deformations.check_equivalence", "scalars.Scalar.add",
    "scalars.Scalar.mul", "superfunc.integral_bar", "superfunc.left_deriv",
    "superfunc.number_z", "superfunc.right_deriv", "superfunc.sf_mul",
    "verify.check", "verify.sample_tuples"]


def test_layer_tracer_installs_and_reaches_every_layer():
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    calls, counts = data["calls"], data["counts"]
    assert sorted(name for name, n in calls.items() if n) == _LAYERS
    assert calls.get("scalars.RadicalNumber.mul", 0) == 0
    # Cochain.evaluate keeps no memo, so every call counts as a hit
    assert counts["cochains.evaluate.hits"] == calls["cochains.evaluate"]
    for name in ("superfunc.sf_mul", "brackets.moyal_bracket",
                 "brackets.bidiff_power"):
        assert counts[name + ".terms_in"] > 0 < counts[name + ".terms_out"]
