"""One workload of the superdeform benchmark, run in a process of its own.

    python3 perfbench/workloads.py run   --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py probe --workload W --seed N

``superdeform`` must be importable (``PYTHONPATH=src``); ``run.py`` starts
this script that way and turns its output into the benchmark's metrics.

``run`` sets the workload up, then runs whole rounds of checks: as many as
take about S seconds on the reference machine, and at least MIN_CHECKS
checks.  Each check is one call into a public check entry of superdeform
and is timed on its own, with the reference loop (refclock.py) run right
before and right after it.  Every output is checked outside the timed
spans.  With ``--trace 1`` it instead runs the workload's ``trace_rounds``
twice, untraced and then traced, and reports the per-layer figures.
``probe`` only sets up and reports the set-up time.

The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import namedtuple

from refclock import R0, normalise, reference

MIN_CHECKS = 40
SETUP_REFERENCES = 3

Op = namedtuple("Op", "name tuples call verify")


def _round_seeds(workload, seed, index, n):
    rng = random.Random(f"{workload}:{seed}:{index}")
    return [rng.getrandbits(31) for _ in range(n)]


# The xi-degrees of the functions of one sampled triple explain most of the
# cost of a one-triple Jacobi check (96 % of the variance for C1, 75 % for
# C1c, 92 % for ANTI_EVEN, 64 % for the theorem witness).  So these checks
# draw triples of set degree patterns: a round of even_moyal or antibracket
# takes each of the 27 patterns equally often, and the witness takes the
# pattern of its round's number, so that every run checks the same mix.
# Only which triples of a pattern are drawn depends on the seed.  Without
# this, the inputs of two seeds of even_moyal differed by 8 % in cost over a
# 30-second run.
PATTERNS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
PATTERN_STEP = 10  # coprime to 27: consecutive checks differ in pattern


def _xi_degree(f):
    return len(next(iter(f.terms))[2]) if f.terms else None


def _pattern(triple):
    return tuple(map(_xi_degree, triple))


def _stratified_spec(sd, ctx, key, index, count=1, **spec):
    """A SampleSpec of ``count`` triples whose j-th triple has pattern
    number ``index + 9 j`` (mod 27) of the cycle; the seed is the first of a
    stream keyed by ``key`` and ``index`` that draws such triples."""
    patterns = [PATTERNS[(index + 9 * j) * PATTERN_STEP % len(PATTERNS)]
                for j in range(count)]
    stream = random.Random(f"{key}:{index}")
    for _ in range(1_000_000):
        seed = stream.getrandbits(31)
        # the first triple is drawn first, so test it alone before the rest
        first = sd.SampleSpec(seed=seed, count=1, **spec)
        if _pattern(sd.sample_tuples(first, ctx, 3)[0]) != patterns[0]:
            continue
        candidate = sd.SampleSpec(seed=seed, count=count, **spec)
        if [_pattern(t) for t in sd.sample_tuples(candidate, ctx, 3)] == \
                patterns:
            return candidate
    raise RuntimeError(f"no seed draws xi-degrees {patterns} at {ctx}")


def _jacobi_like(expected_count):
    """Verifier for a VerificationReport: every residual exactly zero."""

    def verify(report):
        if report.sample_count != expected_count:
            return f"{report.sample_count} samples, expected {expected_count}"
        if not report.passed:
            return f"{len(report.failures)} nonzero residuals"
        return None

    return verify


class Workload:
    """A workload: set up in ``__init__`` from the seed, then rounds of
    checks; output checks and oracle data are optional."""

    def output_checks(self):
        """(name, ok) pairs of checks made after the timed loop."""
        return []

    def oracle_data(self):
        """Values that run.py compares with an outside reference."""
        return None


# -- even_moyal ----------------------------------------------------------------

class EvenMoyal(Workload):
    """Jacobi of the even-parameter Moyal-type brackets C1 and C1c.

    Samples are D-class, Gaussian weight 1, x-degree 0 (see README.md for
    why the x-degree-1 triples of acceptance criterion 4 are left out).
    """

    name = "even_moyal"
    checks_per_round = 54
    round_seconds = 22.0  # normalised, at this commit: 21 s
    trace_rounds = 1
    oracle_pairs = 3
    # Two triples per check: with one, about half the degree patterns cost
    # 0.1-0.15 s and half 0.18-0.6 s, so the median check fell on that gap
    # and moved by 40 % between seeds.  Sums of two patterns nine apart in
    # the cycle leave no such gap.
    triples = 2

    def __init__(self, seed):
        sd = self.sd = importlib.import_module("superdeform")
        self.seed = seed
        self.ctx42 = sd.SymplecticContext(4, 2, (1, 1), 1, 6)
        self.ctx45 = sd.SymplecticContext(4, 5, (1,) * 5, 2, 6)
        hbar2 = sd.Scalar.hbar(self.ctx42.scalar_ctx) ** 2
        self.zeta = sd.SuperFunction.term(self.ctx42, (1, 0, 0, 0),
                                          scalar=hbar2)
        self.zero45 = sd.SuperFunction.zero(self.ctx45)
        self.c45 = sd.Scalar.hbar(self.ctx45.scalar_ctx) ** 2
        # even sector at n_minus = 0 for the sympy reference (run.py)
        self.ctx20 = sd.SymplecticContext(2, 0, (), 0, 6)
        (oracle_seed,) = _round_seeds(self.name, seed, "oracle", 1)
        self.pairs = sd.sample_tuples(
            sd.SampleSpec(seed=oracle_seed, count=self.oracle_pairs,
                          max_x_degree=2, gauss_weights=(1, 2)),
            self.ctx20, 2)

    def round_ops(self, index):
        """27 two-triple checks of each bracket; each degree pattern comes
        twice per bracket."""
        sd = self.sd
        key = f"{self.name}:{self.seed}:{index}"
        d0 = {"max_x_degree": 0, "gauss_weights": (1,)}
        n = self.triples
        verify = _jacobi_like(n)
        ops = []
        for k in range(len(PATTERNS)):
            spec1 = _stratified_spec(sd, self.ctx42, key + ":C1", k, n, **d0)
            # offset so that the two checks of a step differ in pattern
            spec2 = _stratified_spec(sd, self.ctx45, key + ":C1c", k + 13, n,
                                     **d0)
            ops.append(Op("jacobi[C1]", n,
                          lambda spec=spec1: sd.check_jacobi(
                              sd.build_C1(self.zeta), spec),
                          verify))
            ops.append(Op("jacobi[C1c]", n,
                          lambda spec=spec2: sd.check_jacobi(
                              sd.build_C1c(self.zero45, 1, self.c45), spec),
                          verify))
        return ops

    def oracle_data(self):
        """Moyal brackets of the sampled pairs, for the sympy comparison."""
        return [{"f": _even_terms(f), "g": _even_terms(g),
                 "value": _even_terms(self.sd.moyal_bracket(f, g))}
                for f, g in self.pairs]


def _even_terms(f):
    """[x exponents, Gaussian weight, hbar power, rational coefficient]
    for each term of a theta-free function at n_minus = 0."""
    out = []
    for (xexp, c, _xi), scalar in f.terms.items():
        for (m, _alpha), rad in scalar.terms.items():
            out.append([list(xexp), str(c), m, str(rad.rational_value())])
    return out


# -- antibracket ---------------------------------------------------------------

class Antibracket(Workload):
    """Jacobi of the antibracket deformations and the m23 cocycle at
    (n+, n-, k, h_max) = (2, 2, 1, 6), on default SampleSpec samples."""

    name = "antibracket"
    checks_per_round = 81
    round_seconds = 22.0  # normalised, at this commit: 18.8 s
    trace_rounds = 1
    odd_triples = 12      # build_anti_odd, two-term samples
    cocycle_triples = 24  # m23 cocycle, two-term samples
    check_pairs = 8       # per term count, for the bracket output checks

    def __init__(self, seed):
        sd = self.sd = importlib.import_module("superdeform")
        self.seed = seed
        self.ctx = sd.SymplecticContext(2, 2, (1, 1), 1, 6)
        self.c = sd.Scalar.hbar(self.ctx.scalar_ctx) ** 2
        s1, s2 = _round_seeds(self.name, seed, "pairs", 2)
        self.pairs = [
            pair
            for spec_seed, terms in ((s1, 1), (s2, 2))
            for pair in sd.sample_tuples(
                sd.SampleSpec(seed=spec_seed, count=self.check_pairs,
                              terms=terms), self.ctx, 2)]

    def round_ops(self, index):
        """27 steps of three checks; the ANTI_EVEN triples take each
        degree pattern once."""
        sd, ctx = self.sd, self.ctx
        key = f"{self.name}:{self.seed}:{index}"
        ops = []
        for k in range(len(PATTERNS)):
            even_spec = _stratified_spec(sd, ctx, key, k, terms=1)
            s2, s3 = _round_seeds(self.name, self.seed, f"{index}:{k}", 2)
            odd_spec = sd.SampleSpec(seed=s2, count=self.odd_triples,
                                     terms=2)
            cocycle_spec = sd.SampleSpec(seed=s3, count=self.cocycle_triples,
                                         terms=2)
            ops += [
                Op("jacobi[ANTI_EVEN]", 1,
                   lambda spec=even_spec: sd.check_jacobi(
                       sd.build_anti_even(ctx, self.c), spec),
                   _jacobi_like(1)),
                Op("jacobi[ANTI_ODD]", self.odd_triples,
                   lambda spec=odd_spec: sd.check_jacobi(
                       sd.build_anti_odd(ctx), spec),
                   _jacobi_like(self.odd_triples)),
                Op("cocycle[m23]", self.cocycle_triples,
                   lambda spec=cocycle_spec: sd.check_cocycle(
                       sd.m23_form(ctx), spec, bracket=sd.anti_form(ctx)),
                   _jacobi_like(self.cocycle_triples)),
            ]
        return ops

    def output_checks(self):
        """Graded antisymmetry and epsilon-grading of both deformed
        brackets on the sampled pairs, and that some values are nonzero."""
        sd = self.sd
        results = []
        for defo in (sd.build_anti_even(self.ctx, self.c),
                     sd.build_anti_odd(self.ctx)):
            nonzero = 0
            for index, (f, g) in enumerate(self.pairs):
                ef, eg = (f.eps() + 1) % 2, (g.eps() + 1) % 2
                value = defo.evaluate(f, g)
                swapped = defo.evaluate(g, f)
                antisym = value + swapped * ((-1) ** (ef * eg))
                results.append((f"antisymmetry[{defo.flavor}] pair {index}",
                                antisym.is_zero()))
                eps = value.eps()  # None when the value mixes parities
                graded = value.is_zero() or \
                    (eps is not None and (eps + 1) % 2 == (ef + eg) % 2)
                results.append((f"grading[{defo.flavor}] pair {index}",
                                graded))
                nonzero += not value.is_zero()
            results.append((f"nonzero[{defo.flavor}] {nonzero} of "
                            f"{len(self.pairs)}", nonzero > 0))
        return results


# -- odd_theorem_cli -----------------------------------------------------------

class OddTheoremCli(Workload):
    """In-process ``superdeform`` commands: the k = 2 odd-parameter theorem,
    two cocycles and the golden equivalence, each with its verdict."""

    name = "odd_theorem_cli"
    checks_per_round = 10
    round_seconds = 9.0  # normalised, at this commit: 8.7 s
    trace_rounds = 2
    # Sizes set so that the cocycle and equiv commands cost about the same
    # (1 s): they then form one tight group that holds the median and the
    # tail, instead of either falling on a gap between commands of
    # different cost.  The witness's cost varies most (coefficient of
    # variation 0.4 within a degree pattern), so a round runs it once
    # against two of everything else.
    m3_triples = 44
    mzeta_triples = 72
    # With one-term samples about 13 % of pairs have a nonzero bar and so
    # tell the two signs of T1 apart; 150 pairs leave the wrong sign
    # undetected with probability 0.87^150, below 1e-9.
    equiv_pairs = 150

    def __init__(self, seed):
        sd = self.sd = importlib.import_module("superdeform")
        self.seed = seed
        theorem = ["theorem", "--case", "multi", "--nplus", "4", "--k", "2",
                   "--zeta", "xi1", "--h1", "th2", "--h2", "1"]
        self.witness = theorem + ["--nminus", "5", "--samples", "1"]
        # the witness's context, for drawing its stratified triple
        self.ctx45 = sd.SymplecticContext(4, 5, (1,) * 5, 2, 6)
        self.perturbed = theorem + ["--nminus", "3"]
        ctx = ["--nplus", "4", "--nminus", "2", "--k", "1", "--hmax", "6"]
        self.m3 = ["cocycle", "--form", "m3", *ctx,
                   "--samples", str(self.m3_triples)]
        self.mzeta = ["cocycle", "--form", "mzeta(2*x1*x2 + x3^2)", *ctx,
                      "--samples", str(self.mzeta_triples)]
        equiv = ["equiv", *ctx,
                 "--c1", "c3(zeta=hbar^2*x1*gauss(1) + hbar^2*gauss(1))",
                 "--c2", "c3(zeta=hbar^2*x1*gauss(1))", "--order", "2",
                 "--samples", str(self.equiv_pairs)]
        self.equiv_good = equiv + ["--t1", "bar(gauss(1),-1)"]
        self.equiv_bad = equiv + ["--t1", "bar(gauss(1),1)"]
        # Relations (i) and (iii) at n+ = 4, n- = 3 for zeta = xi1, eta = 0,
        # h1 = th2, h2 = 1: E xi1 = xi1/2, so th1 [2E - (2 + 4 - 3)] xi1
        # = -2 th1 xi1; m1(xi1, xi1) = 0, {xi1, xi1} = 1 cancels h2, and
        # etabar = 0, leaving (i) = -2 th1 xi1 and (iii) = (1 + 4 - 3) th1.
        ctx43 = sd.SymplecticContext(4, 3, (1, 1, 1), 2, 6)
        theta1 = sd.Scalar.theta(ctx43.scalar_ctx, 1)
        self.expect_i = sd.SuperFunction.xi(ctx43, 1).scale_left(
            theta1 * -2).render()
        self.expect_iii = sd.SuperFunction.constant(ctx43,
                                                    theta1 * 2).render()

    def _command(self, argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.sd.cli.run(argv)
            return code, out.getvalue(), err.getvalue()
        return call

    @staticmethod
    def _report(result, code):
        got, out, err = result
        if got != code:
            return None, f"exit {got}, expected {code}: {err.strip()}"
        try:
            return json.loads(out), None
        except ValueError:
            return None, f"stdout is not one JSON report: {out[:200]!r}"

    def _verify_witness(self, result):
        data, error = self._report(result, 0)
        if error:
            return error
        jacobi = data.get("jacobi", {})
        if not (data["pass"] and all(v == "0" for v in
                                     data["constraints"].values())
                and jacobi.get("pass")
                and jacobi.get("sample_count") == 1):
            return f"witness report {data}"
        return None

    def _verify_perturbed(self, result):
        data, error = self._report(result, 1)
        if error:
            return error
        got = data["constraints"]
        want = {"i": self.expect_i, "ii": "0", "iii": self.expect_iii}
        if got != want or data["pass"] or "jacobi" in data:
            return f"residuals {got}, expected {want}"
        return None

    @staticmethod
    def _verify_pass(count):
        def verify(result):
            data, error = OddTheoremCli._report(result, 0)
            if error:
                return error
            if not data["pass"] or data["sample_count"] != count:
                return f"report {data}"
            return None
        return verify

    def _verify_rejected(self, result):
        data, error = self._report(result, 1)
        if error:
            return error
        if data["pass"] or "first_failure" not in data:
            return f"opposite sign of T1 not rejected: {data}"
        return None

    def round_ops(self, index):
        """The two theorem cases, then the cocycles and equivalences
        twice, each time with their own seeds."""
        witness = _stratified_spec(self.sd, self.ctx45,
                                   f"{self.name}:{self.seed}", index)
        ops = [
            Op("theorem[witness]", 1,
               self._command(self.witness + ["--seed", str(witness.seed)]),
               self._verify_witness),
            Op("theorem[perturbed]", 0, self._command(self.perturbed),
               self._verify_perturbed),
        ]
        for half in range(2):
            s = [str(v) for v in
                 _round_seeds(self.name, self.seed, f"{index}:{half}", 4)]
            ops += [
                Op("cocycle[m3]", self.m3_triples,
                   self._command(self.m3 + ["--seed", s[0]]),
                   self._verify_pass(self.m3_triples)),
                Op("cocycle[mzeta]", self.mzeta_triples,
                   self._command(self.mzeta + ["--seed", s[1]]),
                   self._verify_pass(self.mzeta_triples)),
                Op("equiv[golden]", self.equiv_pairs,
                   self._command(self.equiv_good + ["--seed", s[2]]),
                   self._verify_pass(self.equiv_pairs)),
                Op("equiv[opposite]", self.equiv_pairs,
                   self._command(self.equiv_bad + ["--seed", s[3]]),
                   self._verify_rejected),
            ]
        return ops


WORKLOADS = {w.name: w for w in (EvenMoyal, Antibracket, OddTheoremCli)}


# -- measuring -----------------------------------------------------------------

def rounds_for(workload, seconds):
    """Whole rounds for a run of about ``seconds`` on the reference machine,
    and at least MIN_CHECKS checks.  The count depends on nothing measured,
    so every run of a workload checks the same mix of inputs."""
    return max(-(-MIN_CHECKS // workload.checks_per_round),
               int(seconds // workload.round_seconds), 1)


def run_rounds(rounds):
    """Run each round (a list of Op) in turn; returns the record of every
    check."""
    records = []
    for index, ops in enumerate(rounds):
        # drawing the round's seeds took time since the last reference
        r_prev = reference()
        for op in ops:
            gc.collect()
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation, not a stop
                raw = time.perf_counter() - t0
                error = f"{type(exc).__name__}: {exc}"
            else:
                raw = time.perf_counter() - t0
            r_next = reference()
            mismatch = None
            if not error:
                try:
                    mismatch = op.verify(result)
                except (KeyError, TypeError, ValueError) as exc:
                    mismatch = f"malformed output: {exc!r}"
            records.append({
                "op": op.name, "round": index,
                "tuples": 0 if error else op.tuples,
                "raw_s": raw, "ref_before_s": r_prev, "ref_after_s": r_next,
                "norm_s": normalise(raw, r_prev, r_next),
                "error": error, "mismatch": mismatch})
            r_prev = r_next
    return records


def _layer_metrics(tracer, records):
    """Per-layer metrics of a traced pass; times normalised by the median
    reference time of the pass."""
    calls, self_s, counts = tracer.snapshot()
    refs = [r["ref_after_s"] for r in records]
    scale = R0 / statistics.median(refs)
    names = ("scalars.Scalar.mul", "scalars.Scalar.add",
             "scalars.RadicalNumber.mul", "superfunc.sf_mul",
             "superfunc.left_deriv", "superfunc.right_deriv",
             "superfunc.integral_bar", "superfunc.number_z",
             "brackets.moyal_bracket", "brackets.bidiff_power",
             "brackets.poisson_bracket", "brackets.antibracket",
             "cochains.evaluate", "deformations.build",
             "deformations.check_constraints",
             "deformations.check_equivalence", "verify.sample_tuples",
             "verify.check", "cli.parse", "cli.run")
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) * scale
    for suffix in ("terms_in", "terms_out"):
        for name in ("superfunc.sf_mul", "brackets.moyal_bracket",
                     "brackets.bidiff_power"):
            metrics[f"{name}.{suffix}"] = counts.get(f"{name}.{suffix}", 0)
    metrics["cochains.evaluate.hits"] = counts.get("cochains.evaluate.hits", 0)
    return metrics


def _write_trace(args, tracer):
    """Write the kept spans and all counters; returns the path."""
    results = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"trace-{args.workload}-{args.seed}.json")
    calls, self_s, counts = tracer.snapshot()
    with open(path, "w") as fh:
        json.dump({"calls": calls, "self_s": self_s, "counts": counts,
                   "dropped_spans": tracer.dropped_spans,
                   "spans": [{"name": name, "parent": parent,
                              "start": start, "end": end}
                             for name, parent, start, end in tracer.spans]},
                  fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=["run", "probe"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # set-up: from here to the first timed check.  It is short (tens of
    # milliseconds), so one reference loop each side would be too noisy.
    r_before = reference(SETUP_REFERENCES)
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    setup_raw = time.perf_counter() - t0
    r_after = reference(SETUP_REFERENCES)
    out = {"workload": args.workload, "seed": args.seed,
           "setup_raw_s": setup_raw,
           "setup_s": normalise(setup_raw, r_before, r_after)}
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    if args.trace:
        # drawn before tracing starts, so that the benchmark's own drawing
        # of seeds stays out of the counts
        plan = [workload.round_ops(i) for i in range(workload.trace_rounds)]
        records = run_rounds(plan)
    else:
        records = run_rounds(workload.round_ops(i) for i in
                             range(rounds_for(workload, args.seconds)))
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = kib / 1024
    out["checks"] = records
    out["output_checks"] = [{"name": name, "ok": ok}
                            for name, ok in workload.output_checks()]
    out["oracle"] = workload.oracle_data()

    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        traced = run_rounds(plan)
        out["traced_checks"] = traced
        out["layers"] = _layer_metrics(tracer, traced)
        out["trace_file"] = _write_trace(args, tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
