"""Unit tests for the pair-comparison script tools/benchpair.py."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "benchpair.py")
_SPEC = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)

RATE = {"name": "tuples_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.2}
TIME = {"name": "check_p50_s", "unit": "s", "better": "lower",
        "bound": 0.2}


def _runs(metric, parent, change):
    """Finished pairs holding only ``metric`` on each side."""
    return [{side: {"metrics": {metric["name"]: {"value": value}}}
             for side, value in zip(benchpair.SIDES, pair)}
            for pair in zip(parent, change)]


@pytest.mark.parametrize("text, seeds", [
    ("7", [7]),
    ("701-704,710", [701, 702, 703, 704, 710]),
    ("5,7,9", [5, 7, 9]),
    ("2501-2502,2501", [2501, 2502, 2501]),
])
def test_seeds(text, seeds):
    assert benchpair._seeds(text) == seeds


def test_ties_count_for_neither_side():
    parent = [100] * 10
    change = [100] * 5 + [110] * 5
    out = benchpair._summary(RATE, _runs(RATE, parent, change))
    assert out["wins"] == "5/10"
    assert out["parent"]["median"] == 100 and out["change"]["median"] == 105
    assert out["gain_beyond_parent_iqr"] and not out["claim_met"]


def test_claim_needs_nine_tenths_of_ten_pairs_and_the_iqr():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    out = benchpair._summary(RATE, _runs(RATE, parent,
                                         [v + 10 for v in parent]))
    assert out["wins"] == "10/10" and out["claim_met"]
    # nine of ten won still meets the claim, eight does not
    change = [v + 10 for v in parent[:9]] + [90]
    assert benchpair._summary(RATE, _runs(RATE, parent, change))["claim_met"]
    change = [v + 10 for v in parent[:8]] + [90, 90]
    out = benchpair._summary(RATE, _runs(RATE, parent, change))
    assert out["wins"] == "8/10" and not out["claim_met"]
    # every pair won, but the medians lie within the parent's spread
    out = benchpair._summary(RATE, _runs(RATE, parent,
                                         [v + 1 for v in parent]))
    assert out["wins"] == "10/10"
    assert not out["gain_beyond_parent_iqr"] and not out["claim_met"]
    # six of six won is too few pairs to claim
    out = benchpair._summary(RATE, _runs(RATE, parent[:6],
                                         [v + 10 for v in parent[:6]]))
    assert out["wins"] == "6/6" and not out["claim_met"]


def test_lower_is_better():
    parent = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    faster = [v - 0.2 for v in parent]
    out = benchpair._summary(TIME, _runs(TIME, parent, faster))
    assert out["wins"] == "10/10" and out["claim_met"]
    assert out["within_bound"] and out["ratio"] < 1
    slower = [v + 0.2 for v in parent]
    out = benchpair._summary(TIME, _runs(TIME, parent, slower))
    assert out["wins"] == "0/10" and not out["claim_met"]


def test_pair_ratios_are_information_only():
    """Each pair's change/parent ratio, summarised apart from the medians:
    here the medians fall by 10 % while the typical pair gains 10 %, and
    the verdicts still follow the medians."""
    parent, change = [100, 200, 300], [110, 180, 330]
    out = benchpair._summary(RATE, _runs(RATE, parent, change))
    assert out["pair_ratio"]["median"] == pytest.approx(1.1)
    assert out["pair_ratio"]["q1"] == pytest.approx(1.0)
    assert out["pair_ratio"]["q3"] == pytest.approx(1.1)
    assert out["ratio"] == pytest.approx(0.9) and out["wins"] == "2/3"
    # ten pairs each won by 1 %: the ratios agree, and the parent's spread
    # still denies the claim
    parent = [100 + 10 * i for i in range(10)]
    out = benchpair._summary(RATE, _runs(RATE, parent,
                                         [1.01 * v for v in parent]))
    assert out["pair_ratio"]["q1"] == pytest.approx(1.01)
    assert out["pair_ratio"]["q3"] == pytest.approx(1.01)
    assert out["wins"] == "10/10" and not out["claim_met"]


@pytest.mark.parametrize("metric, change, within", [
    (RATE, 81, True),    # 19 % fewer tuples per second
    (RATE, 79, False),   # 21 % fewer
    (RATE, 150, True),
    (TIME, 119, True),   # 19 % slower
    (TIME, 121, False),  # 21 % slower
    (TIME, 50, True),
])
def test_within_bound(metric, change, within):
    out = benchpair._summary(metric, _runs(metric, [100] * 3, [change] * 3))
    assert out["within_bound"] is within
    assert out["bound"] == 0.2 and out["better"] == metric["better"]


@pytest.mark.parametrize("changed", ["perfbench/run.py", "BENCHMARK.json"])
def test_two_benchmarks_are_refused_before_any_run(tmp_path, monkeypatch,
                                                   capsys, changed):
    """Trees whose perfbench/ or BENCHMARK.json differ: exit 2 with one
    ``error:`` line, no run started and no output written; the same files
    in both trees pass the check (results/ and __pycache__/ aside)."""
    trees = [tmp_path / side for side in benchpair.SIDES]
    for tree in trees:
        (tree / "perfbench" / "results").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("print()\n")
        (tree / "BENCHMARK.json").write_text('{"run_seconds": 1}\n')
    (trees[0] / "perfbench" / "results" / "old.json").write_text("{}\n")
    assert benchpair._benchmark_mismatch(*trees) is None
    (trees[1] / changed).write_text("changed\n")

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(benchpair, "_run", no_run)
    out = tmp_path / "out.json"
    code = benchpair.main(["--parent", str(trees[0]), "--change",
                           str(trees[1]), "--workloads", "antibracket",
                           "--seeds", "1", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and not out.exists()
    assert len(err) == 1 and err[0].startswith("error:")
    assert changed.split("/")[0] in err[0]


@pytest.mark.parametrize("workloads, seeds, word", [
    ("antibracket", "2410-2401", "seed"),
    ("antibracket,even_moyl", "1", "even_moyl"),
], ids=["no_seed", "unknown_workload"])
def test_work_it_cannot_do_is_refused_before_any_run(tmp_path, monkeypatch,
                                                     capsys, workloads,
                                                     seeds, word):
    """A seed list that names no seed, or a workload the parent's
    BENCHMARK.json does not name: exit 2 with one ``error:`` line, no run
    started and no output written."""
    bench = '{"run_seconds": 1, "workloads": [{"name": "antibracket"}, ' \
        '{"name": "even_moyal"}], "end_to_end": []}\n'
    trees = [tmp_path / side for side in benchpair.SIDES]
    for tree in trees:
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("print()\n")
        (tree / "BENCHMARK.json").write_text(bench)

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(benchpair, "_run", no_run)
    out = tmp_path / "out.json"
    code = benchpair.main(["--parent", str(trees[0]), "--change",
                           str(trees[1]), "--workloads", workloads,
                           "--seeds", seeds, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and not out.exists()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
