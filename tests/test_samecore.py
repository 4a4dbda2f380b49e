"""Unit tests for the same-results check tools/samecore.py; none runs a
workload."""

import importlib.util
import json
import os

import pytest

from superdeform.verify import VerificationReport

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "samecore.py")
_SPEC = importlib.util.spec_from_file_location("samecore", _PATH)
samecore = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(samecore)


def _report(failures=None, elapsed=0.0):
    return VerificationReport("jacobi", {"n_plus": 2}, 3, failures,
                              {"bracket": "moyal"}, elapsed)


def test_a_report_digest_is_its_core():
    """Timing does not move a report's digest; its core does."""
    digest = samecore.result_digest(_report(elapsed=0.25))
    assert digest == samecore.result_digest(_report(elapsed=7.5))
    assert digest != samecore.result_digest(_report([(0, ["a"], "1")]))
    assert len(digest) == 16


def test_a_cli_digest_drops_elapsed_and_stderr():
    """Exit code and stdout count, but for the report's ``elapsed``;
    stderr does not count, and a non-JSON stdout counts as text."""
    def cli(code, data, err=""):
        out = data if isinstance(data, str) else json.dumps(data) + "\n"
        return code, out, err

    core = {"pass": True, "jacobi": {"sample_count": 1}}
    digest = samecore.result_digest(cli(0, core))
    assert digest == samecore.result_digest(
        cli(0, {**core, "elapsed": 0.5}, "warning"))
    assert digest != samecore.result_digest(cli(0, {
        "pass": True, "jacobi": {"sample_count": 1, "elapsed": 2.0}}))
    assert digest != samecore.result_digest(cli(1, core))
    assert digest != samecore.result_digest(cli(0, {**core, "pass": False}))
    assert samecore.result_digest(cli(2, "error: bad\n")) != \
        samecore.result_digest(cli(2, "error: worse\n"))
    # a report and the CLI output of its core are told apart
    assert samecore.result_digest(_report()) != samecore.result_digest(
        cli(0, _report().core_dict()))


def _data(digest="a", calls=5):
    return {"digests": {"even_moyal": {"checks": digest, "oracle": "o",
                                       "output_checks": "c"}},
            "counts": {"even_moyal": {"brackets.moyal_bracket.calls": calls,
                                      "cochains.evaluate.hits": 2}}}


@pytest.fixture
def trees(tmp_path):
    """Two trees that pass the usage checks."""
    out = []
    for side in ("parent", "change"):
        tree = tmp_path / side
        (tree / "src" / "superdeform").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text("")
        out.append(str(tree))
    return out


@pytest.mark.parametrize("change, code, lines", [
    (_data(), 0, []),
    (_data(digest="b"), 1, ["even_moyal: checks digests differ"]),
    (_data(calls=6), 1, ["even_moyal: brackets.moyal_bracket.calls "
                         "parent 5 change 6"]),
], ids=["equal", "digest", "count"])
def test_exit_code_and_lines(monkeypatch, capsys, trees, change, code,
                             lines):
    """0 when everything is equal, else 1 after one line per difference."""
    parent, changed = trees
    data = {parent: _data(), changed: change}
    monkeypatch.setattr(samecore, "_workload_names",
                        lambda tree: ["even_moyal"])
    monkeypatch.setattr(samecore, "_collect", lambda tree, names: data[tree])
    assert samecore.main(["--parent", parent, "--change", changed]) == code
    out = capsys.readouterr().out.splitlines()
    if code:
        assert out == lines
    else:
        assert len(out) == 1 and out[0].startswith("same results")


def test_usage_errors_exit_with_two(monkeypatch, trees, tmp_path):
    """A missing option or a tree without the package is a usage error,
    found before anything runs."""
    monkeypatch.setattr(samecore, "_collect", None)  # never reached
    parent, changed = trees
    for argv in (["--parent", parent],
                 ["--parent", parent, "--change", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            samecore.main(argv)
        assert exc.value.code == 2
