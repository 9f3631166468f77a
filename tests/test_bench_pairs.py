"""`scripts/bench_pairs.py` turns alternating benchmark pairs into one entry
of a workload's `BENCH_<workload>.json`; checked here on made-up pairs, stubbed
runs and a throwaway repository, so no test needs this one to be a git
checkout."""

import json
import os
import runpy
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


def made_up_pairs():
    """Ten pairs. setup_s: the change wins 9, the parent the last. steps_per_s:
    the change is 30% slower in every pair. peak_rss_mb: the parent's runs
    spread wider than the bound and the change sits inside them."""
    pairs = []
    for i in range(10):
        parent = {"setup_s": 0.040 + 0.001 * i, "steps_per_s": 100.0, "peak_rss_mb": (90.0, 110.0)[i % 2]}
        change = {"setup_s": 0.050 if i == 9 else 0.010, "steps_per_s": 70.0, "peak_rss_mb": 101.0}
        pairs.append((parent, change))
    return pairs


def load_script() -> dict:
    return runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"))


def test_entry_from_made_up_pairs(tmp_path):
    script = load_script()
    seeds = list(range(40, 50))
    entry = script["bench_entry"](("abc", "def"), seeds, 30, METRICS, made_up_pairs(), True)
    assert {k: v for k, v in entry.items() if k != "metrics"} == {
        "parent_commit": "abc", "change_commit": "def", "seeds": seeds, "run_seconds": 30,
        "pairs_completed": 10, "sound": True}
    setup, steps, rss = (entry["metrics"][m["name"]] for m in METRICS)
    # Inclusive quartiles of 0.040..0.049 sit at positions 2.25, 4.5 and 6.75.
    assert setup["parent"] == pytest.approx({"q1": 0.04225, "median": 0.0445, "q3": 0.04675})
    assert setup["change"] == pytest.approx({"q1": 0.010, "median": 0.010, "q3": 0.010})
    assert setup["wins"] == {"parent": 1, "change": 9}
    assert setup["claimable"] and setup["regression"] == "ok"
    assert setup["ratio"] == pytest.approx(0.010 / 0.0445)
    assert steps["wins"] == {"parent": 10, "change": 0}
    assert not steps["claimable"] and steps["regression"] == "worse"
    assert steps["ratio"] == pytest.approx(0.7)
    assert rss["parent"] == {"q1": 90.0, "median": 100.0, "q3": 110.0}
    assert rss["wins"] == {"parent": 5, "change": 5} and rss["regression"] == "unresolved"
    # Nine wins fall short of nine tenths of eleven pairs run, and an unsound
    # change claims nothing.
    assert not script["bench_entry"](("a", "b"), seeds + [50], 30, METRICS, made_up_pairs(),
                                     True)["metrics"]["setup_s"]["claimable"]
    assert not script["bench_entry"](("a", "b"), seeds, 30, METRICS, made_up_pairs(),
                                     False)["metrics"]["setup_s"]["claimable"]

    path = tmp_path / "BENCH_imbalance.json"
    script["append_entry"](str(path), entry)
    script["append_entry"](str(path), entry)
    assert json.loads(path.read_text()) == [entry, entry]


@pytest.mark.parametrize("args, message", [
    pytest.param(["HEAD", "HEAD", "--pairs", "0"], "--pairs must be a positive even number, got 0",
                 id="pairs_0"),
    pytest.param(["HEAD", "HEAD", "--pairs", "1"], "--pairs must be a positive even number, got 1",
                 id="pairs_1"),
    pytest.param(["HEAD", "HEAD", "--pairs", "9"], "--pairs must be a positive even number, got 9",
                 id="pairs_9"),
    pytest.param(["no-such-commit", "HEAD", "--pairs", "2"], "'no-such-commit' is not a commit of",
                 id="unknown_commit"),
])
def test_bad_arguments_exit_2_before_a_run(monkeypatch, capsys, args, message):
    script = load_script()
    for name in ("export", "run_once"):
        monkeypatch.setitem(script["main"].__globals__, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", *args, "--workload", "descent"])
    with pytest.raises(SystemExit) as raised:
        script["main"]()
    assert raised.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("last_line", [
    pytest.param("Traceback (most recent call last):", id="not_json"),
    pytest.param('{"attempted": 3, "failed": 0, "metrics": {}}', id="no_correct"),
    pytest.param('{"correct": true, "attempted": 3, "failed": 0}', id="no_metrics"),
    pytest.param('["correct", "attempted", "failed", "metrics"]', id="not_an_object"),
])
def test_run_without_a_result_line_is_a_failed_run(monkeypatch, capsys, last_line):
    # Exit status 0, as a run whose last line is not its result can end.
    script = load_script()
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(
        cmd, 0, stdout=f"perfbench output\n{last_line}\n", stderr=""))
    assert script["run_once"]("/exports/change", "descent", 7, 30) is None
    assert f"seed 7 change: printed no result: {last_line}" in capsys.readouterr().out


def test_export_writes_the_commit_not_the_working_tree(tmp_path):
    script = load_script()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    (repo / "BENCHMARK.json").write_text("{}\n")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench", "-c",
                               "user.email=bench@example.com", "-c", "commit.gpgsign=false", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    (repo / "src" / "a.py").write_text("x = 2\n")  # edits after the commit stay out
    (repo / "untracked.txt").write_text("")
    assert script["resolve"](str(repo), "HEAD") == head and len(head) == 40
    assert script["resolve"](str(repo), head[:8]) == head
    assert script["resolve"](str(repo), git("rev-parse", "HEAD^{tree}")) is None
    assert script["resolve"](str(repo), "no-such-commit") is None
    dest = tmp_path / "change"
    script["export"](str(repo), head, str(dest))
    files = sorted(os.path.relpath(os.path.join(d, f), dest) for d, _, fs in os.walk(dest) for f in fs)
    assert files == ["BENCHMARK.json", os.path.join("src", "a.py")]
    assert (dest / "src" / "a.py").read_text() == "x = 1\n"
