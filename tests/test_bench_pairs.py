"""`scripts/bench_pairs.py` turns alternating benchmark pairs into one entry
of a workload's `BENCH_<workload>.json`; checked here on made-up pairs."""

import json
import os
import runpy
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


def test_entry_from_made_up_pairs(tmp_path):
    script = runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"))
    seeds = list(range(40, 50))
    entry = script["bench_entry"](("abc", "unknown"), seeds, 30, METRICS, made_up_pairs(), True)
    assert {k: v for k, v in entry.items() if k != "metrics"} == {
        "parent_commit": "abc", "change_commit": "unknown", "seeds": seeds, "run_seconds": 30,
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
    assert script["commit"](str(tmp_path)) == "unknown"


@pytest.mark.parametrize("pairs", ["0", "1", "9"])
def test_pair_count_not_positive_even_exits_2(monkeypatch, capsys, pairs):
    script = runpy.run_path(os.path.join(ROOT, "scripts", "bench_pairs.py"))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "a", "b", "--workload", "descent", "--pairs", pairs])
    with pytest.raises(SystemExit) as raised:
        script["main"]()
    assert raised.value.code == 2
    assert f"--pairs must be a positive even number, got {pairs}" in capsys.readouterr().err
