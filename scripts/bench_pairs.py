"""Run the benchmark on two commits in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload descent --pairs 10

PARENT and CHANGE name commits of the repository that holds this script.
Each is exported with `git archive` into `parent/` or `change/` of one
temporary directory, removed at the end, so both sides run alike and neither
from the repository. Pair i runs `perfbench/run.py --workload W --seed S+i
--seconds T --trace 0` in each export, T being `run_seconds` of the parent's
BENCHMARK.json, the parent first in even pairs and the change first in odd
ones, so neither side always runs on a warmer or a busier machine. A name
that is not a commit, or a pair count that is not a positive even number,
exits 2 before a run starts. Each run prints its verdict (`correct`,
`attempted`, `failed`) and its end-to-end metrics as it ends; then, for
every end-to-end metric of the parent's BENCHMARK.json, the script prints
each side's median and quartiles over the completed pairs, the pairs each
side won (ties count for neither), whether the change's gain is claimable
and whether the change regressed.

A gain is claimable when every change run completed and was correct with no
more failed operations than its paired parent run, the change won at least
nine tenths of all the pairs run, and the medians differ by more than the
parent's interquartile range. The regression verdict takes the metric's
`bound` in BENCHMARK.json as a fraction of the parent's median: `worse` when
the change's median is worse than the parent's by more than that, else
`unresolved` when the parent's interquartile range is wider than that and
not every change run beats every parent run, else `ok`. A run that fails or
ends without a result line drops its pair from the medians; it, a change run
that is not sound as above, or any `worse` verdict makes the exit status 1.

When any pair completed, the comparison is appended as one entry, which
`bench_entry` describes, to the JSON list in the repository's
`BENCH_<workload>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in root, printed as it ends under the root's name:
    `correct`, `attempted`, `failed` and `metrics` ({name: value}), or None if
    the run did not finish or its last line is not a result."""
    run = f"seed {seed} {os.path.basename(root)}"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{run}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{run}: exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    try:
        result = json.loads(lines[-1])
        r = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    except (ValueError, KeyError, TypeError, AttributeError):
        print(f"{run}: printed no result: {lines[-1][:2000]}")
        return None
    values = ", ".join(f"{k} {v:.4g}" for k, v in r["metrics"].items())
    print(f"{run}: correct {r['correct']}, attempted {r['attempted']}, failed {r['failed']}; "
          f"{values}", flush=True)
    return r


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def regression(m: dict, parent: list[float], change: list[float]) -> str:
    """`worse`, `unresolved` or `ok` for one end-to-end metric, its bound read
    as a fraction of the parent's median."""
    higher = m["better"] == "higher"
    (p1, pm, p3), cm = quartiles(parent), statistics.median(change)
    allowed = m["bound"] * abs(pm)
    if (pm - cm if higher else cm - pm) > allowed:
        return "worse"
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    return "unresolved" if p3 - p1 > allowed and not beats_all else "ok"


def table(summary: dict[str, dict]) -> list[str]:
    """The printed comparison: one row per metric of an entry's `metrics`."""
    rows = [f"{'metric':<28} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
            f"{'wins p/c':>9}  gain  regression"]
    for name, s in summary.items():
        sides = " ".join(f"{s[side]['q1']:>10.4g} {s[side]['median']:>9.4g} {s[side]['q3']:>9.4g}"
                         for side in ("parent", "change"))
        rows.append(f"{name:<28} {sides} {s['wins']['parent']:>4}/{s['wins']['change']:<4}  "
                    f"{'yes' if s['claimable'] else 'no':<4}  {s['regression']}")
    return rows


def resolve(repo: str, name: str) -> str | None:
    """The full hash of the commit that name stands for in repo, or None."""
    proc = subprocess.run(["git", "-C", repo, "rev-parse", "--verify", "--quiet", name + "^{commit}"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def export(repo: str, commit: str, dest: str) -> None:
    """Write the files of commit in repo to the new directory dest."""
    os.mkdir(dest)
    archive = subprocess.run(["git", "-C", repo, "archive", commit], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def bench_entry(commits: tuple[str, str], seeds: list[int], seconds: float, metrics: list[dict],
                pairs: list[tuple[dict, dict]], sound: bool) -> dict:
    """One entry of `BENCH_<workload>.json`: the full hashes of the commits
    compared, the seeds of all pairs run, the run seconds, the pairs
    completed, whether the change's runs were sound, and for every metric
    each side's q1/median/q3, the pairs each side won, whether a gain is
    claimable, the regression verdict and the change/parent median ratio.
    `pairs` holds the completed pairs' metrics; the nine-tenths test counts
    against all pairs run, and no gain is claimable unless `sound`."""
    summary = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        change_wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        parent_wins = sum((p > c) if higher else (p < c) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        improved = cm > pm if higher else cm < pm
        summary[name] = {
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "wins": {"parent": parent_wins, "change": change_wins},
            "claimable": (sound and improved and change_wins >= 0.9 * len(seeds)
                          and abs(cm - pm) > p3 - p1),
            "regression": regression(m, parent, change),
            "ratio": cm / pm if pm else None,
        }
    return {"parent_commit": commits[0], "change_commit": commits[1], "seeds": seeds,
            "run_seconds": seconds, "pairs_completed": len(pairs), "sound": sound,
            "metrics": summary}


def append_entry(path: str, entry: dict) -> None:
    """Append entry to the JSON list in path, which is created if missing."""
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            entries = json.load(f)
    entries.append(entry)
    with open(path, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        parser.error(f"--pairs must be a positive even number, got {args.pairs}")
    commits = [resolve(ROOT, name) for name in (args.parent, args.change)]
    for name, commit in zip((args.parent, args.change), commits):
        if commit is None:
            parser.error(f"{name!r} is not a commit of {ROOT}")
    with tempfile.TemporaryDirectory() as tmp:
        roots = [os.path.join(tmp, side) for side in ("parent", "change")]
        for commit, root in zip(commits, roots):
            export(ROOT, commit, root)
        with open(os.path.join(roots[0], "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = spec["run_seconds"]

        pairs, sound = [], True
        for i in range(args.pairs):
            seed = args.seed + i
            got = {root: run_once(root, args.workload, seed, seconds)
                   for root in (roots if i % 2 == 0 else roots[::-1])}
            parent, change = (got[root] for root in roots)
            if change is None or not change["correct"]:
                sound = False
            elif parent is not None and change["failed"] > parent["failed"]:
                sound = False
            if parent is not None and change is not None:
                pairs.append((parent["metrics"], change["metrics"]))

    print(f"\n{args.workload}: {len(pairs)} of {args.pairs} pairs completed, {seconds:g} s runs, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    if not sound:
        print("no gain is claimable: a change run failed, was not correct, "
              "or failed more operations than its paired parent run")
    worse = False
    if pairs:
        seeds = list(range(args.seed, args.seed + args.pairs))
        entry = bench_entry(tuple(commits), seeds, seconds, spec["end_to_end"], pairs, sound)
        worse = any(s["regression"] == "worse" for s in entry["metrics"].values())
        print("\n".join(table(entry["metrics"])))
        path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
        append_entry(path, entry)
        print(f"appended this comparison to {path}")
    return 1 if len(pairs) < args.pairs or not sound or worse else 0


if __name__ == "__main__":
    sys.exit(main())
