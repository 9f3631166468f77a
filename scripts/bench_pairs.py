"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload descent --pairs 10

Each root is a repository checkout holding `perfbench/`, `BENCHMARK.json`
and `src/`. Pair i runs `perfbench/run.py --workload W --seed S+i --seconds T
--trace 0` from each root, T being `run_seconds` of the parent's
BENCHMARK.json, the parent first in even pairs and the change first in odd
ones, so neither side always runs on a warmer or a busier machine. Each run
prints its verdict (`correct`, `attempted`, `failed`) and its end-to-end
metrics as it ends. At the end, for every end-to-end metric of the parent's
BENCHMARK.json, the script prints each side's median and quartiles over the
completed pairs, how many pairs each side won (ties count for neither),
whether the change's gain is claimable and whether the change regressed.

A gain is claimable when every change run completed and was correct with no
more failed operations than its paired parent run, the change won at least
nine tenths of all the pairs run, and the medians differ by more than the
parent's interquartile range. The regression verdict takes the metric's
`bound` in BENCHMARK.json as a fraction of the parent's median: `worse` when
the change's median is worse than the parent's by more than that, else
`unresolved` when the parent's interquartile range is wider than that and
not every change run beats every parent run, else `ok`.

A run that fails drops its pair from the medians; it, a change run that is
not correct or fails more operations than its paired parent run, or any
`worse` verdict makes the exit status 1. The script only reads
`perfbench/`; the runs write what any benchmark run writes, `.perfbench/` in
each root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in root: `correct`, `attempted`, `failed` and `metrics`
    ({name: value}), or None if the run did not finish."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {root}: seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {root}: seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


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


def compare(metrics: list[dict], pairs: list[tuple[dict, dict]], pairs_run: int,
            sound: bool) -> tuple[list[str], bool]:
    """One table row per metric: medians, quartiles, wins, whether a gain is
    claimable and the regression verdict; and whether any verdict is `worse`.
    `pairs` holds the completed pairs' metrics; the nine-tenths test counts
    against all `pairs_run`, and no gain is claimable unless `sound`."""
    rows = [f"{'metric':<28} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
            f"{'wins p/c':>9}  gain  regression"]
    worse = False
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        change_wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        parent_wins = sum((p > c) if higher else (p < c) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        improved = cm > pm if higher else cm < pm
        claim = (sound and improved and change_wins >= 0.9 * pairs_run
                 and abs(cm - pm) > p3 - p1)
        verdict = regression(m, parent, change)
        worse = worse or verdict == "worse"
        rows.append(f"{name:<28} {p1:>10.4g} {pm:>9.4g} {p3:>9.4g} {c1:>10.4g} {cm:>9.4g} "
                    f"{c3:>9.4g} {parent_wins:>4}/{change_wins:<4}  {'yes' if claim else 'no':<4}  "
                    f"{verdict}")
    return rows, worse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args()
    roots = [os.path.abspath(r) for r in (args.parent_root, args.change_root)]
    with open(os.path.join(roots[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    pairs, failed, sound = [], False, True
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = run_once(roots[side], args.workload, seed, seconds)
            label = ("parent", "change")[side]
            if got[side] is not None:
                r = got[side]
                values = ", ".join(f"{k} {v:.4g}" for k, v in r["metrics"].items())
                print(f"pair {i} seed {seed} {label}: correct {r['correct']}, "
                      f"attempted {r['attempted']}, failed {r['failed']}; {values}", flush=True)
        parent, change = got[0], got[1]
        if change is None or not change["correct"]:
            sound = False
        elif parent is not None and change["failed"] > parent["failed"]:
            sound = False
        if parent is None or change is None:
            failed = True
            continue
        pairs.append((parent["metrics"], change["metrics"]))

    print(f"\n{args.workload}: {len(pairs)} of {args.pairs} pairs completed, {seconds:g} s runs, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    if not sound:
        print("no gain is claimable: a change run failed, was not correct, "
              "or failed more operations than its paired parent run")
    worse = False
    if pairs:
        rows, worse = compare(spec["end_to_end"], pairs, args.pairs, sound)
        print("\n".join(rows))
    return 1 if failed or not sound or worse else 0


if __name__ == "__main__":
    sys.exit(main())
