"""Benchmark command. Run from the repository root:

    python3 perfbench/run.py --workload imbalance --seed 0 --seconds 30 --trace 0

1. Generates MNIST-shaped IDX files from --seed in a separate process
   (`gen.py`), so generation costs neither time nor memory in the measured
   process.
2. Starts the measured process (`workload.py`) with OpenBLAS, OpenMP and MKL
   pinned to one thread. The thread count must be set before NumPy loads;
   it is recorded and is the same on both sides of every comparison.
3. Prints the environment, every metric with its unit, the timing tails and
   the failed operations, then one JSON line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
   `failed` counts every failed operation: a training run that failed a
   check, or a descent step where G rose. `correct` is false only when an
   output is wrong (a raise, a missing or malformed artifact, a non-finite
   value, the two meta-gradient routes disagreeing); G rising under the step
   size the check picks is the program's own verdict on its guarantee, and
   is counted, named and gated through `ok_frac` rather than hidden.
   --trace 0 gives the end-to-end metrics of BENCHMARK.json, from untraced
   passes; --trace 1 gives its per-layer metrics, from a traced pass next to
   an untraced one.

Scratch files go under .perfbench/<workload>-seed<n>-trace<t>/ in the
current directory. The data and the training artifacts are removed once the
workload process ends; result.json (everything printed, plus the raw
samples) and the spans of a traced run stay.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170
BLAS_THREADS = "1"


def environment(root: str, numpy_info: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "blas_threads": BLAS_THREADS,
        **numpy_info,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="metareweight benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metareweight", "__init__.py")):
        print("perfbench: no src/metareweight here; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    data = os.path.join(work, "data")
    os.makedirs(data)
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(args.seed), "--out", data],
            env=env, check=True, timeout=deadline - time.monotonic(),
        )
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data", data, "--work", work],
            env=env, capture_output=True, text=True, timeout=deadline - time.monotonic(),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        for entry in os.listdir(work):  # keep only the spans of a traced run
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif entry != "spans.jsonl":
                os.remove(path)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    u, metrics = raw["untraced"], raw["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": not raw["errors"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root, raw["numpy"]),
              "result": result, "raw": raw}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(record, f, indent=1)

    for key, value in record["environment"].items():
        print(f"env {key} = {value}")
    for name in ("setup", "run"):
        label, value = u[f"{name}_tail"]
        print(f"{name}_s: median {u[f'{name}_s']:.4f} s, {label} {value:.4f} s, "
              f"{len(u[f'{name}_samples'])} samples")
    for strategy, rates in sorted(u["steps_samples"].items()):
        print(f"steps_per_s.{strategy}: {len(rates)} calls, "
              + ", ".join(f"{r:.2f}" for r in rates))
    d = raw["derived"]
    print(f"meta_overhead: wall {d['meta_overhead.wall']:.3f}, "
          f"counted {d['meta_overhead.counted']:.3f} (reported, not gated)")
    for e in raw["errors"]:
        print(f"FAILED {e}")
    for v in raw["violations"]:
        print(f"FAILED (G rose) {v}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
