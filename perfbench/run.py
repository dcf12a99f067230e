"""The sensecomm benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/sensecomm``. The script
writes the seeded corpus (cached under ``perfbench/.cache``), trains the
``eval_rayleigh`` checkpoint when that workload needs it, and then measures
the workload in a fresh worker process with BLAS pinned to one thread.
Human-readable lines go first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
WORKLOADS = ("train_joint_awgn", "eval_rayleigh", "sweep_output_size")
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take
BLAS_THREADS = "1"  # the steadiest setting; more threads widen the spread


def worker(argv: list[str], deadline: float) -> None:
    """Run perfbench/worker.py on the checkout's sources and wait for it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                   env=env, cwd=ROOT, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def table(title: str, rows: dict) -> None:
    print(title)
    for name, value in rows.items():
        print(f"  {name:32s} {value:>14.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "sensecomm", "__init__.py")):
        print(f"error: no sensecomm sources under {ROOT}/src", file=sys.stderr)
        return 2

    data = corpus.corpus_dir(CACHE, args.seed)
    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out = os.path.join(CACHE, f"result-{tag}.json")
    argv = ["measure", "--workload", args.workload, "--data", data,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", out]
    scratch = [out]
    if args.workload == "eval_rayleigh":
        ckpt = os.path.join(CACHE, f"ckpt-{tag}.bin")
        prep = os.path.join(CACHE, f"prep-{tag}.json")
        scratch += [ckpt, prep]
    try:
        if args.workload == "eval_rayleigh":
            worker(["prep", "--data", data, "--ckpt", ckpt, "--out", prep],
                   deadline)
            argv += ["--ckpt", ckpt, "--prep", prep]
        if args.trace:
            argv += ["--spans", os.path.join(
                CACHE, f"spans-{args.workload}.jsonl")]
        worker(argv, deadline)
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in scratch:
            if os.path.exists(path):
                os.remove(path)

    metrics = record["metrics"]
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    walls = sorted(record["job_walls_s"]) or [float("nan")]
    median = statistics.median(walls)
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"jobs {record['jobs']}  checks {record['attempted']}  "
          f"failed {record['failed']}  accuracy floor "
          f"{record['chance_floor']:.4f}  train_loss {record['train_loss']}")
    print(f"untraced job_wall_s  min {walls[0]:.4f}  "
          f"median {median:.4f}  max {walls[-1]:.4f}")
    if args.trace:
        table("end to end, untraced jobs of this run:",
              record.get("end_to_end", {}))
        table("per layer, traced jobs (fwd per Pipeline.forward, "
              "bwd per Pipeline.backward):", metrics)
    else:
        table("end to end:", metrics)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
