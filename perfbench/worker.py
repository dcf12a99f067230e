"""One workload in a fresh process, with BLAS threads pinned by the caller.

    python3 perfbench/worker.py prep    --data DIR --ckpt FILE --out FILE
    python3 perfbench/worker.py measure --workload W --data DIR --seed N
            --seconds S --trace 0|1 [--ckpt FILE --prep FILE] [--spans FILE]
            --out FILE

``prep`` trains and saves the checkpoint that ``eval_rayleigh`` evaluates,
with the code under test. ``measure`` times set-up (imports, corpus load,
subsetting, checkpoint load, one warm-up batch) several times, then runs the
workload's job in a closed loop for about ``--seconds``, checks every job's
outputs and writes the result to ``--out``. With ``--trace 1`` every other
job runs with spans recorded, so the traced run also gives the tracing
overhead against the untraced jobs beside it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

import numpy as np  # noqa: E402

from sensecomm import dataset, harness, models  # noqa: E402
from sensecomm.dataset import Dataset  # noqa: E402
from sensecomm.rng import Rng  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

SETUP_REPEATS = 3
MIN_JOBS = 2
ACCURACY_MARGIN = 0.05  # required lead of accuracy over the majority share

# The reference operating point (joint mode, n_c 20, batch 64, float32)
# for one epoch. The training and evaluation seeds stay at their defaults:
# --seed picks the corpus only, since the first epoch's loss and accuracy
# vary far more with the weight init than with the data.
REFERENCE = harness.ExperimentConfig(channel_kind="awgn", n_c=20, epochs=1,
                                     batch_size=64, mode="joint",
                                     dtype="float32")
RAYLEIGH = replace(REFERENCE, channel_kind="rayleigh")
SWEEP_SIZES = [4, 8, 16, 20]

# Training and test samples each workload takes from the loaded corpus.
TRAIN_SLICE = {"prep": 2560, "train_joint_awgn": 2560, "sweep_output_size": 512}
TEST_SLICE = {"prep": 256, "train_joint_awgn": 256, "sweep_output_size": 256}


def rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mib() -> float:
    """High-water RSS of this process plus that of its waited-for children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def sliced(ds: Dataset, name: str) -> Dataset:
    return Dataset(train=ds.train.subset(TRAIN_SLICE[name]),
                   test=ds.test.subset(TEST_SLICE[name]))


def prep(args):
    """Train the eval_rayleigh checkpoint on a slice of the corpus."""
    data = sliced(dataset.load_cifar10(args.data), "prep")
    pipeline, result = harness.run_experiment(RAYLEIGH, data)
    models.save_checkpoint(pipeline, args.ckpt, seed=RAYLEIGH.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"losses": [h["train_loss"] for h in result["history"]]}, fh)


@dataclass
class JobOutput:
    report: str        # canonical JSON of the job's result
    losses: list       # every training loss behind the result
    accuracy: float    # test accuracy (mean over a sweep's trainings)
    train_loss: float  # final-epoch mean loss (mean over a sweep's trainings)
    samples: int       # samples the job trained or evaluated


class Workload:
    """Set-up and one job of a workload."""

    def __init__(self, args):
        self.name = args.workload
        self.seed = args.seed
        self.data_dir = args.data
        self.ckpt = args.ckpt
        self.prep_losses = []
        if args.prep:
            with open(args.prep, encoding="utf-8") as fh:
                self.prep_losses = json.load(fh)["losses"]
        self.cfg = REFERENCE if self.name == "train_joint_awgn" else RAYLEIGH
        # The sweep's trainings take 8 steps each, too few to learn reliably,
        # so learning is checked on the two workloads that train 40 steps.
        self.checks_learning = self.name != "sweep_output_size"
        self.data = self.pipeline = None

    def setup(self):
        self.data = self.pipeline = None  # drop the previous corpus first
        ds = dataset.load_cifar10(self.data_dir)
        if self.name == "eval_rayleigh":
            self.data = ds
            self.pipeline, _ = models.load_checkpoint(self.ckpt)
            warm = self.pipeline
        else:
            self.data = sliced(ds, self.name)
            warm = models.Pipeline(self.cfg.model(), Rng(self.cfg.seed))
        test = self.data.test
        warm.predict(test.pixels[:64], test.label2[:64], self.cfg.channel(),
                     self.cfg.sensing(), Rng(self.cfg.seed))

    def chance_floor(self) -> float:
        share = float(self.data.test.label2.mean())
        return max(share, 1.0 - share) + ACCURACY_MARGIN

    def job(self) -> JobOutput:
        if self.name == "train_joint_awgn":
            _, result = harness.run_experiment(self.cfg, self.data)
            losses = [h["train_loss"] for h in result["history"]]
            return JobOutput(harness.to_json(result), losses,
                             result["metrics"]["accuracy"], losses[-1],
                             self.data.train.n * self.cfg.epochs)
        if self.name == "eval_rayleigh":
            m = harness.evaluate(self.pipeline, self.data.test, self.cfg)
            return JobOutput(harness.to_json(m), self.prep_losses, m.accuracy,
                             self.prep_losses[-1], self.data.test.n)
        sweep = harness.sweep_output_size(SWEEP_SIZES, self.cfg, self.data)
        runs = [p[mode] for p in sweep.per_point
                for mode in ("joint", "sensing_only")]
        return JobOutput(
            harness.to_json(sweep),
            [h["train_loss"] for r in runs for h in r["history"]],
            statistics.fmean(r["metrics"]["accuracy"] for r in runs),
            statistics.fmean(r["history"][-1]["train_loss"] for r in runs),
            len(runs) * self.data.train.n * self.cfg.epochs)


def measure(args):
    tracer = None
    if args.trace:
        from tracing import Tracer, summarize
        tracer = Tracer()
        tracer.install()

    work = Workload(args)
    setup_s, load_rss = [], None
    for _ in range(SETUP_REPEATS):
        rss0 = rss_mib()
        t0 = time.perf_counter()
        work.setup()
        setup_s.append(time.perf_counter() - t0)
        if load_rss is None:
            load_rss = peak_rss_mib() - rss0
    setup_spans = []
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()[0]

    attempted = failed = 0
    walls = {False: [], True: []}  # traced? -> job wall times, s
    rates, traced_jobs, first, out = [], [], None, None
    loop_start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            job = work.job()
        except Exception:
            traceback.print_exc()
            job = None
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            traced_jobs.append(tracer.take())
        n += 1
        attempted += 1
        if job is None:
            failed += 1
        else:
            out = job
            checks = [all(math.isfinite(x) for x in job.losses)]
            if work.checks_learning:
                checks.append(job.accuracy > work.chance_floor())
            if first is None:
                first = job.report
            else:
                checks.append(job.report == first)
            attempted += len(checks)
            failed += checks.count(False)
            walls[traced].append(wall)
            if not traced:
                rates.append(job.samples / wall)
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(walls[False] + walls[True] or [wall])
        if n >= MIN_JOBS and elapsed + typical > args.seconds:
            break

    record = {
        "workload": work.name, "seed": work.seed, "machine": machine(),
        "jobs": n, "attempted": attempted, "failed": failed,
        "job_walls_s": walls[False],
        "chance_floor": work.chance_floor(),
        "train_loss": out.train_loss if out else None,
    }
    metrics = {}
    if out is not None:
        metrics = {
            "setup_s": IMPORT_S + statistics.median(setup_s),
            "peak_rss_mib": peak_rss_mib(),
            "samples_per_s": statistics.median(rates) if rates else 0.0,
            "test_accuracy": out.accuracy,
        }
    if tracer and traced_jobs and walls[False] and walls[True]:
        layer = summarize(traced_jobs, setup_spans)
        layer["dataset.load_rss_mib"] = load_rss
        layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        record["end_to_end"] = metrics
        metrics = layer
        if args.spans:
            write_spans(args.spans, setup_spans, traced_jobs)
    record["metrics"] = metrics
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def write_spans(path, setup_spans, traced_jobs):
    """One JSON line per span; ``job`` is -1 for set-up, parents index into
    the spans of the same job."""
    with open(path, "w", encoding="utf-8") as fh:
        for job, spans in [(-1, setup_spans)] + [
                (j, s) for j, (s, _) in enumerate(traced_jobs)]:
            for i, (name, parent, t0, t1) in enumerate(spans):
                fh.write(json.dumps({"job": job, "id": i, "parent": parent,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1}) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["prep", "measure"])
    ap.add_argument("--workload")
    ap.add_argument("--data", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--ckpt")
    ap.add_argument("--prep")
    ap.add_argument("--spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.mode == "prep":
        prep(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
