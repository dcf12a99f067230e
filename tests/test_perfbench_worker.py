"""The benchmark's worker drives the package through its public callables
from outside ``src/``. This runs every workload once, small, so a package
change that would break the benchmark fails here first."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def prepped(worker, fake_cifar_dir, tmp_path_factory):
    """The eval checkpoint and its training losses, as ``prep`` writes them."""
    tmp = tmp_path_factory.mktemp("perfbench")
    args = SimpleNamespace(data=str(fake_cifar_dir), ckpt=str(tmp / "ckpt.bin"),
                           out=str(tmp / "prep.json"))
    worker.prep(args)
    return args


@pytest.mark.parametrize("workload", ["train_joint_awgn", "eval_rayleigh",
                                      "sweep_output_size"])
def test_workload_sets_up_and_runs_a_job(workload, worker, prepped):
    work = worker.Workload(SimpleNamespace(
        workload=workload, seed=0, data=prepped.data, ckpt=prepped.ckpt,
        prep=prepped.out))
    work.setup()
    job = work.job()
    assert job.losses and all(math.isfinite(x) for x in job.losses)
    assert job.samples > 0
