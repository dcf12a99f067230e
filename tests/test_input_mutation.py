"""Mutation test of the files a user hands the program: a checkpoint, cut
short at a seeded sample of lengths and inside its checksum, and with single
bits flipped across its magic, length, header, payload and checksum; and two
config files, cut at every length and with every bit flipped in turn. Every
checkpoint mutant raises ConfigError, in either dtype; a config mutant
either parses or exits 2 with one ``error:`` line. No mutant may end in any
other exception."""

import json
import random

import numpy as np
import pytest

from sensecomm import cli, models
from sensecomm.errors import ConfigError
from sensecomm.models import ModelConfig, Pipeline, load_checkpoint, save_checkpoint
from sensecomm.rng import Rng
from test_models import checkpoint_parts


def truncated(blob: bytes, lengths):
    for n in sorted(set(lengths)):
        yield f"cut@{n}", blob[:n]


def flipped(blob: bytes, bits):
    for bit in sorted(set(bits)):
        mutant = bytearray(blob)
        mutant[bit // 8] ^= 1 << (bit % 8)
        yield f"flip@{bit}", bytes(mutant)


def bits_of(start: int, stop: int) -> range:
    """Every bit of bytes ``start`` to ``stop - 1``."""
    return range(8 * start, 8 * stop)


def checkpoint_mutants(blob: bytes, draw: random.Random):
    head_end = 8 + len(checkpoint_parts(blob)[0])
    crc_at = len(blob) - 4
    dtype_at = blob.index(b'"dtype"')
    dtype_end = blob.index(b",", dtype_at) + 1
    yield from truncated(blob, [0, 3, 4, 7, 8, 9, head_end - 1, head_end,
                                head_end + 1, *range(crc_at, len(blob))]
                         + draw.sample(range(len(blob)), 40))
    yield from flipped(blob, [*bits_of(0, 8), *bits_of(dtype_at, dtype_end),
                              *draw.sample(bits_of(8, head_end), 400),
                              *bits_of(head_end, head_end + 16),
                              *draw.sample(bits_of(head_end, crc_at), 200),
                              *bits_of(crc_at, len(blob))])


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(Pipeline(ModelConfig(2, "joint"), Rng(0)), path)
    return path.read_bytes()


def test_checkpoint_mutants_load_or_raise_config_error(checkpoint_blob, tmp_path,
                                                      monkeypatch):
    def no_build(*args, **kwargs):  # every mutant is refused before a build
        raise AssertionError("a pipeline was built for a mutant")

    monkeypatch.setattr(models, "Pipeline", no_build)
    path = tmp_path / "mutant.bin"
    outcomes = {"loaded": 0, "refused": 0}
    for name, mutant in checkpoint_mutants(checkpoint_blob, random.Random(24)):
        path.write_bytes(mutant)
        for dtype in (np.float32, np.float64):
            try:
                load_checkpoint(path, dtype)
            except ConfigError:
                outcomes["refused"] += 1
            except Exception as exc:  # named, so the mutant can be rebuilt
                pytest.fail(f"{name} in {dtype.__name__}: "
                            f"{type(exc).__name__}: {exc}")
            else:
                outcomes["loaded"] += 1
    # the checksum covers every byte, so no cut or flip loads
    assert outcomes["loaded"] == 0, outcomes


CONFIGS = {
    "run.json": json.dumps({"output_size": 2, "epochs": 1, "seed": 5,
                            "channel": "rayleigh", "comm_snr_db": 3.0}),
    "run.cfg": "# smoke run\noutput_size=2\nepochs=1\nmode=sensing-only\n"
               "sensing_snr_db=-3\n",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_mutants_parse_or_exit_2(name, tmp_path, capsys, monkeypatch):
    # one parser for every mutant: parse_args builds its own otherwise
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    blob = CONFIGS[name].encode()
    path = tmp_path / name
    outcomes = {"parsed": 0, "refused": 0}
    for label, mutant in [*truncated(blob, range(len(blob))),
                          *flipped(blob, bits_of(0, len(blob)))]:
        path.write_bytes(mutant)
        try:
            cli.parse_args(["train", "--config", str(path)])
        except SystemExit as exc:
            err = capsys.readouterr().err
            assert exc.code == 2, (label, mutant, err)
            assert err.startswith("error:") and err.count("\n") == 1, (label, err)
            outcomes["refused"] += 1
        except Exception as exc:  # named, so the mutant can be rebuilt
            pytest.fail(f"{label} {mutant!r}: {type(exc).__name__}: {exc}")
        else:
            outcomes["parsed"] += 1
    assert outcomes["parsed"] > 0 and outcomes["refused"] > 0, outcomes
