"""Pinned SHA-256 digests of small corpora and a small checkpoint.

A change that alters these bytes must update the digest here on purpose
and record the old and new values in CHANGES.md.  Corpus bytes come from
the generators and the file format only.  Checkpoint bytes also depend on
the rounding of the training arithmetic (conv2d, dense, Adam) and of the
BLAS kernels underneath it; the pinned value is for OpenBLAS 0.3.31 on
x86-64 with numpy 2.4.  It does not depend on the BLAS thread count.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import qent
from qent import dataset as dsm
from qent import harness as hn
from qent import model as mdl

CORPUS_SHA256 = "083f5ceb5b60eb63ca90cfba6fd880b4bb782e40f76662b95ad7ace8164582e5"
MANIFEST_SHA256 = "4703b46e3a1deb9a034dd1fa4bdaa8a28f28025813942c86c50b73e91ff44d2b"
CHECKPOINT_SHA256 = "948d9b5e0b3c897963079e78ae0bdd9336e09e388ee0c7f4fc5879cdf4881913"
ARCH_SHA256 = "ff7be69d38d7231770e350bcca8df27036d2cb33dbc3239caade93c541768520"

# (corpus, manifest) digests of further sets, all seed 21: the 3-qubit pure
# and mixed test sets and the PPTES sets (count 10) at 3 qubits, plus a
# 4-qubit negativity training set (scale 0.001) and a 5-qubit Horodecki set
# (count 5), whose labels come from 16x16 and 32x32 partial transposes.
SET_SHA256 = {
    "test_pure3": (
        "b2eca9d2e7fcea8aa1a9008dcee7d4c898d2f69cce96d5da507acaf121eaae40",
        "a97879ab8211da6817a0af0337a726816174602677b6664727c3b7825676e746",
    ),
    "test_mixed3": (
        "c8a078597e3b9f018a6ce8dae621b1e4895e6650f6004cc6e6b07683614af42d",
        "ddb3aeaae061a640f19bf8d083278953d3d019923c64e7232418cbc762739e72",
    ),
    "pptes_horodecki3": (
        "91cc58aca523d235ca5316762cb5e0a6b862afe48c1a456bef70265d15d70400",
        "7d246caf696b7a7e1c012a06b238c33114d535a580c7e2475f7c87d447c4e9fe",
    ),
    "pptes_acin3": (
        "4d5bb89cadc98005d6ee7107823b3e2621d12f1d870167d9194988d30ecb95de",
        "59f81fc6eeb234ed654df4a5d1936724cb37e87eabf3a92056a08d7b5f44af04",
    ),
    "pptes_upb3": (
        "333eb2af99c2ce2572c149abc60589cec9b623f7eccbe78ad35914d1d82facdc",
        "0b8af3cd84131beeb1d49a22c0fb9616515b9ca41fe404157d6643b9e92a58d7",
    ),
    "train_negativity4": (
        "433aca00df423b0125a1baf2bb86f3cdb3d636a715c6e161e585a369ea06408c",
        "53f7f16834fb743686f2b4c6d1a52f5e9dce73e6da0583067da260ca7e70524e",
    ),
    "pptes_horodecki5": (
        "a8f9267451305fec2343d2c9cd0575f4ac5abb512141f1560e977452bc2eebcd",
        "50b72bb2d2aaca6bd9d3fdbd7834da942b296e90c370f437063b73a17f252c27",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("digests") / "train.qent"
    dsm.save_dataset(dsm.build_training_set(3, "verified", 0.001, 21), path)
    return path


def test_corpus_digest(corpus):
    assert sha256(corpus) == CORPUS_SHA256
    assert sha256(corpus.with_name(corpus.name + ".manifest")) == MANIFEST_SHA256


def _build_set(name):
    if name.startswith("test_"):
        pure, mixed = dsm.build_test_sets(3, 0.001, 21)
        return pure if name == "test_pure3" else mixed
    if name == "train_negativity4":
        return dsm.build_training_set(4, "negativity", 0.001, 21)
    family, n = name[len("pptes_"):-1], int(name[-1])
    return dsm.build_pptes_testset(family, 10 if n == 3 else 5, 21, n_qubits=n)


@pytest.mark.parametrize("name", sorted(SET_SHA256))
def test_set_digest(name, tmp_path):
    path = tmp_path / f"{name}.qent"
    dsm.save_dataset(_build_set(name), path)
    assert (sha256(path), sha256(path.with_name(path.name + ".manifest"))) == SET_SHA256[name]


def train_tiny_checkpoint(corpus, ckpt) -> None:
    """Train the pinned tiny-arch model on ``corpus`` and save it to ``ckpt``."""
    arch = mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16)
    model = mdl.build_cnn(arch, seed=22)
    cfg = mdl.TrainConfig(epochs=2, seed=22, batch_size=32)
    hn.train_model(model, dsm.load_dataset(corpus), None, cfg, kind="cnn")
    mdl.save_model(model, ckpt)


def test_checkpoint_digest(corpus, tmp_path):
    ckpt = tmp_path / "tiny.ckpt"
    train_tiny_checkpoint(corpus, ckpt)
    assert sha256(ckpt) == CHECKPOINT_SHA256
    assert sha256(ckpt.with_name(ckpt.name + ".arch")) == ARCH_SHA256


# Trains in a fresh interpreter, then prints the thread count numpy's
# bundled OpenBLAS reports (nothing when the library is not found).
_TRAIN_AND_REPORT = """
import ctypes, glob, os, sys
import numpy as np
from test_digests import train_tiny_checkpoint
train_tiny_checkpoint(sys.argv[1], sys.argv[2])
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
for lib in glob.glob(libs):
    fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if fn is not None:
        print(fn())
"""


def test_checkpoint_independent_of_blas_threads(corpus, tmp_path):
    """The thread count is fixed by OPENBLAS_NUM_THREADS before numpy loads."""
    paths = [os.path.dirname(os.path.dirname(qent.__file__)), os.path.dirname(__file__)]
    digests = []
    for threads in (1, 2):
        ckpt = tmp_path / f"tiny{threads}.ckpt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_REPORT, str(corpus), str(ckpt)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        # OpenBLAS caps its pool at the CPUs this process may run on.
        want = min(threads, len(os.sched_getaffinity(0)))
        assert proc.stdout.split() in ([], [str(want)])
        digests.append(sha256(ckpt))
    assert digests[0] == digests[1]
