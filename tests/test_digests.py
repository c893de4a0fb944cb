"""Pinned SHA-256 digests of small corpora and small checkpoints.

A change that alters these bytes must update the digest here on purpose
and record the old and new values in CHANGES.md.  Corpus bytes come from
the generators and the file format only.  Checkpoint bytes also depend on
the rounding of the training arithmetic (conv2d, dense, Adam), which runs
in float32, and of the BLAS kernels underneath it; the pinned values are
for OpenBLAS 0.3.31 on x86-64 with numpy 2.4, and checkpoint format
version 2.  They do not depend on the BLAS thread count.
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
CHECKPOINT_SHA256 = "986645570558091a398a779bdf91d2f855d622ce980283c90ba6fc9cdc143d47"
# The same tiny model trained with the Siamese loss, whose rotation draws go
# through stategen.random_local_unitary.
SIAMESE_CHECKPOINT_SHA256 = "d05b92f635d6dd3343b5767f706dcab87da769d56583bcccf20eacf0e639971e"
ARCH_SHA256 = "ff7be69d38d7231770e350bcca8df27036d2cb33dbc3239caade93c541768520"

# (corpus, manifest) digests of further sets, all seed 21: the 3-qubit pure
# and mixed test sets and the PPTES sets (count 10) at 3 qubits, plus a
# 4-qubit negativity training set (scale 0.001) and a 5-qubit Horodecki set
# (count 5), whose labels come from 16x16 and 32x32 partial transposes, the
# 5-qubit pure and mixed test sets (scale 0.0002) and the family retraining
# extension (scale 0.0002), and the 3-qubit weakly and negativity training
# sets (scale 0.001; weakly labels come from the circuits' gate pairs) and
# validation set (scale 0.001), the corpora the desk-scale bench builds.
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
    "test_pure5": (
        "4df320bde3f71809acf62a0566cdfcf59154119118cb9a055b995ef9703db9fa",
        "afc53c58092c741a9c9d3afc42aef1bf864422d40ec18c012e6827e2e0d226f3",
    ),
    "test_mixed5": (
        "a407c29155767ef3197d17bc5d0e5f90822cb019d07b4b15539b4ec6c93119d7",
        "4f56735564e571fcee7489ce329981138fca13caa6d468c0182dff58f6ff314f",
    ),
    "pptes_extension3": (
        "d4e2504059a2ad1084bc29ed44b1e01d7ec58985dd82fd13e1bc9244e397cc24",
        "10394e02623a2388355f1684ebd98f398c5a230ab03aed18553366fb47a426f5",
    ),
    "train_weakly3": (
        "2c64331e24725807e656741eabe59351184312103239acba91270995b3562e1f",
        "a741772d45247d3ad6d2454ffb4812d2422ea7b58feae8e5267bfbd08534f80d",
    ),
    "train_negativity3": (
        "26c9ee3264f68d6dd2d35e573cfaebefcc794ef6e37b9166cf41f797f697c1ee",
        "4ee045d2ec635be3205a6f6228ae0d7b5396a90af0061faa290ef38f01f2df03",
    ),
    "valid3": (
        "42ce0fa025a3d55837438eb6e4b7fe1bbb153e9d380dd7bd8d5a522579a84fd5",
        "7f89e3fc424340859c2c5a884c575568d084a5f29d17c4983e589a9846c41e7f",
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
        n = int(name[-1])
        pure, mixed = dsm.build_test_sets(n, 0.001 if n == 3 else 0.0002, 21)
        return pure if name.startswith("test_pure") else mixed
    if name == "pptes_extension3":
        return dsm.build_pptes_extension(0.0002, 21)
    if name.startswith("train_"):
        return dsm.build_training_set(int(name[-1]), name[len("train_"):-1], 0.001, 21)
    if name == "valid3":
        return dsm.build_validation_set(3, 0.001, 21)
    family, n = name[len("pptes_"):-1], int(name[-1])
    return dsm.build_pptes_testset(family, 10 if n == 3 else 5, 21, n_qubits=n)


@pytest.mark.parametrize("name", sorted(SET_SHA256))
def test_set_digest(name, tmp_path):
    path = tmp_path / f"{name}.qent"
    dsm.save_dataset(_build_set(name), path)
    assert (sha256(path), sha256(path.with_name(path.name + ".manifest"))) == SET_SHA256[name]


def train_tiny_checkpoint(corpus, ckpt, kind="cnn") -> None:
    """Train the pinned tiny-arch model on ``corpus`` and save it to ``ckpt``."""
    arch = mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16)
    model = mdl.build_cnn(arch, seed=22)
    cfg = mdl.TrainConfig(epochs=2, seed=22, batch_size=32)
    hn.train_model(model, dsm.load_dataset(corpus), None, cfg, kind=kind)
    mdl.save_model(model, ckpt)


def test_checkpoint_digest(corpus, tmp_path):
    ckpt = tmp_path / "tiny.ckpt"
    train_tiny_checkpoint(corpus, ckpt)
    assert sha256(ckpt) == CHECKPOINT_SHA256
    assert sha256(ckpt.with_name(ckpt.name + ".arch")) == ARCH_SHA256


def test_siamese_checkpoint_digest(corpus, tmp_path):
    ckpt = tmp_path / "tiny.ckpt"
    train_tiny_checkpoint(corpus, ckpt, kind="siamese")
    assert sha256(ckpt) == SIAMESE_CHECKPOINT_SHA256
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


# Builds two corpora in a fresh interpreter and prints their digests.
_BUILD_AND_DIGEST = """
import hashlib, sys
from pathlib import Path
from qent import dataset as dsm
out = Path(sys.argv[1])
sets = {"train_negativity3": dsm.build_training_set(3, "negativity", 0.001, 21),
        "test_mixed5": dsm.build_test_sets(5, 0.0002, 21)[1]}
for name, ds in sets.items():
    dsm.save_dataset(ds, out / name)
    print(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
"""


def test_corpora_independent_of_blas_threads(tmp_path):
    """Stacked generation calls give the pinned bytes at 1 and 2 BLAS threads."""
    paths = [os.path.dirname(os.path.dirname(qent.__file__))]
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_AND_DIGEST, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests = dict(line.split() for line in proc.stdout.splitlines())
        assert digests == {name: SET_SHA256[name][0] for name in digests} and len(digests) == 2
