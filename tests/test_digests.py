"""Pinned SHA-256 digests of a small corpus and a small checkpoint.

A change that alters these bytes must update the digest here on purpose
and record the old and new values in CHANGES.md.  Corpus bytes come from
the generators and the file format only.  Checkpoint bytes also depend on
the rounding of the training arithmetic (conv2d, dense, Adam) and of the
BLAS kernels underneath it; the pinned value is for OpenBLAS 0.3.31 on
x86-64 with numpy 2.4.
"""

import hashlib

import pytest

from qent import dataset as dsm
from qent import harness as hn
from qent import model as mdl

CORPUS_SHA256 = "083f5ceb5b60eb63ca90cfba6fd880b4bb782e40f76662b95ad7ace8164582e5"
MANIFEST_SHA256 = "4703b46e3a1deb9a034dd1fa4bdaa8a28f28025813942c86c50b73e91ff44d2b"
CHECKPOINT_SHA256 = "948d9b5e0b3c897963079e78ae0bdd9336e09e388ee0c7f4fc5879cdf4881913"
ARCH_SHA256 = "ff7be69d38d7231770e350bcca8df27036d2cb33dbc3239caade93c541768520"


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


def test_checkpoint_digest(corpus, tmp_path):
    arch = mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16)
    model = mdl.build_cnn(arch, seed=22)
    cfg = mdl.TrainConfig(epochs=2, seed=22, batch_size=32)
    hn.train_model(model, dsm.load_dataset(corpus), None, cfg, kind="cnn")
    ckpt = tmp_path / "tiny.ckpt"
    mdl.save_model(model, ckpt)
    assert sha256(ckpt) == CHECKPOINT_SHA256
    assert sha256(ckpt.with_name(ckpt.name + ".arch")) == ARCH_SHA256
