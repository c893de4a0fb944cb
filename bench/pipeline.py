"""Workloads, one round of each, and the checks on what a round produced.

A round is one pass of a workload's call sequence on corpora generated from
one data seed.  A run repeats rounds until its time is up; round ``r`` of a
run with seed ``s`` always uses data seed ``s * 1000 + r``, so a seed fixes
every input.
"""

import hashlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import qent
from qent import dataset as dsm
from qent import entanglement as ent
from qent import harness as hn
from qent import model as mdl

perf = time.perf_counter

FAMILIES = ("horodecki", "acin", "upb")

# Sizes per workload: the desk-scale acceptance run (3 qubits, negativity
# labels, default architecture, batch 64) at a smaller scale and epoch count.
# Every end-to-end metric must apply to every workload, so each one trains;
# a generation-only 5-qubit workload would have no training or evaluation
# figures, and the default architecture at 5 qubits (a 215296x128 first dense
# layer) is too slow to train within a run.
DESK3 = dict(n_qubits=3, strategy="negativity", scale=0.001, test_scale=0.001, pptes_count=10,
             epochs=2, batch_size=64, lambda1=0.5, lambda2=0.5)
WORKLOADS = {
    "desk3-cnn": dict(DESK3, kind="cnn"),
    "desk3-siamese": dict(DESK3, kind="siamese"),
}

# Stored negativities recomputed per corpus and round.
NEG_SAMPLE = 3
# Save/load round trips per round, each to new files.  One takes 10-30 ms,
# and back-to-back round trips differ by ~15% on a shared host, so one is
# too few to time.  I/O rates spread between runs about twice as much as
# generation rates at equal time spent: at ten round trips a 55 s Siamese
# run spent ~2 s in I/O and its rate spread 21% between seeds.  Rewriting an
# existing file instead would make ext4 push it to disk on close, and time
# the disk rather than the format.
IO_REPEATS = 20


def data_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


@dataclass
class Round:
    """What one round did, how long each phase took, and what it produced."""

    wall_s: float = 0.0
    phase_s: dict = field(default_factory=lambda: defaultdict(float))
    states: int = 0
    corpus_bytes: int = 0
    train_samples: int = 0
    eval_s: float = 0.0
    eval_states: int = 0
    step_losses: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    train_loss: float = float("nan")
    corpus_sha256: str = ""
    ckpt_sha256: str = ""
    built: dict = field(default_factory=dict)
    loaded: dict = field(default_factory=dict)

    @property
    def io_bytes(self) -> int:
        """Bytes written and read back over the round's save/load round trips."""
        return 2 * IO_REPEATS * self.corpus_bytes


class Timer:
    """Adds elapsed seconds to ``phase_s[name]``; a span too while tracing."""

    def __init__(self, rnd, tracer, name):
        self.rnd, self.tracer, self.name = rnd, tracer, name

    def __enter__(self):
        self.span = self.tracer.open(f"phase.{self.name}") if self.tracer.active else None
        self.t0 = perf()

    def __exit__(self, *exc):
        self.rnd.phase_s[self.name] += perf() - self.t0
        if self.span is not None:
            self.tracer.close(self.span)


def arch_for(p) -> mdl.ArchConfig:
    return mdl.ArchConfig(n_qubits=p["n_qubits"])


def warm_up(p) -> None:
    """Build a small training set (66 states at 3 qubits) and run one training step on it."""
    ds = dsm.build_training_set(p["n_qubits"], p["strategy"], p["test_scale"] / 5, 1)
    model = mdl.build_cnn(arch_for(p), seed=1)
    rhos, labels, _ = ds.arrays()
    x = mdl.encode_batch(rhos[: p["batch_size"]])
    q = labels[: p["batch_size"]].astype(np.float64)
    opt = qent.autograd.Adam(model.parameters())
    if p["kind"] == "cnn":
        loss = mdl.cnn_loss(model, x, q)
    else:
        loss = mdl.siamese_loss(model, x, q, p["lambda1"], p["lambda2"], np.random.default_rng(1))
    opt.zero_grad()
    loss.backward()
    opt.step()


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_round(p, dseed: int, workdir: str, tracer) -> Round:
    """One pass of the workload's call sequence on corpora from ``dseed``."""
    rnd = Round()
    n, scale = p["n_qubits"], p["scale"]
    steps_before = len(tracer.step_ms)
    t0 = perf()
    with Timer(rnd, tracer, "gen"):
        built = {"train": dsm.build_training_set(n, p["strategy"], scale, dseed),
                 "valid": dsm.build_validation_set(n, scale, dseed)}
        built["pure_test"], built["mixed_test"] = dsm.build_test_sets(n, p["test_scale"], dseed)
        for fam in FAMILIES:
            built[f"pptes_{fam}"] = dsm.build_pptes_testset(fam, p["pptes_count"], dseed, n)
    with Timer(rnd, tracer, "io"):
        for k in range(IO_REPEATS):
            paths = {name: os.path.join(workdir, f"{name}-{k}.qent") for name in built}
            for name, ds in built.items():
                dsm.save_dataset(ds, paths[name])
            loaded = {name: dsm.load_dataset(paths[name]) for name in built}
    model = mdl.build_cnn(arch_for(p), seed=dseed)
    cfg = mdl.TrainConfig(epochs=p["epochs"], seed=dseed, batch_size=p["batch_size"],
                          lambda1=p["lambda1"], lambda2=p["lambda2"])
    with Timer(rnd, tracer, "train"):
        result = hn.train_model(model, loaded["train"], loaded["valid"], cfg, kind=p["kind"])
    with Timer(rnd, tracer, "eval"):
        jobs = [("pure_test", {}), ("mixed_test", {}), ("mixed_test", {"combined": True})]
        jobs += [(f"pptes_{fam}", {"mask": hn.pptes_eval_mask(loaded[f"pptes_{fam}"])})
                 for fam in FAMILIES]
        for name, kwargs in jobs:
            e0 = perf()
            hn.evaluate_accuracy(model, loaded[name], name, **kwargs)
            rnd.eval_s += perf() - e0
            rnd.eval_states += len(loaded[name])
    rnd.wall_s = perf() - t0

    # Everything below is bookkeeping outside the timed round.
    files = [f for name in built for f in (paths[name], paths[name] + ".manifest")]
    rnd.corpus_bytes = sum(os.path.getsize(f) for f in files)
    rnd.corpus_sha256 = _sha256_files(files)
    rnd.states = sum(len(ds) for ds in built.values())
    rnd.built, rnd.loaded = built, loaded
    ckpt = os.path.join(workdir, "model.ckpt")
    mdl.save_model(model, ckpt)
    rnd.ckpt_sha256 = _sha256_files([ckpt, ckpt + ".arch"])
    rnd.step_losses = list(result.step_losses)
    per_epoch = -(-len(loaded["train"]) // p["batch_size"])
    rnd.train_loss = float(np.mean(result.step_losses[-per_epoch:]))
    rnd.train_samples = p["epochs"] * len(loaded["train"])
    rnd.step_ms = tracer.step_ms[steps_before:]
    for f in os.listdir(workdir):
        os.remove(os.path.join(workdir, f))
    return rnd


# --- correctness checks ------------------------------------------------------


def _same_corpus(a: dsm.Dataset, b: dsm.Dataset) -> bool:
    if (a.manifest.num_qubits, a.manifest.strategy, a.manifest.master_seed, a.manifest.sections) != (
        b.manifest.num_qubits, b.manifest.strategy, b.manifest.master_seed, b.manifest.sections
    ) or len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays())) and [
        s.provenance for s in a.states
    ] == [s.provenance for s in b.states]


def _labels_and_negativities_valid(ds: dsm.Dataset) -> bool:
    if len(ds) == 0:
        return True
    _, labels, negs = ds.arrays()
    return bool(np.all((labels == 0) | (labels == 1)) and np.all(np.isfinite(negs)) and np.all(negs >= 0))


def check_corpus(built: dsm.Dataset, loaded: dsm.Dataset, rng) -> list:
    """Outcomes (True = pass) of the per-corpus checks on one round trip."""
    outcomes = [_same_corpus(built, loaded), _labels_and_negativities_valid(loaded)]
    for i in rng.choice(len(loaded), size=min(NEG_SAMPLE, len(loaded)), replace=False):
        s = loaded.states[int(i)]
        outcomes.append(bool(np.array_equal(ent.negativity_vector(s.rho), s.neg_values)))
    return outcomes


def check_round(rnd: Round, seed: int) -> list:
    """Outcomes of every check on a round; releases the round's corpora."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for name in rnd.built:
        outcomes += check_corpus(rnd.built[name], rnd.loaded[name], rng)
    rnd.built, rnd.loaded = {}, {}
    outcomes.append(bool(rnd.step_losses) and bool(np.all(np.isfinite(rnd.step_losses))))
    return outcomes


def same_results(a: Round, b: Round) -> bool:
    """Bit-equal corpora, checkpoint and step losses (instrumentation check)."""
    return (a.corpus_sha256 == b.corpus_sha256 and a.ckpt_sha256 == b.ckpt_sha256
            and np.array_equal(np.array(a.step_losses), np.array(b.step_losses)))
