"""Training loops, evaluation metrics and report writers.

Accuracy counts correct (sample, bipartition) decisions at threshold 0.5;
``conv_neg`` measures agreement with the negativity-based classifier; the
combined classifier lets negativity decide wherever it certifies and falls
back to the network only on the inconclusive cuts.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import dataset as dsm
from . import entanglement as ent
from . import model as mdl
from .autograd import Adam
from .rng import seeded_rng

PREDICTION_THRESHOLD = 0.5

# Derived-stream tags for the training loop.
_STREAM_SHUFFLE = 101
_STREAM_SIAMESE = 102


@dataclass
class BipartitionStats:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else float("nan")


@dataclass
class MetricsReport:
    dataset: str
    num_samples: int
    num_bipartitions: int
    accuracy: float
    per_bipartition: list
    conv_neg: float
    npt_fraction: float
    seconds: float
    probabilities: np.ndarray | None = None


def _threshold(probs: np.ndarray) -> np.ndarray:
    return (probs >= PREDICTION_THRESHOLD).astype(np.uint8)


def _neg_indicator(negs: np.ndarray) -> np.ndarray:
    return (negs > ent.NPT_THRESHOLD).astype(np.uint8)


def _agreement(preds: np.ndarray, negs: np.ndarray) -> float:
    """Fraction of (sample, cut) decisions equal to the negativity indicator; NaN on none."""
    if negs.size == 0:
        return float("nan")
    return float(1.0 - (preds != _neg_indicator(negs)).mean())


def npt_fraction(negs: np.ndarray) -> float:
    """Fraction of states with at least one certified-entangled cut; NaN on none."""
    if len(negs) == 0:
        return float("nan")
    return float(np.mean(np.any(negs > ent.NPT_THRESHOLD, axis=1)))


def evaluate_accuracy(
    model,
    ds: dsm.Dataset,
    name: str | None = None,
    mask: np.ndarray | None = None,
    combined: bool = False,
    batch_size: int = 256,
) -> MetricsReport:
    """Score a model on a corpus; ``mask`` limits which (sample, cut) pairs count.

    With ``combined`` the stored negativities override the network wherever
    they certify entanglement.
    """
    t0 = time.perf_counter()
    dsm.check_labels(ds)
    labels, negs = ds.labels, ds.negs
    probs = mdl.predict_encoded(model, ds.channels, batch_size)
    preds = _threshold(probs)
    if combined:
        preds = np.maximum(preds, _neg_indicator(negs))
    if mask is None:
        mask = np.ones(labels.shape, dtype=bool)

    correct = (preds == labels) & mask
    accuracy = float(correct.sum() / mask.sum()) if mask.any() else float("nan")
    per_bp = []
    for j in range(labels.shape[1]):
        sel = mask[:, j]
        p, q = preds[sel, j], labels[sel, j]
        per_bp.append(
            BipartitionStats(
                tp=int(np.sum((p == 1) & (q == 1))),
                tn=int(np.sum((p == 0) & (q == 0))),
                fp=int(np.sum((p == 1) & (q == 0))),
                fn=int(np.sum((p == 0) & (q == 1))),
            )
        )
    return MetricsReport(
        dataset=name or "dataset",
        num_samples=len(ds),
        num_bipartitions=labels.shape[1],
        accuracy=accuracy,
        per_bipartition=per_bp,
        conv_neg=_agreement(preds, negs),
        npt_fraction=npt_fraction(negs),
        seconds=time.perf_counter() - t0,
        probabilities=probs,
    )


def combined_classify(model, rho: np.ndarray) -> np.ndarray:
    """Per-cut decisions: negativity where it certifies, the network elsewhere."""
    negs = ent.negativity_vector(rho)
    probs = mdl.predict(model, rho)
    return np.maximum(_neg_indicator(negs), _threshold(probs)).astype(np.uint8)


def pptes_eval_mask(ds: dsm.Dataset) -> np.ndarray:
    """Which (sample, cut) pairs of a family-labeled corpus carry trusted labels.

    Defining cuts of the family always count; other cuts count only when the
    stored negativity certifies them.
    """
    dsm.check_labels(ds)
    mask = _neg_indicator(ds.negs).astype(bool)
    for fam, gen in dsm.PPTES_GEN.items():
        rows = ds.generator == gen
        if rows.any():
            mask[rows] |= ent.pptes_defining_labels(fam, ds.num_qubits).astype(bool)
    mask[~np.isin(ds.generator, list(dsm.PPTES_GEN.values()))] = True  # not a family state
    return mask


@dataclass
class TrainResult:
    """Per step: losses.  Per epoch: validation accuracy, wall seconds (with
    validation) and training samples per second."""

    step_losses: list
    val_accuracies: list
    best_epoch: int | None
    seconds: float
    epoch_seconds: list
    epoch_samples_per_s: list


def _plain_accuracy(model, x: np.ndarray, labels: np.ndarray) -> float:
    preds = _threshold(mdl.predict_encoded(model, x))
    return float((preds == labels).mean())


def train_model(
    model,
    train_ds: dsm.Dataset,
    valid_ds: dsm.Dataset | None,
    cfg: mdl.TrainConfig,
    kind: str = "cnn",
) -> TrainResult:
    """Mini-batch training; keeps the epoch with the best validation accuracy.

    ``kind`` selects the plain cross-entropy loss or its Siamese extension.
    All randomness (shuffling, per-batch symmetry draws) comes from streams
    derived from ``cfg.seed``, so identical configs give identical runs.
    """
    if kind not in ("cnn", "siamese"):
        raise ValueError(f"unknown model kind {kind!r}")
    if train_ds.num_qubits != model.n_qubits:
        raise ValueError(
            f"model is for {model.n_qubits} qubits, data for {train_ds.num_qubits}"
        )
    for ds in (train_ds, valid_ds):
        if ds is not None:
            dsm.check_labels(ds)
    t0 = time.perf_counter()
    x_all = train_ds.channels
    q_all = train_ds.labels.astype(mdl.DTYPE)
    x_val = q_val = None
    if valid_ds is not None:
        x_val, q_val = valid_ds.channels, valid_ds.labels

    shuffle_rng = seeded_rng(cfg.seed, _STREAM_SHUFFLE)
    siam_rng = seeded_rng(cfg.seed, _STREAM_SIAMESE)
    opt = Adam(model.parameters(), lr=cfg.learning_rate)
    n = x_all.shape[0]
    step_losses = []
    val_accs = []
    epoch_s = []
    best = None  # (accuracy, epoch, params)
    for epoch in range(cfg.epochs):
        e0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            if kind == "cnn":
                loss = mdl.cnn_loss(model, x_all[sel], q_all[sel])
            else:
                loss = mdl.siamese_loss(
                    model, x_all[sel], q_all[sel], cfg.lambda1, cfg.lambda2, siam_rng
                )
            opt.zero_grad()
            loss.backward()
            opt.step()
            step_losses.append(loss.item())
        if x_val is not None:
            acc = _plain_accuracy(model, x_val, q_val)
            val_accs.append(acc)
            if best is None or acc > best[0]:
                best = (acc, epoch, [p.copy() for p in model.param_arrays()])
        epoch_s.append(time.perf_counter() - e0)
    best_epoch = None
    if best is not None:
        best_epoch = best[1]
        model.set_param_arrays(best[2])
    rates = [n / s for s in epoch_s]
    return TrainResult(step_losses, val_accs, best_epoch, time.perf_counter() - t0, epoch_s, rates)


# --- PPT/NPT transition analysis -------------------------------------------


@dataclass
class TransitionCurves:
    d_values: list
    series: dict  # pool -> {"npt_fraction": [...], "conv_neg": [...]}


def transition_analysis(
    model,
    n_qubits: int,
    d_values,
    samples_per_d: int,
    rng,
) -> TransitionCurves:
    """NPT fraction and negativity agreement across mixture sizes.

    Entangled-component mixtures are generated separately from the circuit
    and Haar pools; the separable series mixes product states.  ``model``
    may be None to collect the fractions alone.
    """
    cap = dsm.TEST_D_CAPS.get(n_qubits)
    d_values = [int(d) for d in d_values]
    if not d_values or min(d_values) < 1:
        raise ValueError(f"d_values={d_values}: need one or more positive mixture sizes")
    if cap is not None and max(d_values) > cap:
        raise ValueError(f"d values exceed the configured cap {cap} for {n_qubits} qubits")
    if samples_per_d < 1:
        raise ValueError(f"samples_per_d={samples_per_d}: need one or more samples per mixture size")

    pools = ("entangled_circuit", "entangled_haar", "separable")
    series = {p: {"npt_fraction": [], "conv_neg": []} for p in pools}
    for d in d_values:
        for pool in pools:
            rhos = []
            for _ in range(samples_per_d):
                if pool == "separable":
                    rhos.append(dsm.mixture_of_separable(n_qubits, d, rng))
                else:
                    rhos.append(
                        dsm.mixture_of_entangled(n_qubits, d, pool.split("_")[1], rng)
                    )
            negs = np.stack([ent.negativity_vector(r) for r in rhos])
            series[pool]["npt_fraction"].append(npt_fraction(negs))
            if model is None:
                series[pool]["conv_neg"].append(float("nan"))
            else:
                probs = mdl.predict_encoded(model, mdl.encode_batch(np.stack(rhos)))
                series[pool]["conv_neg"].append(_agreement(_threshold(probs), negs))
    return TransitionCurves(d_values, series)


# --- report / config writers ------------------------------------------------


def write_metrics_csv(path, reports) -> None:
    with open(path, "w") as f:
        f.write("dataset,accuracy,convneg,npt_fraction,seconds\n")
        for r in reports:
            f.write(
                f"{r.dataset},{r.accuracy!r},{r.conv_neg!r},{r.npt_fraction!r},{r.seconds!r}\n"
            )


def write_transition_csv(path, curves: TransitionCurves) -> None:
    cols = []
    for pool in curves.series:
        cols += [f"convneg_{pool}", f"npt_fraction_{pool}"]
    with open(path, "w") as f:
        f.write("d," + ",".join(cols) + "\n")
        for i, d in enumerate(curves.d_values):
            row = [str(d)]
            for pool in curves.series:
                row.append(repr(curves.series[pool]["conv_neg"][i]))
                row.append(repr(curves.series[pool]["npt_fraction"][i]))
            f.write(",".join(row) + "\n")


# --- corpus merging --------------------------------------------------------


def concat_datasets(a: dsm.Dataset, b: dsm.Dataset) -> dsm.Dataset:
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit counts differ")
    sections = dict(a.manifest.sections)
    for k, v in b.manifest.sections.items():
        sections[k] = sections.get(k, 0) + v
    man = dsm.DatasetManifest(
        a.num_qubits, a.manifest.strategy, sections, a.manifest.master_seed
    )
    return dsm.Dataset(man, *(np.concatenate([getattr(a, c), getattr(b, c)]) for c in dsm.COLUMNS))
