"""Training loops, evaluation metrics and experiment orchestration.

Accuracy counts correct (sample, bipartition) decisions at threshold 0.5;
``conv_neg`` measures agreement with the negativity-based classifier; the
combined classifier lets negativity decide wherever it certifies and falls
back to the network only on the inconclusive cuts.
"""

import time
from dataclasses import dataclass, field, replace

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
    config: dict = field(default_factory=dict)
    probabilities: np.ndarray | None = None


def _threshold(probs: np.ndarray) -> np.ndarray:
    return (probs >= PREDICTION_THRESHOLD).astype(np.uint8)


def _neg_indicator(negs: np.ndarray) -> np.ndarray:
    return (negs > ent.NPT_THRESHOLD).astype(np.uint8)


def _agreement(preds: np.ndarray, negs: np.ndarray) -> float:
    """Fraction of (sample, cut) decisions equal to the negativity indicator."""
    return float(1.0 - (preds != _neg_indicator(negs)).mean())


def npt_fraction(negs: np.ndarray) -> float:
    """Fraction of states with at least one certified-entangled cut."""
    return float(np.mean(np.any(negs > ent.NPT_THRESHOLD, axis=1)))


def evaluate_accuracy(
    model,
    ds: dsm.Dataset,
    name: str | None = None,
    mask: np.ndarray | None = None,
    combined: bool = False,
    batch_size: int = 256,
    config: dict | None = None,
) -> MetricsReport:
    """Score a model on a corpus; ``mask`` limits which (sample, cut) pairs count.

    With ``combined`` the stored negativities override the network wherever
    they certify entanglement.
    """
    t0 = time.perf_counter()
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
        config=dict(config or {}),
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
    mask = _neg_indicator(ds.negs).astype(bool)
    for fam, gen in dsm.PPTES_GEN.items():
        rows = ds.generator == gen
        if rows.any():
            mask[rows] |= ent.pptes_defining_labels(fam, ds.num_qubits).astype(bool)
    mask[~np.isin(ds.generator, list(dsm.PPTES_GEN.values()))] = True  # not a family state
    return mask


@dataclass
class TrainResult:
    step_losses: list
    val_accuracies: list
    best_epoch: int | None
    seconds: float


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
    t0 = time.perf_counter()
    x_all = train_ds.channels
    q_all = train_ds.labels.astype(np.float64)
    x_val = q_val = None
    if valid_ds is not None:
        x_val, q_val = valid_ds.channels, valid_ds.labels

    shuffle_rng = seeded_rng(cfg.seed, _STREAM_SHUFFLE)
    siam_rng = seeded_rng(cfg.seed, _STREAM_SIAMESE)
    opt = Adam(model.parameters(), lr=cfg.learning_rate)
    n = x_all.shape[0]
    step_losses = []
    val_accs = []
    best = None  # (accuracy, epoch, params)
    for epoch in range(cfg.epochs):
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
    best_epoch = None
    if best is not None:
        best_epoch = best[1]
        model.set_param_arrays(best[2])
    return TrainResult(step_losses, val_accs, best_epoch, time.perf_counter() - t0)


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
    if cap is not None and max(d_values) > cap:
        raise ValueError(f"d values exceed the configured cap {cap} for {n_qubits} qubits")
    if min(d_values) < 1:
        raise ValueError("mixture sizes must be positive")

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


# --- end-to-end experiment ---------------------------------------------------


@dataclass
class ExperimentPlan:
    """Everything needed to rerun one training-plus-evaluation run."""

    n_qubits: int
    strategy: str
    scale: float
    model_kind: str  # "cnn" | "siamese"
    train: mdl.TrainConfig
    data_seed: int
    arch: mdl.ArchConfig | None = None
    eval_pptes: bool = True
    retrain_pptes: bool = False
    retrain_epochs: int = 5
    pptes_count: int = 100


@dataclass
class ExperimentResult:
    reports: list
    retrained_reports: list
    train_result: TrainResult
    model: object


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


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Generate corpora, train, evaluate; optionally extend with family states.

    Mirrors the headline protocol: train on the chosen strategy, report
    accuracy on the pure/mixed test sets (plus the combined classifier on the
    mixed set), score the three bound-entangled families, and optionally
    retrain a few extra epochs with family states mixed in.
    """
    cfg = plan.train
    config_echo = {
        "n_qubits": plan.n_qubits,
        "strategy": plan.strategy,
        "scale": plan.scale,
        "model_kind": plan.model_kind,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "lambda1": cfg.lambda1,
        "lambda2": cfg.lambda2,
        "train_seed": cfg.seed,
        "data_seed": plan.data_seed,
    }
    train_ds = dsm.build_training_set(plan.n_qubits, plan.strategy, plan.scale, plan.data_seed)
    valid_ds = dsm.build_validation_set(plan.n_qubits, plan.scale, plan.data_seed)
    pure_ds, mixed_ds = dsm.build_test_sets(plan.n_qubits, plan.scale, plan.data_seed)

    arch = plan.arch or mdl.ArchConfig(n_qubits=plan.n_qubits)
    model = mdl.build_cnn(arch, seed=cfg.seed)
    train_result = train_model(model, train_ds, valid_ds, cfg, kind=plan.model_kind)

    def evaluate_all(m):
        reports = [
            evaluate_accuracy(m, pure_ds, "pure_test", config=config_echo),
            evaluate_accuracy(m, mixed_ds, "mixed_test", config=config_echo),
            evaluate_accuracy(m, mixed_ds, "mixed_test_combined", combined=True, config=config_echo),
        ]
        if plan.eval_pptes and plan.n_qubits == 3:
            for fam in ent.PPTES_FAMILIES:
                ds = dsm.build_pptes_testset(fam, plan.pptes_count, plan.data_seed)
                reports.append(
                    evaluate_accuracy(
                        m, ds, f"pptes_{fam}", mask=pptes_eval_mask(ds), config=config_echo
                    )
                )
        return reports

    reports = evaluate_all(model)
    retrained_reports = []
    if plan.retrain_pptes:
        if plan.n_qubits != 3:
            raise ValueError("family retraining extension exists for 3 qubits only")
        extension = dsm.build_pptes_extension(plan.scale, plan.data_seed + 1)
        merged = concat_datasets(train_ds, extension)
        re_cfg = replace(cfg, epochs=plan.retrain_epochs, seed=cfg.seed + 1)
        train_model(model, merged, valid_ds, re_cfg, kind=plan.model_kind)
        retrained_reports = evaluate_all(model)
    return ExperimentResult(reports, retrained_reports, train_result, model)
