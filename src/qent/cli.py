"""Command-line surface: dataset generation, training, evaluation, sweeps.

Every run takes an explicit seed (reproducibility is the point: no
wall-clock defaults) and writes its resolved configuration next to its
outputs before doing any work.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset as dsm
from . import harness as hn
from . import model as mdl
from .rng import seeded_rng

PPTES_FULL_COUNT = 10_000  # full-scale size of each family test set


def _snapshot(out_dir: Path, name: str, args: argparse.Namespace, extra=None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    resolved.update(extra or {})
    dsm.write_kv(out_dir / f"config_{name}.txt", resolved)


def _train_config(args) -> mdl.TrainConfig:
    return mdl.TrainConfig(
        epochs=args.epochs,
        seed=args.seed,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
    )


def _load_datasets(paths) -> list:
    out = []
    for p in paths:
        if not Path(p).exists():
            raise FileNotFoundError(f"dataset not found: {p}")
        out.append((Path(p).stem, dsm.load_dataset(p)))
    return out


# --- subcommands -------------------------------------------------------------


def cmd_gen(args) -> int:
    out = Path(args.out)
    _snapshot(out, f"gen_{args.set.replace(':', '_')}", args)
    t0 = time.perf_counter()
    if args.set == "train":
        ds = dsm.build_training_set(args.qubits, args.strategy, args.scale, args.seed)
        dsm.save_dataset(ds, out / "train.qent")
        written = [("train.qent", len(ds))]
    elif args.set == "valid":
        ds = dsm.build_validation_set(args.qubits, args.scale, args.seed)
        dsm.save_dataset(ds, out / "valid.qent")
        written = [("valid.qent", len(ds))]
    elif args.set == "test":
        pure, mixed = dsm.build_test_sets(args.qubits, args.scale, args.seed)
        dsm.save_dataset(pure, out / "test_pure.qent")
        dsm.save_dataset(mixed, out / "test_mixed.qent")
        written = [("test_pure.qent", len(pure)), ("test_mixed.qent", len(mixed))]
    elif args.set.startswith("pptes:"):
        family = args.set.split(":", 1)[1]
        dsm.check_scale(args.scale)
        count = max(1, int(round(PPTES_FULL_COUNT * args.scale)))
        ds = dsm.build_pptes_testset(family, count, args.seed, args.qubits)
        name = f"pptes_{family}.qent"
        dsm.save_dataset(ds, out / name)
        written = [(name, len(ds))]
    else:
        raise ValueError(f"unknown --set {args.set!r}")
    dt = time.perf_counter() - t0
    rate = sum(count for _, count in written) / dt
    for name, count in written:
        # exit 0 only for files that read back clean
        if len(dsm.load_dataset(out / name)) != count:
            raise dsm.DatasetIntegrityError(f"{out / name}: reread count mismatch")
        print(f"wrote {out / name}: {count} states ({dt:.1f}s total, {rate:.0f} states/s)")
    return 0


def cmd_train(args) -> int:
    ckpt = Path(args.out)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    _snapshot(ckpt.parent, f"train_{ckpt.stem}", args)
    named = _load_datasets([args.data])
    train_ds = named[0][1]
    if args.extra_data:
        for _, extra in _load_datasets([args.extra_data]):
            train_ds = hn.concat_datasets(train_ds, extra)
    valid_ds = _load_datasets([args.valid])[0][1] if args.valid else None

    if args.resume:
        model = mdl.load_model(args.resume)
        if model.n_qubits != train_ds.num_qubits:
            raise ValueError(
                f"checkpoint is for {model.n_qubits} qubits, data for {train_ds.num_qubits}"
            )
    else:
        model = mdl.build_cnn(mdl.ArchConfig(n_qubits=train_ds.num_qubits), seed=args.seed)

    cfg = _train_config(args)
    result = hn.train_model(model, train_ds, valid_ds, cfg, kind=args.model)
    mdl.save_model(model, ckpt)

    steps_per_epoch = max(1, (len(train_ds) + cfg.batch_size - 1) // cfg.batch_size)
    with open(str(ckpt) + ".log.csv", "w") as f:
        f.write("epoch,mean_loss,val_accuracy,seconds,samples_per_s\n")
        for e in range(cfg.epochs):
            chunk = result.step_losses[e * steps_per_epoch : (e + 1) * steps_per_epoch]
            val = result.val_accuracies[e] if e < len(result.val_accuracies) else ""
            secs, rate = result.epoch_seconds[e], result.epoch_samples_per_s[e]
            f.write(f"{e},{np.mean(chunk)!r},{val!r},{secs!r},{rate!r}\n")
    best = f", best epoch {result.best_epoch}" if result.best_epoch is not None else ""
    print(f"wrote {ckpt} after {len(result.step_losses)} steps in {result.seconds:.1f}s{best}")
    return 0


def cmd_eval(args) -> int:
    out = Path(args.out)
    _snapshot(out, "eval", args)
    model = mdl.load_model(args.ckpt)
    reports = []
    for name, ds in _load_datasets(args.data):
        mask = hn.pptes_eval_mask(ds) if ds.manifest.strategy == "family" else None
        reports.append(hn.evaluate_accuracy(model, ds, name, mask=mask))
        if args.combined:
            reports.append(
                hn.evaluate_accuracy(model, ds, name + "_combined", mask=mask, combined=True)
            )
    hn.write_metrics_csv(out / "metrics.csv", reports)
    summary = {}
    for r in reports:
        summary[f"{r.dataset}.accuracy"] = repr(r.accuracy)
        summary[f"{r.dataset}.conv_neg"] = repr(r.conv_neg)
        summary[f"{r.dataset}.npt_fraction"] = repr(r.npt_fraction)
    dsm.write_kv(out / "summary.txt", summary)
    for r in reports:
        print(f"{r.dataset}: accuracy {r.accuracy:.4f}  convneg {r.conv_neg:.4f}")
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def cmd_sweep(args) -> int:
    out = Path(args.out)
    _snapshot(out, "sweep", args)
    train_ds = _load_datasets([args.data])[0][1]
    valid_ds = _load_datasets([args.valid])[0][1]
    depths = [int(x) for x in args.depths.split(",")]
    kernels = [int(x) for x in args.kernels.split(",")]
    rows = []
    for depth in depths:
        for kernel in kernels:
            arch = mdl.ArchConfig(
                n_qubits=train_ds.num_qubits, conv_layers=depth, kernel=kernel
            )
            try:
                arch.validate()
            except ValueError:
                continue  # kernel/depth combination underflows the input
            model = mdl.build_cnn(arch, seed=args.seed)
            res = hn.train_model(model, train_ds, valid_ds, _train_config(args), kind=args.model)
            best_acc = max(res.val_accuracies)
            rows.append((depth, kernel, best_acc, res.best_epoch, res.seconds))
            print(f"depth {depth} kernel {kernel}: best val acc {best_acc:.4f}")
    with open(out / "sweep.csv", "w") as f:
        f.write("conv_layers,kernel,best_val_accuracy,best_epoch,seconds\n")
        for row in rows:
            f.write(",".join(repr(v) for v in row) + "\n")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_convneg(args) -> int:
    out = Path(args.out)
    _snapshot(out, "convneg", args)
    model = mdl.load_model(args.ckpt)
    if model.n_qubits != args.qubits:
        raise ValueError(f"checkpoint is for {model.n_qubits} qubits, asked for {args.qubits}")
    d_values = sorted(set(int(round(d)) for d in np.linspace(2, args.dmax, args.points)))
    curves = hn.transition_analysis(
        model, args.qubits, d_values, args.samples_per_d, seeded_rng(args.seed, 7)
    )
    hn.write_transition_csv(out / "transition.csv", curves)
    print(f"wrote {out / 'transition.csv'} ({len(d_values)} mixture sizes)")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qent",
        description="Entanglement-detection bench: generate corpora, train and "
        "evaluate per-bipartition classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    training = argparse.ArgumentParser(add_help=False)  # flags shared by train and sweep
    training.add_argument("--model", choices=("cnn", "siamese"), default="cnn")
    training.add_argument("--batch-size", type=int, default=64)
    training.add_argument("--lr", type=float, default=1e-3)
    training.add_argument("--lambda1", type=float, default=0.5)
    training.add_argument("--lambda2", type=float, default=0.5)

    g = sub.add_parser("gen", help="generate a labeled dataset")
    g.add_argument("--qubits", type=int, required=True, choices=(3, 4, 5))
    g.add_argument("--strategy", choices=dsm.STRATEGIES, default="verified")
    g.add_argument("--scale", type=float, required=True, help="fraction of full-size composition")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument(
        "--set",
        default="train",
        help="train | valid | test | pptes:horodecki | pptes:acin | pptes:upb",
    )
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", parents=[training], help="train a classifier")
    t.add_argument("--data", required=True)
    t.add_argument("--epochs", type=int, required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument("--extra-data", default=None, help="extra dataset merged into training")
    t.add_argument("--valid", default=None, help="validation dataset for model selection")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on datasets")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", nargs="+", required=True)
    e.add_argument("--combined", action="store_true", help="also score negativity+network")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", parents=[training], help="architecture grid: conv depth x kernel size")
    s.add_argument("--data", required=True)
    s.add_argument("--valid", required=True)
    s.add_argument("--epochs", type=int, default=20)
    s.add_argument("--depths", default="1,2,3")
    s.add_argument("--kernels", default="2,3")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("convneg", help="negativity-agreement vs mixture size curves")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--qubits", type=int, required=True, choices=(3, 4, 5))
    c.add_argument("--dmax", type=int, required=True)
    c.add_argument("--points", type=int, default=10)
    c.add_argument("--samples-per-d", type=int, default=200)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_convneg)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, dsm.DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
