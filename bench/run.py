"""qent benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload desk3-cnn --seed 1 --seconds 55 --trace 0

Run from the root of a qent checkout; the library is imported from its
``src/`` directory.  The run repeats rounds of the workload (see
``pipeline.py``) for ``--seconds`` seconds, checks every round's outputs,
and prints two JSON lines: a record (machine, BLAS, parameters, digests,
sample counts) and, last, the result with the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round on the same data seed, requires their corpora,
checkpoint and step losses to be bit-equal, and reports the per-layer
metrics of the traced rounds.  Spans go to ``.bench_build/qent-bench/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the machine this was sized on has 2 cores shared with
# other work, and one thread gave steadier step times at equal losses.  It
# must be set before numpy loads OpenBLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(".bench_build", "qent-bench")
SETUP_REPEATS = 5


def _import_library():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qent", "__init__.py")):
        sys.exit("bench: no src/qent here; run from the root of a qent checkout")
    sys.path.insert(0, src)
    sys.path.insert(1, BENCH_DIR)
    import qent  # noqa: F401

    if not os.path.abspath(qent.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported qent from {qent.__file__}, not from {src}")
    return qent


def _blas_record(np):
    """BLAS name, version, the cap set here and, if OpenBLAS says, its thread count."""
    import ctypes
    import glob

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "thread_cap": int(BLAS_THREADS), "threads_in_use": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        record["threads_in_use"] = fn()
    return record


def _median(values):
    return float(statistics.median(values))


def end_to_end(rounds, setup_s, np):
    """End-to-end metrics of an untraced run.

    Rates are the run's totals: work summed over every round divided by the
    time summed over the same rounds; ``wall_s`` is the mean round.  On the
    2-core host this was sized on, Python-bound code runs up to ~1.5x faster
    in intermittent periods of a few seconds, and run totals moved less from
    run to run than per-round medians or quartiles.  Step times are
    percentiles over every full-batch step of the run.
    """

    def rate(work, secs):
        return sum(work(r) for r in rounds) / sum(secs(r) for r in rounds)

    steps = [s for r in rounds for s in r.step_ms]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(r.wall_s for r in rounds) / len(rounds), "s"),
        "gen_states_per_s": (rate(lambda r: r.states, lambda r: r.phase_s["gen"]), "states/s"),
        "io_mb_per_s": (rate(lambda r: r.io_bytes / 1e6, lambda r: r.phase_s["io"]), "MB/s"),
        "train_samples_per_s": (rate(lambda r: r.train_samples, lambda r: r.phase_s["train"]),
                                "samples/s"),
        "step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
        "step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
        "eval_states_per_s": (rate(lambda r: r.eval_states, lambda r: r.eval_s), "states/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_loss": (rounds[0].train_loss, "nats"),
    }


def run(p, workload, seed, seconds, trace):
    """Set up, repeat rounds for ``seconds``, check them; return (record, result)."""
    import numpy as np

    import layers
    import pipeline as pl
    import qent
    from spans import Tracer

    t_imported = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pl.warm_up(p)
        setups.append(time.perf_counter() - t0)
    setup_s = (t_imported - T_START) + _median(setups)

    arch = pl.arch_for(p)
    widths = [2] + arch.channel_widths()
    tracer = Tracer(p["batch_size"], {c: i + 1 for i, c in enumerate(widths[:-1])}, arch.flatten_size)
    tracer.install_step_clock(qent)

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    outcomes = []
    untraced, traced = [], []
    try:
        t_run = time.perf_counter()
        while True:
            seed_r = pl.data_seed(seed, len(untraced))
            rnd = pl.run_round(p, seed_r, workdir, tracer)
            untraced.append(rnd)
            if trace:
                tracer.start(qent)
                try:
                    twin = pl.run_round(p, seed_r, workdir, tracer)
                finally:
                    tracer.stop()
                outcomes += pl.check_round(twin, seed_r)
                outcomes.append(pl.same_results(rnd, twin))
                traced.append(twin)
            outcomes += pl.check_round(rnd, seed_r)
            elapsed = time.perf_counter() - t_run
            if elapsed * (1 + 1 / len(untraced)) > seconds:
                break
    finally:
        tracer.remove_step_clock()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "params": p,
        "rounds": len(untraced), "traced_rounds": len(traced),
        "full_steps_timed": sum(len(r.step_ms) for r in untraced),
        "round_samples": [{"wall_s": r.wall_s, "phase_s": dict(r.phase_s), "states": r.states,
                           "corpus_bytes": r.corpus_bytes,
                           "io_bytes": r.io_bytes, "train_samples": r.train_samples,
                           "eval_s": r.eval_s, "eval_states": r.eval_states, "step_ms": r.step_ms}
                          for r in untraced],
        "corpus_sha256": untraced[0].corpus_sha256, "ckpt_sha256": untraced[0].ckpt_sha256,
        "machine": {"cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "machine": platform.machine(), "kernel": platform.release(),
                    "blas": _blas_record(np)},
    }
    if trace:
        branches = 3 if p["kind"] == "siamese" else 1
        metrics = layers.per_layer(tracer, untraced, traced,
                                   layers.kernel_counts(arch, p["batch_size"], branches))
        record["trace_file"] = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.npz")
        record["spans"] = len(tracer.span_t0)
        tracer.save(record["trace_file"])
    else:
        metrics = end_to_end(untraced, setup_s, np)
    failed = outcomes.count(False)
    result = {
        "correct": failed == 0, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import pipeline as pl

    if args.workload not in pl.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(pl.WORKLOADS)}")
    record, result = run(pl.WORKLOADS[args.workload], args.workload, args.seed, args.seconds, args.trace)
    with open("BENCHMARK.json") as f:
        record["why"] = {w["name"]: w["why"] for w in json.load(f)["workloads"]}.get(args.workload)
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
