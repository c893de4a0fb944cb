"""Smoke test of the benchmark itself, at tiny corpus sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is reported with its unit,
that the correctness checks reject a deliberately corrupted corpus copy, and
that the benchmark refuses to run without the library's sources.
"""

import json
import os
import shutil
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import layers  # noqa: E402
import pipeline as pl  # noqa: E402
import run  # noqa: E402
from qent import dataset as dsm  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def tiny(workload):
    return dict(pl.WORKLOADS[workload], scale=0.0002, test_scale=0.0002, pptes_count=2, epochs=1)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(pl.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _, _ in layers.METRICS]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {n: u for n, u, _ in layers.METRICS}


@pytest.mark.parametrize("workload", list(pl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(workload, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record, result = run.run(tiny(workload), workload, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert record["corpus_sha256"] and record["ckpt_sha256"]


def _corrupt_copy(src, dst, n_qubits):
    """Copy a corpus, set a label to 2 and every record's first negativity to NaN.

    Layout: a 26-byte header, fixed-size records (real and imaginary planes,
    labels as u1, negativities as f8, 7 provenance bytes), then a CRC-32 of
    everything before it, refreshed here so the copy still loads.
    """
    k, m = 1 << n_qubits, (1 << (n_qubits - 1)) - 1
    record = 2 * k * k * 8 + m + 8 * m + 7
    raw = bytearray(open(src, "rb").read()[:-4])
    count = (len(raw) - 26) // record
    for i in range(count):
        labels_at = 26 + i * record + 2 * k * k * 8
        raw[labels_at + m : labels_at + m + 8] = struct.pack("<d", float("nan"))
    raw[26 + 2 * k * k * 8] = 2
    with open(dst, "wb") as f:
        f.write(raw + struct.pack("<I", zlib.crc32(raw)))
    shutil.copy(str(src) + ".manifest", str(dst) + ".manifest")


def test_checks_reject_corrupted_corpus(tmp_path):
    built = dsm.build_training_set(3, "negativity", 0.0002, seed=5)
    good, bad = tmp_path / "good.qent", tmp_path / "bad.qent"
    dsm.save_dataset(built, good)
    rng = np.random.default_rng(0)
    assert all(pl.check_corpus(built, dsm.load_dataset(good), rng))

    _corrupt_copy(good, bad, 3)
    outcomes = pl.check_corpus(built, dsm.load_dataset(bad), rng)
    assert outcomes[0] is False, "round trip must differ from the built corpus"
    assert outcomes[1] is False, "label 2 and NaN negativities must be rejected"
    assert not any(outcomes[2:]), "stored NaN negativities must not match a recomputation"


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "desk3-cnn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
