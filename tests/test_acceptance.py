"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions; a failure surfaces through pytest itself.  Criterion 6 trains
the full desk-scale classifier and dominates the suite's runtime.
"""

import time

import numpy as np
import pytest
from scipy import stats

from qent import autograd as ag
from qent import dataset as dsm
from qent import entanglement as ent
from qent import harness as hn
from qent import model as mdl
from qent import qcore, stategen as sg
from qent.rng import seeded_rng

SEED = 20260811


def _announce(num, detail, t0):
    print(f"[criterion {num:02d}] PASS: {detail} ({time.perf_counter() - t0:.1f}s)")


def random_mixed_state(n, rng):
    """Blend of the mixed-state generators used across the corpus."""
    r = rng.random()
    if r < 0.4:
        return dsm.mixture_of_entangled(n, int(rng.integers(2, 6)), "haar", rng)
    if r < 0.7:
        rho, _ = sg.traced_mixed_state(n, int(rng.integers(1, 3)), rng)
        return rho
    return sg.kron_separable_mixed(n, rng)


def test_01_negativity_oracle():
    t0 = time.perf_counter()
    ghz = np.outer(sg.ghz_state(3), sg.ghz_state(3).conj())
    for bp in ent.enumerate_bipartitions(3):
        assert abs(ent.negativity(ghz, bp) - 0.5) < 1e-9
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho_bell = np.outer(bell, bell.conj())
    assert abs(ent.negativity(rho_bell, ent.Bipartition(2, 0b10)) - 0.5) < 1e-9

    rng = seeded_rng(SEED, 1)
    for i in range(500):
        if i % 2 == 0:
            rho = sg.kron_separable_mixed(3, rng)
        else:
            psi, _ = sg.random_circuit_state(3, False, rng)
            rho = np.outer(psi, psi.conj())
        assert np.all(ent.negativity_vector(rho) <= 1e-7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _announce(1, "GHZ/Bell negativity 1/2; 500 separable states certify 0", t0)


def test_02_symmetry_suite():
    t0 = time.perf_counter()
    rng = seeded_rng(SEED, 2)
    for n in (3, 4):
        bps = ent.enumerate_bipartitions(n)
        for _ in range(500):
            rho = random_mixed_state(n, rng)
            base = ent.negativity_vector(rho)

            rotated = sg.randomize_local(rho, rng)
            rot = ent.negativity_vector(rotated)
            assert np.max(np.abs(base - rot)) < 1e-8

            perm = [int(p) for p in rng.permutation(n)]
            permuted = qcore.permute_qubits(rho, perm)
            for bp in bps:
                j_img = ent.permuted_bipartition_index(bp.index, perm, n)
                img = ent.Bipartition(n, j_img << 1)
                assert abs(ent.negativity(permuted, img) - base[bp.index - 1]) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _announce(2, "negativity invariant under local rotations and index-tracked permutations", t0)


def test_03_partial_transpose_involution():
    t0 = time.perf_counter()
    rng = seeded_rng(SEED, 3)
    for i in range(1000):
        n = 3 if i % 2 else 4
        rho = random_mixed_state(n, rng)
        for bp in ent.enumerate_bipartitions(n):
            pt = ent.partial_transpose(rho, bp)
            assert np.array_equal(ent.partial_transpose(pt, bp), rho)
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-10
            assert abs(np.trace(pt) - 1) < 1e-10
    _announce(3, "involution exact, Hermiticity and trace preserved on 1000 states", t0)


def _central_diff(build_loss, tensor, idx, eps=1e-5):
    flat = tensor.data.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + eps
    hi = build_loss().item()
    flat[idx] = orig - eps
    lo = build_loss().item()
    flat[idx] = orig
    return (hi - lo) / (2 * eps)


def _check_op_gradients(build_loss, tensors, rng, probes=3):
    for t in tensors:
        t.zero_grad()
    build_loss().backward()
    for t in tensors:
        grad = t.grad.copy()
        for idx in rng.choice(t.data.size, size=min(probes, t.data.size), replace=False):
            fd = _central_diff(build_loss, t, idx)
            an = grad.reshape(-1)[idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4


def test_04_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for trial in range(20):
        # conv2d through a smooth head (kinks would poison finite differences)
        b_, ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, h) + 1))
        x = ag.Tensor(rng.normal(size=(b_, ci, h, h)), requires_grad=True)
        kern = ag.Tensor(rng.normal(size=(co, ci, k, k)) * 0.5, requires_grad=True)
        bias = ag.Tensor(rng.normal(size=co) * 0.2, requires_grad=True)
        _check_op_gradients(
            lambda: ag.mean(ag.square(ag.conv2d(x, kern, bias))), [x, kern, bias], rng
        )

        # dense
        xd = ag.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = ag.Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True)
        bd = ag.Tensor(rng.normal(size=4) * 0.2, requires_grad=True)
        _check_op_gradients(
            lambda: ag.mean(ag.square(ag.dense(xd, w, bd))), [xd, w, bd], rng
        )

        # relu, probed away from its kink
        xr = ag.Tensor(
            np.sign(rng.normal(size=(4, 4))) * (0.05 + np.abs(rng.normal(size=(4, 4)))),
            requires_grad=True,
        )
        _check_op_gradients(lambda: ag.mean(ag.relu(xr)), [xr], rng)

        # sigmoid
        xs = ag.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        _check_op_gradients(lambda: ag.mean(ag.sigmoid(xs)), [xs], rng)

        # bce_mean, probabilities clear of the clamp
        p = ag.Tensor(rng.uniform(0.05, 0.95, size=(3, 4)), requires_grad=True)
        q = (rng.random((3, 4)) > 0.5).astype(float)
        _check_op_gradients(lambda: ag.bce_mean(p, q), [p], rng)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _announce(4, "conv2d/dense/relu/sigmoid/bce match central differences, 20 configs each", t0)


def test_05_architecture_shape():
    t0 = time.perf_counter()
    arch3 = mdl.ArchConfig(n_qubits=3)
    assert arch3.channel_widths() == [32, 128, 256]
    assert arch3.flatten_size == 6400
    for n, m in ((3, 3), (4, 7), (5, 15)):
        arch = mdl.ArchConfig(n_qubits=n)
        model = mdl.build_cnn(arch, seed=0)
        probs = mdl.predict(model, np.eye(1 << n, dtype=complex) / (1 << n))
        assert probs.shape == (m,)
        assert np.all((probs > 0) & (probs < 1))
    _announce(5, "channel widths (32,128,256), flatten 6400, outputs 3/7/15", t0)


def test_06_desk_scale_training():
    t0 = time.perf_counter()
    train = dsm.build_training_set(3, "negativity", 0.1, seed=SEED)
    valid = dsm.build_validation_set(3, 0.1, seed=SEED)
    pure, mixed = dsm.build_test_sets(3, 0.1, seed=SEED)
    model = mdl.build_cnn(mdl.ArchConfig(n_qubits=3), seed=SEED)
    cfg = mdl.TrainConfig(epochs=10, seed=SEED)
    hn.train_model(model, train, valid, cfg, kind="cnn")
    pure_acc = hn.evaluate_accuracy(model, pure, "pure_test").accuracy
    mixed_acc = hn.evaluate_accuracy(model, mixed, "mixed_test").accuracy
    elapsed = time.perf_counter() - t0
    assert pure_acc >= 0.90, f"pure test accuracy {pure_acc}"
    assert mixed_acc >= 0.75, f"mixed test accuracy {mixed_acc}"
    assert elapsed < 3600
    ghz = np.outer(sg.ghz_state(3), sg.ghz_state(3).conj())
    assert np.all(mdl.predict(model, ghz) > 0.5)
    _announce(6, f"10-epoch CNN: pure {pure_acc:.4f} >= 0.90, mixed {mixed_acc:.4f} >= 0.75", t0)


def test_07_siamese_reduction():
    t0 = time.perf_counter()
    ds = dsm.build_training_set(3, "negativity", 0.001, seed=SEED + 7)
    arch = mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16)

    def run(kind):
        model = mdl.build_cnn(arch, seed=SEED)
        cfg = mdl.TrainConfig(epochs=2, seed=SEED, batch_size=32, lambda1=0.0, lambda2=0.0)
        return hn.train_model(model, ds, None, cfg, kind=kind).step_losses

    cnn_losses = run("cnn")
    siam_losses = run("siamese")
    assert len(cnn_losses) == len(siam_losses) > 0
    worst = max(abs(a - b) for a, b in zip(cnn_losses, siam_losses))
    assert worst < 1e-10
    _announce(7, f"zero-weight Siamese matches CNN per step (max gap {worst:.1e})", t0)


def test_08_pptes_verification():
    t0 = time.perf_counter()
    rng = seeded_rng(SEED, 8)
    checked = 0
    for family in ent.PPTES_FAMILIES:
        for _ in range(100):
            if family == "horodecki":
                raw = ent.horodecki_state(float(rng.uniform(0.02, 0.98)), 3)
                cuts = [ent.horodecki_ppt_cut(3)]
            elif family == "acin":
                a, b, c = np.exp(rng.uniform(-np.log(4), np.log(4), 3))
                raw = ent.acin_state(a, b, c)
                cuts = ent.enumerate_bipartitions(3)
            else:
                raw = ent.upb_state()
                cuts = ent.enumerate_bipartitions(3)
            for rho in (raw, sg.randomize_local(raw, rng)):
                assert abs(np.trace(rho).real - 1) < 1e-10
                assert abs(np.trace(rho).imag) < 1e-10
                assert qcore.hermitian_eigenvalues(rho)[0] >= -1e-9
                for bp in cuts:
                    assert ent.negativity(rho, bp) <= 1e-9
                    pt_min = qcore.hermitian_eigenvalues(ent.partial_transpose(rho, bp))[0]
                    assert pt_min >= -1e-9
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _announce(8, f"{checked} family states PPT on stated cuts, trace 1, PSD", t0)


def test_09_combined_classifier():
    t0 = time.perf_counter()
    _, mixed = dsm.build_test_sets(3, 0.005, seed=SEED + 9)
    model = mdl.build_cnn(mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16), seed=1)
    report = hn.evaluate_accuracy(model, mixed, combined=True)
    rhos, labels, negs = mixed.arrays()
    preds = np.maximum(
        (report.probabilities >= 0.5).astype(np.uint8),
        (negs > ent.NPT_THRESHOLD).astype(np.uint8),
    )
    entangled = labels == 1
    assert entangled.any()
    assert np.all(preds[entangled] == 1)

    for i in range(0, len(mixed), max(1, len(mixed) // 10)):
        decisions = hn.combined_classify(model, rhos[i])
        assert np.all(decisions[labels[i] == 1] == 1)
    _announce(9, "negativity override flags every truly entangled cut", t0)


def test_10_transition_analysis():
    t0 = time.perf_counter()
    d_values = [2, 5, 8, 11, 14, 17, 20, 23, 26, 30]
    model = mdl.build_cnn(mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16), seed=2)
    curves = hn.transition_analysis(model, 3, d_values, 200, seeded_rng(SEED, 10))
    for pool in ("entangled_circuit", "entangled_haar"):
        frac = curves.series[pool]["npt_fraction"]
        rho_s, _ = stats.spearmanr(d_values, frac)
        assert rho_s <= -0.8, (pool, frac, rho_s)
    assert all(v == 0.0 for v in curves.series["separable"]["npt_fraction"])
    _announce(10, "NPT fraction decays with mixture size; separable mixtures all PPT", t0)


def test_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    # datasets: byte-identical files for identical build parameters
    for build in (
        lambda: dsm.build_training_set(3, "weakly", 0.002, seed=SEED + 11),
        lambda: dsm.build_test_sets(3, 0.002, seed=SEED + 11)[1],
    ):
        p1, p2 = tmp_path / "a.qent", tmp_path / "b.qent"
        dsm.save_dataset(build(), p1)
        dsm.save_dataset(build(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    # training: bit-identical checkpoints and identical reports
    train = dsm.build_training_set(3, "negativity", 0.001, seed=SEED + 11)
    valid = dsm.build_validation_set(3, 0.01, seed=SEED + 11)
    arch = mdl.ArchConfig(n_qubits=3, r1=4.0, fc_layers=2, fc_units=16)

    def run(path):
        model = mdl.build_cnn(arch, seed=SEED)
        cfg = mdl.TrainConfig(epochs=2, seed=SEED, batch_size=32)
        hn.train_model(model, train, valid, cfg, kind="siamese")
        mdl.save_model(model, path)
        return hn.evaluate_accuracy(model, valid, "valid")

    r1 = run(tmp_path / "m1.ckpt")
    r2 = run(tmp_path / "m2.ckpt")
    assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()
    assert r1.accuracy == r2.accuracy
    assert r1.conv_neg == r2.conv_neg
    assert np.array_equal(r1.probabilities, r2.probabilities)
    _announce(11, "byte-identical corpora, bit-identical checkpoints and reports", t0)
